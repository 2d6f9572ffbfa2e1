// Unit tests for the shared ThreadPool: work sharing, inline fallback,
// exception propagation and nested use.

#include <atomic>
#include <vector>

#include <gtest/gtest.h>

#include "util/common.h"
#include "util/thread_pool.h"

namespace ttsnn {
namespace {

TEST(ThreadPoolTest, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(257);
  for (auto& h : hits) h.store(0);
  pool.parallel_for(257, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) hits[static_cast<size_t>(i)]++;
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ZeroWorkersRunsInline) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.workers(), 0);
  std::atomic<int64_t> sum{0};
  pool.parallel_for(100, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) sum += i;
  });
  EXPECT_EQ(sum.load(), 4950);
}

TEST(ThreadPoolTest, EmptyAndSingleRanges) {
  ThreadPool pool(2);
  std::atomic<int> calls{0};
  pool.parallel_for(0, [&](int64_t, int64_t) { calls++; });
  EXPECT_EQ(calls.load(), 0);
  pool.parallel_for(-5, [&](int64_t, int64_t) { calls++; });
  EXPECT_EQ(calls.load(), 0);
  pool.parallel_for(1, [&](int64_t begin, int64_t end) {
    EXPECT_EQ(begin, 0);
    EXPECT_EQ(end, 1);
    calls++;
  });
  EXPECT_EQ(calls.load(), 1);
}

TEST(ThreadPoolTest, ExceptionPropagatesToCaller) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(64,
                        [&](int64_t begin, int64_t) {
                          if (begin == 0) throw Error("chunk zero failed");
                        },
                        /*grain=*/1),
      Error);
}

TEST(ThreadPoolTest, ReusableAfterExceptionAndAcrossCalls) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(8, [](int64_t, int64_t) { throw Error("boom"); }),
      Error);
  std::atomic<int64_t> total{0};
  for (int round = 0; round < 50; ++round) {
    pool.parallel_for(64, [&](int64_t begin, int64_t end) {
      total += end - begin;
    });
  }
  EXPECT_EQ(total.load(), 50 * 64);
}

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  // Outer tasks each issue an inner region on the same pool. With a single
  // worker, every inner region must complete via caller work-sharing.
  ThreadPool pool(1);
  std::atomic<int64_t> inner_sum{0};
  pool.parallel_for(
      4,
      [&](int64_t begin, int64_t end) {
        for (int64_t i = begin; i < end; ++i) {
          pool.parallel_for(
              8, [&](int64_t b, int64_t e) { inner_sum += e - b; },
              /*grain=*/1);
        }
      },
      /*grain=*/1);
  EXPECT_EQ(inner_sum.load(), 4 * 8);
}

TEST(ThreadPoolTest, ParallelInvokeRunsBothThunks) {
  int a = 0, b = 0;
  parallel_invoke([&] { a = 1; }, [&] { b = 2; });
  EXPECT_EQ(a, 1);
  EXPECT_EQ(b, 2);
  EXPECT_THROW(parallel_invoke([] { throw Error("left"); }, [] {}), Error);
}

TEST(ThreadPoolTest, GlobalParallelForWorks) {
  std::atomic<int64_t> sum{0};
  parallel_for(1000, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) sum += i;
  });
  EXPECT_EQ(sum.load(), 499500);
  EXPECT_GE(ThreadPool::instance().workers(), 0);
}

}  // namespace
}  // namespace ttsnn
