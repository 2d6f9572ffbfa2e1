// Unit tests for the shared ThreadPool and a stress test pinning the GEMM
// bit-identical guarantee: every (SIMD level, thread-count, transpose)
// combination must produce exactly the same bytes, because each C element
// accumulates its k contributions in the same order everywhere.

#include <atomic>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "tensor/gemm.h"
#include "tensor/random.h"
#include "tensor/simd.h"
#include "tensor/tensor.h"
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

// ---------------------------------------------------------------------------
// GEMM stress: serial vs pooled, scalar vs AVX2 must be bit-identical.

struct GemmCase {
  bool trans_a;
  bool trans_b;
  const char* name;
};

Tensor run_gemm(const GemmCase& tc, int64_t m, int64_t n, int64_t k,
                const Tensor& a, const Tensor& b) {
  Tensor c = Tensor::zeros({m, n});
  gemm(tc.trans_a, tc.trans_b, m, n, k, 1.0F, a.data(), b.data(), 0.0F,
       c.data());
  return c;
}

bool bit_identical(const Tensor& x, const Tensor& y) {
  return x.numel() == y.numel() &&
         std::memcmp(x.data(), y.data(),
                     static_cast<size_t>(x.numel()) * sizeof(float)) == 0;
}

TEST(GemmStressTest, SerialPooledAndSimdLevelsAreBitIdentical) {
  const GemmCase cases[] = {{false, false, "nn"},
                            {false, true, "nt"},
                            {true, false, "tn"}};
  // Odd shapes straddling the parallel threshold and the AVX2 panel, lane
  // and 4-row tails; the last two are large enough for row fan-out.
  const int64_t shapes[][3] = {
      {1, 1, 1}, {3, 5, 7}, {17, 9, 33}, {33, 129, 65}, {65, 31, 129},
      {129, 67, 65}};
  Rng rng(42);
  for (const auto& tc : cases) {
    for (const auto& s : shapes) {
      const int64_t m = s[0], n = s[1], k = s[2];
      // Bernoulli-masked A exercises the spike-sparsity zero-row skip.
      Tensor a = tc.trans_a ? Tensor::bernoulli({k, m}, rng, 0.4F)
                            : Tensor::bernoulli({m, k}, rng, 0.4F);
      Tensor b = tc.trans_b ? Tensor::randn({n, k}, rng)
                            : Tensor::randn({k, n}, rng);

      Tensor ref;
      {
        GemmThreadsGuard threads(1);
        simd::LevelGuard level(simd::Level::kScalar);
        ref = run_gemm(tc, m, n, k, a, b);
      }
      for (int threads : {1, 2, 4}) {
        // kAvx2 clamps to the scalar tier on hosts without AVX2.
        for (simd::Level lvl : {simd::Level::kScalar, simd::Level::kAvx2}) {
          GemmThreadsGuard tguard(threads);
          simd::LevelGuard lguard(lvl);
          Tensor out = run_gemm(tc, m, n, k, a, b);
          EXPECT_TRUE(bit_identical(ref, out))
              << tc.name << " m=" << m << " n=" << n << " k=" << k
              << " threads=" << threads
              << " level=" << simd::level_name(simd::active_level());
        }
      }
    }
  }
  EXPECT_EQ(gemm_threads(), 1);
  EXPECT_EQ(simd::active_level(), simd::detected_level());
}

}  // namespace
}  // namespace ttsnn
