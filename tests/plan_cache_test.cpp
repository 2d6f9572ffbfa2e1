// Tests for the shape-keyed compiled-program cache (infer/plan_cache.h): a
// cache-served program must be bitwise-equal to a freshly compiled one (the
// shape-general serving bar), LRU eviction under a tiny byte budget must
// recompile evicted shapes bit-identically, concurrent first misses on one
// shape must compile exactly once (single-flight), engine copies must share
// ONE weight storage and ONE cache (replicas cost metadata, not a model
// copy), and a failed compile must not poison the cache.

#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/factorize.h"
#include "core/models.h"
#include "infer/analysis.h"
#include "infer/engine.h"
#include "infer/plan_cache.h"
#include "tensor/ops.h"

namespace ttsnn {
namespace {

/// Builds the suite's small factorized MS-ResNet18 with real BN statistics.
infer::Engine make_engine(TTMode mode, infer::CompileOptions copts = {}) {
  Rng rng(31);
  ModelConfig cfg;
  cfg.in_channels = 3;
  cfg.num_classes = 4;
  cfg.base_width = 8;
  cfg.timesteps = 4;
  ModulePtr net = make_ms_resnet18(cfg, rng);
  FactorizeOptions fopts;
  fopts.mode = mode;
  fopts.use_vbmf = false;
  fopts.rank_fraction = 0.5;
  if (mode == TTMode::kHTT) fopts.htt_schedule = {true, false, true, false};
  factorize_network(*net, fopts, rng);
  net->set_training(true);
  for (int i = 0; i < 2; ++i) {
    net->forward(Tensor::uniform({4, 2, 3, 8, 8}, rng));
  }
  net->clear_cache();
  net->set_training(false);
  return infer::compile(*net, copts);
}

/// Field-by-field equality of two compiled programs — the bit-identity bar:
/// layouts, destinations and offsets must all agree, so
/// a cache round-trip (or an eviction + recompile) can never change what the
/// executor does.
void expect_program_eq(const infer::CompiledProgram& a,
                       const infer::CompiledProgram& b) {
  EXPECT_EQ(a.input, b.input);
  EXPECT_EQ(a.bytes, b.bytes);
  ASSERT_NE(a.layout, nullptr);
  ASSERT_NE(b.layout, nullptr);
  EXPECT_EQ(a.layout->shape, b.layout->shape);
  EXPECT_EQ(a.layout->offset, b.layout->offset);
  EXPECT_EQ(a.layout->floats, b.layout->floats);
  EXPECT_EQ(a.layout->scratch_offset, b.layout->scratch_offset);
  EXPECT_EQ(a.layout->scratch_floats, b.layout->scratch_floats);
  EXPECT_EQ(a.layout->col_offset, b.layout->col_offset);
  EXPECT_EQ(a.layout->col_floats, b.layout->col_floats);
  EXPECT_EQ(a.layout->total_floats, b.layout->total_floats);
  ASSERT_EQ(a.exec.size(), b.exec.size());
  for (size_t i = 0; i < a.exec.size(); ++i) {
    EXPECT_EQ(a.exec[i].dest, b.exec[i].dest) << "op " << i;
    EXPECT_EQ(a.exec[i].out_shape, b.exec[i].out_shape) << "op " << i;
    EXPECT_EQ(a.exec[i].offset, b.exec[i].offset) << "op " << i;
  }
}

TEST(PlanCacheTest, CacheServedProgramBitwiseEqualsFreshCompile) {
  infer::Engine engine = make_engine(TTMode::kPTT);
  const Shape shape{4, 2, 3, 8, 8};

  // First call compiles and caches; second call must return the SAME object.
  auto cached = engine.program(shape);
  auto again = engine.program(shape);
  EXPECT_EQ(cached.get(), again.get());

  // The cached program equals an out-of-cache compile field for field.
  infer::CompiledProgram fresh =
      infer::compile_program(engine.ops(), engine.analysis(), shape);
  expect_program_eq(*cached, fresh);

  // And the executor driven by it is deterministic: identical bits per run.
  Rng rng(7);
  Tensor x = Tensor::uniform(shape, rng);
  Tensor y1 = engine.run(x);
  Tensor y2 = engine.run(x);
  EXPECT_EQ(max_abs_diff(y1, y2), 0.0);

  infer::ProgramCacheStats stats = engine.cache_stats();
  EXPECT_EQ(stats.misses, 1);
  EXPECT_GE(stats.hits, 3);  // the second program() + the two runs
  EXPECT_EQ(stats.entries, 1);
  EXPECT_EQ(stats.bytes, cached->bytes);
  EXPECT_GT(stats.bytes, 0);
}

// An HTT plan's merged convs pick each timestep's kernel from the op's own
// schedule, so its programs hold nothing per timestep: every T the schedule
// covers compiles to its own cached program equal to a fresh compile
// (FailedCompileIsNotCached covers a T beyond the schedule).
TEST(PlanCacheTest, HttProgramsPerTimestepCountEqualFreshCompiles) {
  infer::Engine engine = make_engine(TTMode::kHTT);  // schedule {1, 0, 1, 0}
  for (const Shape& shape : {Shape{4, 1, 3, 8, 8}, Shape{2, 1, 3, 8, 8}}) {
    SCOPED_TRACE(shape_str(shape));
    expect_program_eq(
        *engine.program(shape),
        infer::compile_program(engine.ops(), engine.analysis(), shape));
    Rng rng(8);
    Tensor x = Tensor::uniform(shape, rng);
    EXPECT_EQ(max_abs_diff(engine.run(x), engine.run(x)), 0.0);
  }
  EXPECT_EQ(engine.cache_stats().entries, 2);
}

TEST(PlanCacheTest, LruEvictionUnderTinyBudgetRecompilesBitIdentically) {
  // A 1-byte budget retains only the most recently compiled shape: every new
  // shape evicts the previous one, and the evicted shape must recompile to
  // the exact same program (and the exact same output bits) when it returns.
  infer::Engine engine =
      make_engine(TTMode::kPTT, infer::CompileOptions{.plan_cache_bytes = 1});
  const Shape shape_a{4, 1, 3, 8, 8};
  const Shape shape_b{4, 1, 3, 12, 12};

  Rng rng(9);
  Tensor xa = Tensor::uniform(shape_a, rng);
  infer::CompiledProgram first = *engine.program(shape_a);
  Tensor ya1 = engine.run(xa);
  EXPECT_EQ(engine.cache_stats().entries, 1);

  engine.run(Tensor::uniform(shape_b, rng));  // compiles B, evicts A
  infer::ProgramCacheStats stats = engine.cache_stats();
  EXPECT_EQ(stats.entries, 1);
  EXPECT_GE(stats.evictions, 1);

  // A comes back: a fresh miss, not a stale entry — and bit-identical.
  const int64_t misses_before = stats.misses;
  infer::CompiledProgram recompiled = *engine.program(shape_a);
  EXPECT_EQ(engine.cache_stats().misses, misses_before + 1);
  expect_program_eq(first, recompiled);
  Tensor ya2 = engine.run(xa);
  EXPECT_EQ(max_abs_diff(ya1, ya2), 0.0);
}

TEST(PlanCacheTest, ConcurrentFirstMissIsSingleFlight) {
  infer::Engine engine = make_engine(TTMode::kPTT);
  const Shape shape{4, 3, 3, 10, 10};
  constexpr int kThreads = 8;

  const infer::ProgramCacheStats before = engine.cache_stats();
  std::atomic<int> ready{0};
  std::vector<std::shared_ptr<const infer::CompiledProgram>> got(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      // Crude barrier so the calls overlap; correctness does not depend on
      // it (a miss is counted at entry insertion, under the lock).
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      got[static_cast<size_t>(i)] = engine.program(shape);
    });
  }
  for (std::thread& t : threads) t.join();

  for (int i = 1; i < kThreads; ++i) {
    EXPECT_EQ(got[0].get(), got[static_cast<size_t>(i)].get())
        << "thread " << i << " got a different program object";
  }
  const infer::ProgramCacheStats after = engine.cache_stats();
  EXPECT_EQ(after.misses - before.misses, 1) << "shape compiled more than once";
  EXPECT_EQ(after.hits - before.hits, kThreads - 1);
}

TEST(PlanCacheTest, EngineCopiesShareWeightStorageAndCache) {
  infer::Engine engine = make_engine(TTMode::kPTT);
  infer::Engine replica = engine;  // what Router does per shard

  // Every weight tensor of every op shares storage with the original: a
  // replica (and N cached shapes — programs hold no weights at all) costs
  // plan metadata, never a copy of the parameters.
  ASSERT_EQ(engine.ops().size(), replica.ops().size());
  for (size_t i = 0; i < engine.ops().size(); ++i) {
    const infer::Op& a = engine.ops()[i];
    const infer::Op& b = replica.ops()[i];
    if (a.weight.defined()) {
      EXPECT_EQ(a.weight.data(), b.weight.data());
    }
    if (a.bias.defined()) {
      EXPECT_EQ(a.bias.data(), b.bias.data());
    }
    if (a.w1.defined()) {
      EXPECT_EQ(a.w1.data(), b.w1.data());
    }
    if (a.half_kernel.defined()) {
      EXPECT_EQ(a.half_kernel.data(), b.half_kernel.data());
    }
    if (a.bn_gamma.defined()) {
      EXPECT_EQ(a.bn_gamma.data(), b.bn_gamma.data());
    }
  }
  EXPECT_GT(engine.weight_bytes(), 0);
  EXPECT_EQ(engine.weight_bytes(), replica.weight_bytes());

  // One shared cache: a shape compiled through the ORIGINAL is a warm hit on
  // the REPLICA, returning the very same program object.
  const Shape shape{4, 1, 3, 14, 14};
  auto via_original = engine.program(shape);
  const int64_t misses = engine.cache_stats().misses;
  auto via_replica = replica.program(shape);
  EXPECT_EQ(via_original.get(), via_replica.get());
  EXPECT_EQ(replica.cache_stats().misses, misses) << "replica recompiled";

  // Cached metadata stays far below the (shared) weight footprint.
  EXPECT_LT(engine.cache_stats().bytes, engine.weight_bytes());
}

TEST(PlanCacheTest, FailedCompileIsNotCached) {
  // The HTT schedule covers T=4; T=8 cannot be laid out. The error must
  // surface on every attempt (no cached-exception poisoning) and must leave
  // no residue in the cache.
  infer::Engine engine = make_engine(TTMode::kHTT);
  const Shape bad{8, 1, 3, 8, 8};

  const infer::ProgramCacheStats before = engine.cache_stats();
  EXPECT_THROW(engine.program(bad), Error);
  infer::ProgramCacheStats mid = engine.cache_stats();
  EXPECT_EQ(mid.entries, before.entries);
  EXPECT_EQ(mid.misses, before.misses + 1);
  EXPECT_THROW(engine.program(bad), Error);  // retried, not replayed
  EXPECT_EQ(engine.cache_stats().misses, before.misses + 2);

  // The engine still serves good shapes afterwards.
  Rng rng(10);
  Tensor y = engine.run(Tensor::uniform({4, 1, 3, 8, 8}, rng));
  EXPECT_EQ(y.size(0), 4);
}

TEST(PlanCacheTest, SummaryReportsCacheResidencyAndSharedWeights) {
  infer::Engine engine = make_engine(TTMode::kPTT);
  engine.program({4, 1, 3, 8, 8});
  engine.program({4, 1, 3, 12, 12});

  const std::string s = engine.summary();
  EXPECT_NE(s.find("plan cache: 2 shape(s)"), std::string::npos) << s;
  EXPECT_NE(s.find("hits"), std::string::npos) << s;
  EXPECT_NE(s.find("evictions"), std::string::npos) << s;
  EXPECT_NE(s.find("weights: "), std::string::npos) << s;
  EXPECT_NE(s.find("shared across all cached shapes"), std::string::npos) << s;
}

}  // namespace
}  // namespace ttsnn
