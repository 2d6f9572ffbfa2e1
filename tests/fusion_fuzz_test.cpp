// Fuzz harness for the elementwise-fusion pass (infer/compile.cpp): seeded
// random module trees — depth, channels, TT mode (none/stt/ptt/htt), stride,
// BN flavor (incl. TEBN), pool placement — each compiled with fusion on and
// off, in both the exact and the merged lowering, asserting BIT-identical
// outputs against eval-mode Module::forward and a sound memory layout for
// every engine (tests/layout_check.h). Any failure prints the exact
// TTSNN_TEST_SEED line that replays the sample plus the fused plan summary.
//
// Environment:
//  - TTSNN_TEST_SEED=<n>  replay exactly one sample
//  - TTSNN_FUZZ_ITERS=<n> bound the sweep (sanitizer CI jobs)

#include <string>

#include <gtest/gtest.h>

#include "infer/engine.h"
#include "layout_check.h"
#include "model_gen.h"
#include "tensor/ops.h"

namespace ttsnn {
namespace {

/// The four fused kinds, in the order of FusedCounts::n.
constexpr infer::Op::Kind kFusedKinds[4] = {
    infer::Op::Kind::kConvLif, infer::Op::Kind::kAffineLif,
    infer::Op::Kind::kAddLif, infer::Op::Kind::kAffineAdd};

/// Fused ops per kind, summed over the engines added.
struct FusedCounts {
  int64_t n[4] = {0, 0, 0, 0};

  void add(const infer::Engine& engine) {
    for (const infer::Op& op : engine.ops()) {
      for (int k = 0; k < 4; ++k) {
        if (op.kind == kFusedKinds[k]) ++n[k];
      }
    }
  }
  void add(const FusedCounts& other) {
    for (int k = 0; k < 4; ++k) n[k] += other.n[k];
  }
  int64_t total() const { return n[0] + n[1] + n[2] + n[3]; }
};

FusedCounts count_fused(const infer::Engine& engine) {
  FusedCounts c;
  c.add(engine);
  return c;
}

/// One sample: ground truth from eval Module::forward, then four engines —
/// {exact, merged} x {fusion on, fusion off}. The exact lowerings must match
/// the module bit-for-bit; the merged pair must match each other bit-for-bit;
/// all four must lay out soundly. Returns the fused ops per kind so the sweep
/// can assert every kind actually fired.
FusedCounts check_sample(uint64_t seed, const testgen::GeneratedModel& gm) {
  SCOPED_TRACE(testgen::seed_line(seed));
  SCOPED_TRACE(gm.desc);

  Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);  // input stream independent of gen
  Tensor x = Tensor::uniform(gm.input, rng);
  Tensor want = gm.net->forward(x);
  gm.net->clear_cache();

  const infer::CompileOptions exact_on{.merge_tt = false,
                                       .fold_batchnorm = false};
  const infer::CompileOptions exact_off{.merge_tt = false,
                                        .fold_batchnorm = false,
                                        .fuse_elementwise = false};
  infer::Engine e_on = infer::compile(*gm.net, exact_on);
  infer::Engine e_off = infer::compile(*gm.net, exact_off);
  Tensor y_on = e_on.run(x);
  Tensor y_off = e_off.run(x);
  EXPECT_EQ(y_on.shape(), want.shape());
  EXPECT_EQ(max_abs_diff(y_off, want), 0.0)
      << "exact lowering (fusion OFF) drifted from Module::forward\n"
      << e_off.summary();
  EXPECT_EQ(max_abs_diff(y_on, want), 0.0)
      << "exact lowering (fusion ON) drifted from Module::forward\n"
      << e_on.summary();

  infer::Engine m_on = infer::compile(*gm.net);
  infer::Engine m_off =
      infer::compile(*gm.net, {.fuse_elementwise = false});
  Tensor z_on = m_on.run(x);
  Tensor z_off = m_off.run(x);
  EXPECT_EQ(z_on.shape(), z_off.shape());
  EXPECT_EQ(max_abs_diff(z_on, z_off), 0.0)
      << "merged lowering: fusion ON vs OFF drifted\n"
      << m_on.summary();

  // Fusion must never appear with the pass disabled.
  EXPECT_EQ(count_fused(e_off).total(), 0) << e_off.summary();
  EXPECT_EQ(count_fused(m_off).total(), 0) << m_off.summary();

  for (const infer::Engine* e : {&e_on, &e_off, &m_on, &m_off}) {
    testgen::expect_layout_sound(*e, gm.input);
  }
  FusedCounts fired = count_fused(e_on);
  fired.add(m_on);
  return fired;
}

TEST(FusionFuzzTest, RandomModelsBitIdenticalFusedAndUnfused) {
  const uint64_t base = testgen::suite_seed(0x77f5a11);
  const int iters =
      testgen::seed_pinned() ? 1 : testgen::iteration_budget(200);
  FusedCounts fused;
  bool saw_mode[4] = {false, false, false, false};
  for (int i = 0; i < iters; ++i) {
    const uint64_t seed = base + static_cast<uint64_t>(i);
    const testgen::GeneratedModel gm = testgen::random_model(seed);
    fused.add(check_sample(seed, gm));
    if (::testing::Test::HasFailure()) {
      // One failing sample is enough; its seed line is already in the trace.
      ADD_FAILURE() << "stopping the sweep after the first failing sample; "
                    << testgen::seed_line(seed);
      return;
    }
    const char* names[4] = {"tt=none", "tt=stt", "tt=ptt", "tt=htt"};
    for (int m = 0; m < 4; ++m) {
      if (gm.desc.find(names[m]) != std::string::npos) saw_mode[m] = true;
    }
  }
  if (!testgen::seed_pinned() && iters >= 100) {
    // The seeded generator must exercise every TT mode across a full sweep,
    // and the pass must have fused real chains of every fused kind.
    EXPECT_TRUE(saw_mode[0] && saw_mode[1] && saw_mode[2] && saw_mode[3])
        << "generator failed to cover all TT modes in " << iters << " samples";
    for (int k = 0; k < 4; ++k) {
      EXPECT_GT(fused.n[k], 0)
          << infer::op_kind_name(kFusedKinds[k]) << " never fired across the "
          << iters << "-sample sweep";
    }
  }
}

}  // namespace
}  // namespace ttsnn
