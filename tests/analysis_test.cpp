// Tests for the static-analysis pass pipeline over the plan IR
// (infer/analysis.h): the verifier must reject hand-built malformed plans
// with a diagnostic naming the offending op; the liveness/alias pass must
// mark kFlatten views and in-place-safe ops; the memory planner must catch
// concrete-shape geometry errors before any kernel runs; and — the hard
// acceptance bar — in every TT mode the exact plan must be bit-identical to
// eval-mode Module::forward, every plan's layout must be sound (no two live
// values share bytes; tests/layout_check.h), and a caller that reuses its
// workspace must see exactly one allocation per call.

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/ttconv.h"
#include "infer/analysis.h"
#include "infer/engine.h"
#include "infer/plan_cache.h"
#include "layout_check.h"
#include "model_gen.h"
#include "nn/batchnorm.h"
#include "nn/containers.h"
#include "nn/conv2d.h"
#include "nn/lif.h"
#include "nn/linear.h"
#include "nn/pooling.h"
#include "tensor/arena.h"
#include "tensor/ops.h"

namespace ttsnn {
namespace {

using infer::Op;

Op conv_op(int in, int out, int64_t in_c, int64_t out_c, int64_t k = 3) {
  Op op;
  op.kind = Op::Kind::kConv;
  op.in = in;
  op.out = out;
  op.conv.in_channels = in_c;
  op.conv.out_channels = out_c;
  op.conv.kernel_h = k;
  op.conv.kernel_w = k;
  op.weight = Tensor::zeros({out_c, in_c, k, k});
  return op;
}

/// Runs the verifier on a hand-built plan and returns the diagnostic ("" when
/// the plan verifies).
std::string verify_error(const std::vector<Op>& ops, int num_regs,
                         int result_reg) {
  try {
    infer::analyze_plan(ops, num_regs, result_reg);
  } catch (const Error& e) {
    return e.what();
  }
  return {};
}

void expect_contains(const std::string& msg, const std::string& needle) {
  EXPECT_NE(msg.find(needle), std::string::npos)
      << "diagnostic was: \"" << msg << "\", expected to contain \"" << needle
      << "\"";
}

TEST(PlanVerifierTest, AcceptsAWellFormedPlan) {
  std::vector<Op> ops;
  ops.push_back(conv_op(0, 1, 3, 4));
  ops.push_back(conv_op(1, 2, 4, 4));
  EXPECT_EQ(verify_error(ops, 3, 2), "");
}

TEST(PlanVerifierTest, RejectsUseBeforeDef) {
  std::vector<Op> ops;
  ops.push_back(conv_op(1, 2, 4, 4));  // r1 is never written before this read
  ops.push_back(conv_op(0, 1, 3, 4));
  const std::string msg = verify_error(ops, 3, 2);
  expect_contains(msg, "op 0");
  expect_contains(msg, "before it is written");
}

TEST(PlanVerifierTest, RejectsOutOfRangeRegister) {
  std::vector<Op> ops;
  ops.push_back(conv_op(7, 1, 3, 4));
  expect_contains(verify_error(ops, 2, 1), "out of range");
  ops.clear();
  ops.push_back(conv_op(0, 9, 3, 4));
  expect_contains(verify_error(ops, 2, 1), "out of range");
}

TEST(PlanVerifierTest, RejectsASecondWriterPerRegister) {
  std::vector<Op> ops;
  Op a = conv_op(0, 1, 3, 4);
  a.label = "first-writer";
  Op b = conv_op(0, 1, 3, 4);
  b.label = "second-writer";
  ops.push_back(a);
  ops.push_back(b);
  const std::string msg = verify_error(ops, 2, 1);
  expect_contains(msg, "already written");
  expect_contains(msg, "second-writer");  // diagnostics carry the op label
}

TEST(PlanVerifierTest, RejectsWritingTheInputRegister) {
  std::vector<Op> ops;
  ops.push_back(conv_op(0, 0, 3, 3));
  expect_contains(verify_error(ops, 1, 0), "r0 is the input");
}

TEST(PlanVerifierTest, RejectsANeverReadOutput) {
  std::vector<Op> ops;
  ops.push_back(conv_op(0, 1, 3, 4));  // r1 is dead: never read, not result
  ops.push_back(conv_op(0, 2, 3, 4));
  expect_contains(verify_error(ops, 3, 2), "never read");
}

TEST(PlanVerifierTest, RejectsANeverWrittenRegister) {
  std::vector<Op> ops;
  ops.push_back(conv_op(0, 1, 3, 4));
  expect_contains(verify_error(ops, 3, 1), "never written");
}

TEST(PlanVerifierTest, RejectsSecondInputOnNonAddOps) {
  std::vector<Op> ops;
  ops.push_back(conv_op(0, 1, 3, 4));
  ops.back().in2 = 0;
  expect_contains(verify_error(ops, 2, 1), "second input");
}

TEST(PlanVerifierTest, RejectsMissingHttHalfKernel) {
  // A merged HTT conv: the schedule makes the half-step kernel mandatory.
  Op op = conv_op(0, 1, 4, 8);
  op.tt.mode = TTMode::kHTT;
  op.tt.full_step = {true, false};
  op.half_conv.in_channels = 4;
  op.half_conv.out_channels = 8;
  op.half_conv.kernel_h = 1;
  op.half_conv.kernel_w = 1;
  op.label = "layer2.htt";
  // half_kernel deliberately left undefined.
  const std::string msg = verify_error({op}, 2, 1);
  expect_contains(msg, "missing its merged half-step kernel");
  expect_contains(msg, "layer2.htt");
}

TEST(PlanVerifierTest, RejectsIncompleteAffineFieldGroup) {
  Op op;
  op.kind = Op::Kind::kAffine;
  op.in = 0;
  op.out = 1;
  op.bn_gamma = Tensor::zeros({4});
  op.bn_beta = Tensor::zeros({4});
  op.bn_mean = Tensor::zeros({4});
  // bn_inv_std deliberately left undefined.
  expect_contains(verify_error({op}, 2, 1), "missing bn_inv_std");
}

TEST(PlanVerifierTest, RejectsChannelMismatchBetweenProducerAndConsumer) {
  std::vector<Op> ops;
  ops.push_back(conv_op(0, 1, 3, 4));
  ops.push_back(conv_op(1, 2, 8, 4));  // expects 8 channels, gets 4
  const std::string msg = verify_error(ops, 3, 2);
  expect_contains(msg, "op 1");
  expect_contains(msg, "channels mismatch");
}

TEST(PlanVerifierTest, RejectsRankMismatchedResidualOperands) {
  std::vector<Op> ops;
  ops.push_back(conv_op(0, 1, 3, 4));
  Op flat;
  flat.kind = Op::Kind::kFlatten;
  flat.in = 1;
  flat.out = 2;
  ops.push_back(flat);
  Op add;
  add.kind = Op::Kind::kAdd;
  add.in = 1;
  add.in2 = 2;
  add.out = 3;
  ops.push_back(add);  // [T,N,C,H,W] + [T,N,F]: rank mismatch
  expect_contains(verify_error(ops, 4, 3), "rank mismatch");
}

TEST(PlanVerifierTest, RejectsConvWeightShapeMismatch) {
  Op op = conv_op(0, 1, 3, 4);
  op.weight = Tensor::zeros({4, 3, 5, 5});  // geometry says 3x3
  expect_contains(verify_error({op}, 2, 1), "does not match geometry");
}

// ---- concrete-shape (plan_memory) diagnostics ------------------------------

TEST(MemoryPlanTest, RejectsIndivisiblePoolAtPlanTime) {
  Op pool;
  pool.kind = Op::Kind::kAvgPool;
  pool.pool_kernel = 2;
  pool.in = 0;
  pool.out = 1;
  const infer::PlanAnalysis an = infer::analyze_plan({pool}, 2, 1);
  EXPECT_THROW(infer::plan_memory({pool}, an, {2, 1, 3, 7, 7}), Error);
  EXPECT_NO_THROW(infer::plan_memory({pool}, an, {2, 1, 3, 8, 8}));
}

TEST(MemoryPlanTest, RejectsWrongTebnTimestepsAtPlanTime) {
  Op aff;
  aff.kind = Op::Kind::kAffine;
  aff.in = 0;
  aff.out = 1;
  aff.bn_mode = BatchNorm::Mode::kTebn;
  aff.bn_timesteps = 4;
  aff.bn_gamma = Tensor::zeros({3});
  aff.bn_beta = Tensor::zeros({3});
  aff.bn_mean = Tensor::zeros({3});
  aff.bn_inv_std = Tensor::zeros({3});
  aff.bn_step_scale = Tensor::zeros({4});
  const infer::PlanAnalysis an = infer::analyze_plan({aff}, 2, 1);
  EXPECT_THROW(infer::plan_memory({aff}, an, {2, 1, 3, 8, 8}), Error);
  EXPECT_NO_THROW(infer::plan_memory({aff}, an, {4, 1, 3, 8, 8}));
}

TEST(MemoryPlanTest, RejectsShortHttScheduleAtPlanTime) {
  Op op = conv_op(0, 1, 3, 4);  // a merged HTT conv
  op.tt.mode = TTMode::kHTT;
  op.tt.full_step = {true, false};
  op.half_conv.in_channels = 3;
  op.half_conv.out_channels = 4;
  op.half_conv.kernel_h = 1;
  op.half_conv.kernel_w = 1;
  op.half_kernel = Tensor::zeros({4, 3, 1, 1});
  const infer::PlanAnalysis an = infer::analyze_plan({op}, 2, 1);
  EXPECT_THROW(infer::plan_memory({op}, an, {4, 1, 3, 8, 8}), Error);
  EXPECT_NO_THROW(infer::plan_memory({op}, an, {2, 1, 3, 8, 8}));
}

// An int8 merged HTT conv runs its timesteps one at a time, so its full and
// half kernels share one u8 tile, sized for the larger (the full kernel's).
TEST(MemoryPlanTest, Int8MergedHttConvTakesOneTile) {
  Rng rng(73);
  Sequential net;
  net.emplace<LIFNeuron>();
  net.emplace<TTConv2d>(
      TTConv2d::Options{.in_channels = 6, .out_channels = 8, .kernel = 3,
                        .rank = 3, .mode = TTMode::kHTT,
                        .full_step = {true, true, false, false}},
      rng);
  net.emplace<LIFNeuron>();
  net.set_training(false);
  const infer::Engine engine =
      infer::compile(net, {.weight_dtype = WeightDtype::kInt8});
  ASSERT_EQ(engine.num_ops(), 2U);
  const Op& op = engine.ops()[1];
  ASSERT_EQ(op.kind, Op::Kind::kConvLif);
  ASSERT_EQ(op.plane.dtype(), WeightDtype::kInt8);
  ASSERT_EQ(op.half_plane.dtype(), WeightDtype::kInt8);

  const int64_t n = 2, hw = 10 * 10;
  const infer::MemoryPlan plan =
      infer::plan_memory(engine.ops(), engine.analysis(), {4, n, 6, 10, 10});
  const int64_t membrane = n * 8 * hw;          // one step of the output
  const int64_t full_tile_bytes = 6 * 3 * 3 * hw;  // [C_in * K * K, OH * OW]
  EXPECT_EQ(plan.scratch_floats,
            infer::plan_align_up(membrane) +
                infer::plan_align_up((full_tile_bytes + 3) / 4));
}

// ---- liveness / alias / in-place -------------------------------------------

TEST(PlanAnalysisTest, MarksLifInPlaceWhenItsInputDies) {
  Rng rng(41);
  Sequential net;
  net.emplace<Conv2d>(Conv2d::Options{.in_channels = 3, .out_channels = 4},
                      rng);
  net.emplace<LIFNeuron>();
  net.emplace<Conv2d>(Conv2d::Options{.in_channels = 4, .out_channels = 4},
                      rng);
  net.set_training(false);
  // Fusion off: this test pins the UNFUSED alias/in-place facts (with fusion
  // the conv+lif pair collapses into one kConvLif op).
  infer::Engine engine = infer::compile(net, {.fuse_elementwise = false});
  ASSERT_EQ(engine.num_ops(), 3U);
  const infer::PlanAnalysis& an = engine.analysis();
  EXPECT_FALSE(an.is_inplace[0]);  // conv is never in-place
  EXPECT_TRUE(an.is_inplace[1]);   // LIF overwrites the conv output
  // In-place output shares its input's storage group, so the group's
  // workspace region is charged once.
  EXPECT_EQ(an.root[2], an.root[1]);
}

// ---- fusion pass -------------------------------------------------------------

TEST(FusionAnalysisTest, FusionCandidateRequiresASingleReader) {
  std::vector<Op> ops;
  ops.push_back(conv_op(0, 1, 3, 4));
  ops.push_back(conv_op(1, 2, 4, 4));
  ops.push_back(conv_op(2, 3, 4, 4));
  {
    const infer::PlanAnalysis an = infer::analyze_plan(ops, 4, 3);
    EXPECT_TRUE(infer::fusion_candidate(an, 1));   // read once, not result
    EXPECT_TRUE(infer::fusion_candidate(an, 2));
    EXPECT_FALSE(infer::fusion_candidate(an, 3));  // the result never fuses
  }
  // A residual join reading r1 through BOTH slots makes it a two-reader
  // register — never a fusion candidate.
  Op add;
  add.kind = Op::Kind::kAdd;
  add.in = 1;
  add.in2 = 1;
  add.out = 2;
  std::vector<Op> ops2;
  ops2.push_back(conv_op(0, 1, 3, 4));
  ops2.push_back(add);
  const infer::PlanAnalysis an = infer::analyze_plan(ops2, 3, 2);
  EXPECT_EQ(an.reads[1], 2);
  EXPECT_FALSE(infer::fusion_candidate(an, 1));
}

TEST(FusionAnalysisTest, ConvLifChainCollapsesToOneOp) {
  Rng rng(41);
  Sequential net;
  net.emplace<Conv2d>(Conv2d::Options{.in_channels = 3, .out_channels = 4},
                      rng);
  net.emplace<LIFNeuron>();
  net.emplace<Conv2d>(Conv2d::Options{.in_channels = 4, .out_channels = 4},
                      rng);
  net.set_training(false);
  infer::Engine engine = infer::compile(net);
  ASSERT_EQ(engine.num_ops(), 2U);
  EXPECT_EQ(engine.ops()[0].kind, Op::Kind::kConvLif);
  EXPECT_EQ(engine.ops()[1].kind, Op::Kind::kConv);
  // Register numbering stays dense after the dead producer is compacted out.
  EXPECT_EQ(engine.num_regs(), 3);
  EXPECT_EQ(engine.ops()[0].out, 1);
  EXPECT_EQ(engine.ops()[1].in, 1);
  // The summary advertises the fusion for plan-lint consumers.
  EXPECT_NE(engine.summary().find("fused ops: 1 (conv+lif x1)"),
            std::string::npos)
      << engine.summary();
}

TEST(FusionAnalysisTest, FusedPlansVerifyAndStayBitIdentical) {
  // Randomized sweep (replayable via TTSNN_TEST_SEED / bounded via
  // TTSNN_FUZZ_ITERS): every generated model must compile under the verifier
  // with fusion on AND off, never emit fused kinds when the pass is off, and
  // the two engines must agree bit-for-bit.
  const uint64_t base = testgen::suite_seed(0xa11a5);
  const int iters = testgen::seed_pinned() ? 1 : testgen::iteration_budget(6);
  for (int i = 0; i < iters; ++i) {
    const uint64_t seed = base + static_cast<uint64_t>(i);
    SCOPED_TRACE(testgen::seed_line(seed));
    const testgen::GeneratedModel gm = testgen::random_model(seed);
    SCOPED_TRACE(gm.desc);
    infer::Engine fused = infer::compile(*gm.net);
    infer::Engine plain = infer::compile(*gm.net, {.fuse_elementwise = false});
    for (const Op& op : plain.ops()) {
      EXPECT_TRUE(op.kind != Op::Kind::kConvLif &&
                  op.kind != Op::Kind::kAffineLif &&
                  op.kind != Op::Kind::kAddLif &&
                  op.kind != Op::Kind::kAffineAdd)
          << plain.summary();
    }
    EXPECT_LE(fused.num_ops(), plain.num_ops());
    Rng rng(seed ^ 0x5eed);
    Tensor x = Tensor::uniform(gm.input, rng);
    EXPECT_EQ(max_abs_diff(fused.run(x), plain.run(x)), 0.0)
        << fused.summary();
    if (::testing::Test::HasFailure()) return;
  }
}

/// True when a and b have the same shape and the same bits in every float.
bool bit_equal(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     sizeof(float) * static_cast<size_t>(a.numel())) == 0;
}

TEST(FusionAnalysisTest, AffineOnSecondAddOperandStaysBitIdentical) {
  // A residual join whose affine operand sits in the add's SECOND slot (the
  // shortcut's BatchNorm). The fused kAffineAdd takes the affine's input as
  // its first operand and the body's output as in2, so it adds the join's
  // operands in the reverse of the unfused order; IEEE-754 addition is
  // commutative, so the bits must not move.
  Rng rng(43);
  auto body = std::make_unique<Sequential>();
  body->emplace<LIFNeuron>();
  body->emplace<Conv2d>(Conv2d::Options{.in_channels = 4, .out_channels = 4},
                        rng);
  auto shortcut = std::make_unique<Sequential>();
  shortcut->emplace<Conv2d>(Conv2d::Options{.in_channels = 4,
                                            .out_channels = 4,
                                            .kernel_h = 1,
                                            .kernel_w = 1},
                            rng);
  shortcut->emplace<BatchNorm>(BatchNorm::Options{.channels = 4});
  Sequential net;
  net.add(std::make_unique<Residual>(std::move(body), std::move(shortcut)));
  // Move the running stats off their initial values before serving.
  net.set_training(true);
  net.forward(Tensor::uniform({2, 2, 4, 6, 6}, rng, -1.0F, 2.0F));
  net.clear_cache();
  net.set_training(false);

  const infer::Engine fused =
      infer::compile(net, {.merge_tt = false, .fold_batchnorm = false});
  const infer::Engine unfused = infer::compile(
      net,
      {.merge_tt = false, .fold_batchnorm = false, .fuse_elementwise = false});
  int body_reg = -1;
  const Op* join = nullptr;
  int joins = 0;
  for (const Op& op : fused.ops()) {
    if (op.kind == Op::Kind::kConv && op.conv.kernel_h == 3) body_reg = op.out;
    if (op.kind == Op::Kind::kAffineAdd) {
      join = &op;
      ++joins;
    }
  }
  ASSERT_GE(body_reg, 0) << fused.summary();
  ASSERT_EQ(joins, 1) << fused.summary();
  EXPECT_EQ(join->in2, body_reg) << fused.summary();
  EXPECT_EQ(join->out, fused.result_reg()) << fused.summary();

  Tensor x = Tensor::uniform({3, 2, 4, 6, 6}, rng, -1.0F, 2.0F);
  const Tensor want = net.forward(x);
  net.clear_cache();
  const Tensor got_fused = fused.run(x);
  const Tensor got_unfused = unfused.run(x);
  EXPECT_TRUE(bit_equal(got_fused, want)) << fused.summary();
  EXPECT_TRUE(bit_equal(got_unfused, want)) << unfused.summary();
}

TEST(PlanAnalysisTest, LiveRangesMatchTheDataflow) {
  std::vector<Op> ops;
  ops.push_back(conv_op(0, 1, 3, 4));
  ops.push_back(conv_op(1, 2, 4, 4));
  ops.push_back(conv_op(2, 3, 4, 4));
  const infer::PlanAnalysis an = infer::analyze_plan(ops, 4, 3);
  EXPECT_EQ(an.live[0].def, -1);  // the input has no writer
  EXPECT_EQ(an.live[0].last_use, 0);
  EXPECT_EQ(an.live[1].def, 0);
  EXPECT_EQ(an.live[1].last_use, 1);
  EXPECT_EQ(an.live[3].def, 2);
  EXPECT_EQ(an.live[3].last_use, -1);  // the result is read by the caller
}

// ---- planned executor: bit identity + allocation behavior ------------------

// The hand-rolled "trained model" fixture this suite used to carry moved to
// the shared tests/model_gen.h (testgen::trained_resnet18), which the fuzz
// and property suites reuse.

class PlannedModeTest : public ::testing::TestWithParam<TTMode> {};

TEST_P(PlannedModeTest, ExactRunBitIdenticalToModuleAndLayoutsSound) {
  Rng rng(42);
  ModulePtr net = testgen::trained_resnet18(GetParam(), rng);
  const infer::Engine exact =
      infer::compile(*net, {.merge_tt = false, .fold_batchnorm = false});
  const infer::Engine merged = infer::compile(*net);
  // Two shapes through the same engines: the plan cache must lay out (and
  // execute) each one correctly.
  for (const Shape& s : {Shape{4, 2, 3, 8, 8}, Shape{4, 1, 3, 12, 12}}) {
    SCOPED_TRACE(std::string(tt_mode_name(GetParam())) + " " + shape_str(s));
    Tensor x = Tensor::uniform(s, rng);
    Tensor want = net->forward(x);
    net->clear_cache();
    Tensor got = exact.run(x);
    ASSERT_EQ(got.shape(), want.shape());
    EXPECT_EQ(max_abs_diff(got, want), 0.0);
    EXPECT_EQ(merged.run(x).shape(), want.shape());
    testgen::expect_layout_sound(exact, s);
    testgen::expect_layout_sound(merged, s);
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, PlannedModeTest,
                         ::testing::Values(TTMode::kSTT, TTMode::kPTT,
                                           TTMode::kHTT),
                         [](const auto& info) {
                           return tt_mode_name(info.param);
                         });

// TEBN keeps a standalone kAffine op (per-timestep scale); the planned
// executor must run it — possibly in place — with identical bits.
TEST(PlannedRunTest, TebnAffineBitIdentical) {
  Rng rng(43);
  ModelConfig cfg;
  cfg.in_channels = 3;
  cfg.num_classes = 4;
  cfg.base_width = 8;
  cfg.timesteps = 4;
  cfg.bn_mode = BatchNorm::Mode::kTebn;
  ModulePtr net = make_vgg9(cfg, rng);
  net->set_training(true);
  net->forward(Tensor::uniform({4, 2, 3, 8, 8}, rng));
  net->clear_cache();
  net->set_training(false);

  Tensor x = Tensor::uniform({4, 2, 3, 8, 8}, rng);
  Tensor y_ref = net->forward(x);
  infer::Engine planned = infer::compile(*net);
  EXPECT_EQ(max_abs_diff(planned.run(x), y_ref), 0.0);
}

TEST(PlannedRunTest, WorkspaceReuseIsBitIdenticalAndSingleAllocation) {
  Rng rng(44);
  ModulePtr net = testgen::trained_resnet18(TTMode::kPTT, rng);
  infer::Engine engine = infer::compile(*net);
  Tensor x = Tensor::uniform({4, 2, 3, 8, 8}, rng);
  Tensor golden = engine.run(x);

  Tensor ws;
  Tensor y1 = engine.run(x, ws);  // lays out the plan, allocates ws
  ASSERT_TRUE(ws.defined());
  EXPECT_EQ(ws.numel(), engine.memory_plan(x.shape())->total_floats);

  // Steady state: the workspace is reused, so the only storage acquisition
  // left is the caller-owned result tensor.
  Arena::instance().reset_stats();
  Tensor y2 = engine.run(x, ws);
  const ArenaStats stats = Arena::instance().stats();
  EXPECT_EQ(stats.hits + stats.misses, 1);

  EXPECT_EQ(max_abs_diff(y1, golden), 0.0);
  EXPECT_EQ(max_abs_diff(y2, golden), 0.0);
}

TEST(PlannedRunTest, EngineCopiesShareThePlanCache) {
  Rng rng(45);
  ModulePtr net = testgen::trained_resnet18(TTMode::kSTT, rng);
  infer::Engine engine = infer::compile(*net);
  infer::Engine replica = engine;  // what Router shards do
  const Shape s{4, 1, 3, 8, 8};
  EXPECT_EQ(engine.memory_plan(s).get(), replica.memory_plan(s).get());

  Tensor x = Tensor::uniform(s, rng);
  EXPECT_EQ(max_abs_diff(engine.run(x), replica.run(x)), 0.0);
}

TEST(PlannedRunTest, PlanPacksBelowTheUnplannedFootprint) {
  Rng rng(46);
  ModulePtr net = testgen::trained_resnet18(TTMode::kHTT, rng);
  infer::Engine engine = infer::compile(*net);
  const Shape s{4, 2, 3, 8, 8};
  const auto plan = engine.memory_plan(s);
  EXPECT_GT(plan->total_floats, 0);
  // Liveness-aware packing must beat allocate-everything (one buffer per op
  // output) on any multi-layer plan.
  EXPECT_LT(plan->total_floats, plan->unplanned_floats);
  // The report renders and carries the totals.
  const std::string report = engine.summary(s);
  EXPECT_NE(report.find("workspace:"), std::string::npos);
}

TEST(PlannedRunTest, FlattenLowersToAnAliasAndStaysBitIdentical) {
  Rng rng(47);
  Sequential net;
  net.emplace<Conv2d>(Conv2d::Options{.in_channels = 3, .out_channels = 4},
                      rng);
  net.emplace<LIFNeuron>();
  net.emplace<Flatten>();
  net.emplace<Linear>(4 * 6 * 6, 5, rng);
  net.set_training(false);
  infer::Engine engine = infer::compile(net);

  const infer::PlanAnalysis& an = engine.analysis();
  const auto& ops = engine.ops();
  bool saw_alias = false;
  for (size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].kind == infer::Op::Kind::kFlatten) {
      EXPECT_TRUE(an.is_alias[i]);  // a view, not a copy
      saw_alias = true;
    }
  }
  EXPECT_TRUE(saw_alias);

  Tensor x = Tensor::uniform({2, 2, 3, 6, 6}, rng);
  Tensor y_ref = net.forward(x);
  EXPECT_EQ(max_abs_diff(engine.run(x), y_ref), 0.0);
}

// The engine's kernels check no input: every shape the plan cannot serve
// must be rejected when Engine::run compiles the program for it, before any
// kernel runs, and must leave no program in the cache.
TEST(PlannedRunTest, RunRejectsUnservableInputsBeforeAnyKernel) {
  Rng rng(48);
  Sequential net;
  net.emplace<Conv2d>(Conv2d::Options{.in_channels = 3, .out_channels = 4},
                      rng);
  net.emplace<BatchNorm>(BatchNorm::Options{
      .channels = 4, .mode = BatchNorm::Mode::kTebn, .timesteps = 2});
  net.emplace<LIFNeuron>();
  net.emplace<AvgPool2d>(2);
  net.emplace<Flatten>();
  net.emplace<Linear>(4 * 4 * 4, 3, rng);
  net.set_training(false);

  for (const infer::CompileOptions& opts :
       {infer::CompileOptions{.merge_tt = false, .fold_batchnorm = false},
        infer::CompileOptions{.fold_batchnorm = true}}) {
    const infer::Engine engine = infer::compile(net, opts);
    Tensor ok = Tensor::uniform({2, 1, 3, 8, 8}, rng);
    EXPECT_EQ(max_abs_diff(engine.run(ok), net.forward(ok)), 0.0);
    const int64_t entries = engine.cache_stats().entries;
    ASSERT_EQ(entries, 1);
    for (const Shape& bad : {Shape{2, 1, 2, 8, 8},     // channels
                             Shape{2, 1, 3, 12, 12},   // head's in-features
                             Shape{2, 1, 3, 7, 7},     // pool divisibility
                             Shape{3, 1, 3, 8, 8}}) {  // TEBN's T
      SCOPED_TRACE(shape_str(bad));
      EXPECT_THROW(engine.run(Tensor::uniform(bad, rng)), Error);
      EXPECT_EQ(engine.cache_stats().entries, entries);
    }
  }
}

}  // namespace
}  // namespace ttsnn
