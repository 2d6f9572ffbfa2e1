// Tests for TTConv2d, the paper's core contribution: shape behaviour across
// STT/PTT/HTT, end-to-end gradient checks in every mode, thread-parallel
// branch determinism, HTT training pinned bitwise against the gathered
// per-class algorithm the per-step pipeline replaced, and the merge
// equivalences of Eq. (6) — factorized training output must match the
// merged dense kernel EXACTLY (the property that lets TT-SNN fall back to
// spike-driven inference after training).

#include <string>

#include <gtest/gtest.h>

#include "core/ttconv.h"
#include "gradcheck.h"
#include "nn/conv2d.h"
#include "step_gather.h"
#include "tensor/ops.h"

namespace ttsnn {
namespace {

/// Every core's accumulated gradient agrees bitwise between a and b.
void expect_core_grads_equal(TTConv2d& a, TTConv2d& b) {
  EXPECT_EQ(max_abs_diff(a.w1().grad, b.w1().grad), 0.0);
  EXPECT_EQ(max_abs_diff(a.w2().grad, b.w2().grad), 0.0);
  EXPECT_EQ(max_abs_diff(a.w3().grad, b.w3().grad), 0.0);
  EXPECT_EQ(max_abs_diff(a.w4().grad, b.w4().grad), 0.0);
}

TEST(TTConvTest, OutputShapesAllModes) {
  Rng rng(1);
  for (TTMode mode : {TTMode::kSTT, TTMode::kPTT, TTMode::kHTT}) {
    TTConv2d::Options o{.in_channels = 4, .out_channels = 6, .kernel = 3,
                        .stride = 1, .rank = 3, .mode = mode,
                        .full_step = std::vector<bool>{true, false}};
    TTConv2d conv(o, rng);
    Tensor x = Tensor::randn({2, 2, 4, 6, 6}, rng);
    Tensor y = conv.forward(x);
    EXPECT_EQ(y.shape(), (Shape{2, 2, 6, 6, 6})) << tt_mode_name(mode);
  }
}

TEST(TTConvTest, StridedOutputShapesAllModes) {
  Rng rng(2);
  for (TTMode mode : {TTMode::kSTT, TTMode::kPTT, TTMode::kHTT}) {
    TTConv2d::Options o{.in_channels = 4, .out_channels = 8, .kernel = 3,
                        .stride = 2, .rank = 3, .mode = mode,
                        .full_step = std::vector<bool>{true, false}};
    TTConv2d conv(o, rng);
    Tensor x = Tensor::randn({2, 1, 4, 8, 8}, rng);
    Tensor y = conv.forward(x);
    EXPECT_EQ(y.shape(), (Shape{2, 1, 8, 4, 4})) << tt_mode_name(mode);
  }
}

class TTConvGradTest
    : public ::testing::TestWithParam<std::tuple<TTMode, int64_t>> {};

TEST_P(TTConvGradTest, GradCheckInputAndCores) {
  auto [mode, stride] = GetParam();
  Rng rng(3);
  TTConv2d::Options o{.in_channels = 3, .out_channels = 4, .kernel = 3,
                      .stride = stride, .rank = 2, .mode = mode,
                      .full_step = std::vector<bool>{true, false, false},
                      .parallel_branches = false};
  TTConv2d conv(o, rng);
  Tensor x = Tensor::randn({3, 1, 3, 6, 6}, rng);
  const int64_t oh = stride == 1 ? 6 : 3;
  Tensor w = Tensor::randn({3, 1, 4, oh, oh}, rng);
  check_input_grad(conv, x, w);
  check_param_grads(conv, x, w);
}

INSTANTIATE_TEST_SUITE_P(
    ModesAndStrides, TTConvGradTest,
    ::testing::Combine(::testing::Values(TTMode::kSTT, TTMode::kPTT,
                                         TTMode::kHTT),
                       ::testing::Values<int64_t>(1, 2)));

TEST(TTConvTest, ParallelBranchesMatchSerial) {
  // The two strip branches run as pool tasks, each through the shared conv
  // lowering with its own buffers, so the output and every gradient must
  // match the serial run bit for bit — in PTT, on an HTT {1,0} schedule and
  // on a stride-2 HTT layer.
  struct Case {
    const char* name;
    TTMode mode;
    int64_t stride;
    std::vector<bool> full_step;
  };
  const Case cases[] = {{"PTT", TTMode::kPTT, 1, {}},
                        {"HTT {1,0}", TTMode::kHTT, 1, {true, false}},
                        {"HTT {1,0} stride 2", TTMode::kHTT, 2, {true, false}}};
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    Rng rng(4);
    TTConv2d::Options base{.in_channels = 6, .out_channels = 6, .kernel = 3,
                           .stride = c.stride, .rank = 4, .mode = c.mode,
                           .full_step = c.full_step,
                           .parallel_branches = false};
    TTConv2d::Options par = base;
    par.parallel_branches = true;

    TTConv2d serial(base, rng);
    TTConv2d parallel(par, serial.cores());
    Tensor x = Tensor::randn({2, 2, 6, 8, 8}, rng);
    Tensor ys = serial.forward(x);
    Tensor yp = parallel.forward(x);
    EXPECT_EQ(max_abs_diff(ys, yp), 0.0);

    Tensor g = Tensor::randn(ys.shape(), rng);
    Tensor gs = serial.backward(g);
    Tensor gp = parallel.backward(g);
    EXPECT_EQ(max_abs_diff(gs, gp), 0.0);
    expect_core_grads_equal(serial, parallel);
  }
}

/// Output, input grad and core grads of one training step of an HTT layer,
/// replayed test-side with the algorithm TTConv2d ran before its per-step
/// pipeline: w1 over every step; the full steps gathered into one tensor
/// that runs the PTT path (w2 and w3 strips, their sum, w4) and the half
/// steps into another that runs w4 with the layer stride; the outputs
/// scattered back. The backward mirrors it through conv2d_backward, so w4's
/// dW adds every full step's images before any half step's. The core
/// geometries are spelled out here rather than taken from the library.
struct GatheredHttStep {
  Tensor y, dx, dw1, dw2, dw3, dw4;
};

GatheredHttStep gathered_htt_step(const TTConv2d::Options& o,
                                  const TTCores& c, const Tensor& x,
                                  const Tensor& g) {
  using testgen::gather_steps;
  using testgen::scatter_steps;
  const int64_t r = c.rank, k = o.kernel, s = o.stride;
  const Conv2d::Options w1o{.in_channels = o.in_channels, .out_channels = r,
                            .kernel_h = 1, .kernel_w = 1};
  const Conv2d::Options w2o{.in_channels = r, .out_channels = r,
                            .kernel_h = k, .kernel_w = 1, .stride = s};
  const Conv2d::Options w3o{.in_channels = r, .out_channels = r,
                            .kernel_h = 1, .kernel_w = k, .stride = s};
  const Conv2d::Options w4o{.in_channels = r, .out_channels = o.out_channels,
                            .kernel_h = 1, .kernel_w = 1};
  Conv2d::Options w4_half = w4o;
  w4_half.stride = s;
  const std::vector<int64_t> full_idx =
      testgen::steps_where(o.full_step, x.size(0), true);
  const std::vector<int64_t> half_idx =
      testgen::steps_where(o.full_step, x.size(0), false);

  GatheredHttStep out;
  const Tensor o1 = conv2d_forward(x, c.w1, w1o);
  const Tensor full_x = gather_steps(o1, full_idx);
  const Tensor half_x = gather_steps(o1, half_idx);
  Tensor sum;
  Tensor y_full, y_half;
  if (full_x.defined()) {
    sum = conv2d_forward(full_x, c.w2, w2o);
    sum.add_(conv2d_forward(full_x, c.w3, w3o));
    y_full = conv2d_forward(sum, c.w4, w4o);
  }
  if (half_x.defined()) y_half = conv2d_forward(half_x, c.w4, w4_half);
  Shape y_shape = (y_full.defined() ? y_full : y_half).shape();
  y_shape[0] = x.size(0);
  out.y = Tensor::empty(y_shape);
  if (y_full.defined()) scatter_steps(out.y, y_full, full_idx);
  if (y_half.defined()) scatter_steps(out.y, y_half, half_idx);

  out.dw1 = Tensor(c.w1.shape());
  out.dw2 = Tensor(c.w2.shape());
  out.dw3 = Tensor(c.w3.shape());
  out.dw4 = Tensor(c.w4.shape());
  Tensor go(o1.shape());
  if (full_x.defined()) {
    const Tensor g_sum = conv2d_backward(sum, c.w4, w4o,
                                         gather_steps(g, full_idx), out.dw4);
    Tensor ga = conv2d_backward(full_x, c.w2, w2o, g_sum, out.dw2);
    ga.add_(conv2d_backward(full_x, c.w3, w3o, g_sum, out.dw3));
    scatter_steps(go, ga, full_idx);
  }
  if (half_x.defined()) {
    scatter_steps(go,
                  conv2d_backward(half_x, c.w4, w4_half,
                                  gather_steps(g, half_idx), out.dw4),
                  half_idx);
  }
  out.dx = conv2d_backward(x, c.w1, w1o, go, out.dw1);
  return out;
}

TEST(TTConvTest, HttTrainingMatchesGatheredReferenceBitwise) {
  // The per-step pipeline must reproduce the gathered algorithm bit for bit
  // in the output, the input grad and all four core grads: on schedules that
  // start full, alternate, and start half; at stride 1 and on the strided
  // half path; with the strips serial and as pool tasks.
  const std::vector<std::vector<bool>> schedules = {
      {true, true, false, false},
      {true, false, true, false},
      {false, true, true, false}};
  for (const std::vector<bool>& schedule : schedules) {
    for (int64_t stride : {1, 2}) {
      for (bool parallel : {false, true}) {
        std::string tag = "schedule ";
        for (bool full : schedule) tag += full ? "1" : "0";
        SCOPED_TRACE(tag + " stride " + std::to_string(stride) +
                     (parallel ? " parallel" : " serial"));
        Rng rng(30 + stride);
        TTConv2d conv({.in_channels = 6, .out_channels = 8, .kernel = 3,
                       .stride = stride, .rank = 4, .mode = TTMode::kHTT,
                       .full_step = schedule,
                       .parallel_branches = parallel},
                      rng);
        const Tensor x = Tensor::bernoulli({4, 2, 6, 8, 8}, rng, 0.3F);
        const Tensor y = conv.forward(x);
        const Tensor g = Tensor::randn(y.shape(), rng);
        const Tensor dx = conv.backward(g);

        const GatheredHttStep want =
            gathered_htt_step(conv.options(), conv.cores(), x, g);
        EXPECT_EQ(max_abs_diff(y, want.y), 0.0);
        EXPECT_EQ(max_abs_diff(dx, want.dx), 0.0);
        EXPECT_EQ(max_abs_diff(conv.w1().grad, want.dw1), 0.0);
        EXPECT_EQ(max_abs_diff(conv.w2().grad, want.dw2), 0.0);
        EXPECT_EQ(max_abs_diff(conv.w3().grad, want.dw3), 0.0);
        EXPECT_EQ(max_abs_diff(conv.w4().grad, want.dw4), 0.0);
      }
    }
  }
}

TEST(TTConvTest, HttHalfStepsSkipStrips) {
  // With an all-half schedule the strips must not contribute: zeroing w2/w3
  // must not change the output.
  Rng rng(5);
  TTConv2d::Options o{.in_channels = 4, .out_channels = 4, .kernel = 3,
                      .stride = 1, .rank = 3, .mode = TTMode::kHTT,
                      .full_step = std::vector<bool>{false, false}};
  TTConv2d conv(o, rng);
  Tensor x = Tensor::randn({2, 1, 4, 5, 5}, rng);
  Tensor y1 = conv.forward(x);
  conv.w2().value.zero_();
  conv.w3().value.zero_();
  Tensor y2 = conv.forward(x);
  EXPECT_LT(max_abs_diff(y1, y2), 1e-7);
}

TEST(TTConvTest, HttFullStepsMatchPtt) {
  // With an all-full schedule HTT is PTT: the same output, input grad and
  // core grads, bit for bit, at stride 1 and 2.
  for (int64_t stride : {1, 2}) {
    SCOPED_TRACE("stride " + std::to_string(stride));
    Rng rng(6);
    TTConv2d::Options po{.in_channels = 4, .out_channels = 5, .kernel = 3,
                         .stride = stride, .rank = 3, .mode = TTMode::kPTT};
    TTConv2d ptt(po, rng);
    TTConv2d::Options ho = po;
    ho.mode = TTMode::kHTT;
    ho.full_step = {true, true, true};
    TTConv2d htt(ho, ptt.cores());
    Tensor x = Tensor::randn({3, 2, 4, 5, 5}, rng);
    Tensor y = ptt.forward(x);
    EXPECT_EQ(max_abs_diff(y, htt.forward(x)), 0.0);

    Tensor g = Tensor::randn(y.shape(), rng);
    EXPECT_EQ(max_abs_diff(ptt.backward(g), htt.backward(g)), 0.0);
    expect_core_grads_equal(ptt, htt);
  }
}

TEST(TTConvTest, HttScheduleMixesPaths) {
  // Step 0 full, step 1 half: step 0 output must match PTT, step 1 must
  // match the pointwise half path.
  Rng rng(7);
  TTConv2d::Options o{.in_channels = 3, .out_channels = 3, .kernel = 3,
                      .stride = 1, .rank = 2, .mode = TTMode::kHTT,
                      .full_step = std::vector<bool>{true, false}};
  TTConv2d htt(o, rng);
  Tensor x = Tensor::randn({2, 1, 3, 4, 4}, rng);
  Tensor y = htt.forward(x);

  TTConv2d::Options po = o;
  po.mode = TTMode::kPTT;
  po.full_step.clear();
  TTConv2d ptt(po, htt.cores());
  Tensor y_ptt = ptt.forward(x);
  EXPECT_LT(max_abs_diff(y.slice0(0, 1), y_ptt.slice0(0, 1)), 1e-6);

  // Half path: dense 1x1 conv with the merged half kernel.
  Conv2d half({.in_channels = 3, .out_channels = 3, .kernel_h = 1, .kernel_w = 1},
              htt.merged_half_kernel());
  Tensor y_half = half.forward(x.slice0(1, 2));
  EXPECT_LT(max_abs_diff(y.slice0(1, 2), y_half), 1e-5);
}

// ---- Merge equivalence (Algorithm 1 lines 20-22) ----------------------------

class MergeEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<TTMode, int64_t>> {};

TEST_P(MergeEquivalenceTest, FactorizedOutputEqualsMergedDenseConv) {
  auto [mode, stride] = GetParam();
  Rng rng(8);
  TTConv2d::Options o{.in_channels = 5, .out_channels = 7, .kernel = 3,
                      .stride = stride, .rank = 3, .mode = mode};
  TTConv2d tt(o, rng);
  Tensor x = Tensor::randn({2, 2, 5, 8, 8}, rng);
  Tensor y_tt = tt.forward(x);

  Conv2d dense({.in_channels = 5, .out_channels = 7, .kernel_h = 3,
                .kernel_w = 3, .stride = stride},
               tt.merged_kernel());
  Tensor y_dense = dense.forward(x);
  // Exact equivalence including borders: the sub-convolutions mix rows and
  // columns in separate stages, so zero padding composes losslessly.
  EXPECT_LT(max_abs_diff(y_tt, y_dense), 1e-4)
      << tt_mode_name(mode) << " stride " << stride;
}

INSTANTIATE_TEST_SUITE_P(
    ModesAndStrides, MergeEquivalenceTest,
    ::testing::Combine(::testing::Values(TTMode::kSTT, TTMode::kPTT),
                       ::testing::Values<int64_t>(1, 2)));

TEST(TTConvTest, DescribeEmitsFourSubConvs) {
  Rng rng(9);
  TTConv2d::Options o{.in_channels = 8, .out_channels = 16, .kernel = 3,
                      .stride = 2, .rank = 4, .mode = TTMode::kPTT};
  TTConv2d conv(o, rng);
  ShapeState s{.c = 8, .h = 8, .w = 8};
  std::vector<LayerDesc> descs;
  conv.describe(s, descs);
  ASSERT_EQ(descs.size(), 4u);
  EXPECT_EQ(descs[0].detail, "PTT.w1");
  EXPECT_EQ(descs[3].detail, "PTT.w4");
  // w1 at full resolution, w4 at strided resolution.
  EXPECT_EQ(descs[0].out_h, 8);
  EXPECT_EQ(descs[3].out_h, 4);
  // Total params match the TT formula.
  int64_t params = 0;
  for (const auto& d : descs) params += d.params;
  EXPECT_EQ(params, tt_num_params(8, 16, 3, 4));
  EXPECT_EQ(s.c, 16);
  EXPECT_EQ(s.h, 4);
}

TEST(TTConvTest, HttDescribeReportsUtilization) {
  Rng rng(10);
  TTConv2d::Options o{.in_channels = 4, .out_channels = 4, .kernel = 3,
                      .stride = 1, .rank = 2, .mode = TTMode::kHTT,
                      .full_step = std::vector<bool>{true, true, false, false}};
  TTConv2d conv(o, rng);
  ShapeState s{.c = 4, .h = 4, .w = 4};
  std::vector<LayerDesc> descs;
  conv.describe(s, descs);
  ASSERT_EQ(descs.size(), 4u);
  EXPECT_DOUBLE_EQ(descs[0].utilization, 1.0);  // w1 always runs
  EXPECT_DOUBLE_EQ(descs[1].utilization, 0.5);  // strips run on half the steps
  EXPECT_DOUBLE_EQ(descs[2].utilization, 0.5);
  EXPECT_DOUBLE_EQ(descs[3].utilization, 1.0);  // w4 always runs
}

TEST(TTConvTest, InitFromCoresPreservesWeights) {
  Rng rng(11);
  TTConv2d::Options o{.in_channels = 4, .out_channels = 4, .kernel = 3,
                      .stride = 1, .rank = 2, .mode = TTMode::kSTT};
  TTConv2d a(o, rng);
  TTConv2d b(o, a.cores());
  Tensor x = Tensor::randn({1, 1, 4, 5, 5}, rng);
  EXPECT_LT(max_abs_diff(a.forward(x), b.forward(x)), 1e-7);
}

TEST(TTConvTest, RejectsBadOptions) {
  Rng rng(12);
  EXPECT_THROW(TTConv2d({.in_channels = 4, .out_channels = 4, .kernel = 2,
                         .rank = 2},
                        rng),
               Error);
  EXPECT_THROW(TTConv2d({.in_channels = 4, .out_channels = 4, .kernel = 3,
                         .rank = 0},
                        rng),
               Error);
  EXPECT_THROW(TTConv2d({.in_channels = 4, .out_channels = 4, .kernel = 0,
                         .rank = 2},
                        rng),
               Error);
  EXPECT_THROW(TTConv2d({.in_channels = 4, .out_channels = 4, .kernel = 3,
                         .stride = 0, .rank = 2},
                        rng),
               Error);
  EXPECT_THROW(TTConv2d({.in_channels = 0, .out_channels = 4, .kernel = 3,
                         .rank = 2},
                        rng),
               Error);
  // The cores constructor validates the same options.
  TTConv2d good({.in_channels = 4, .out_channels = 4, .kernel = 3, .rank = 2},
                rng);
  EXPECT_THROW(TTConv2d({.in_channels = 4, .out_channels = 4, .kernel = 3,
                         .stride = -1},
                        good.cores()),
               Error);
}

TEST(TTConvTest, EvalForwardKeepsNoCaches) {
  for (TTMode mode : {TTMode::kSTT, TTMode::kPTT, TTMode::kHTT}) {
    Rng rng(20);
    TTConv2d::Options o{.in_channels = 3, .out_channels = 4, .kernel = 3,
                        .stride = 1, .rank = 2, .mode = mode,
                        .full_step = std::vector<bool>{true, false}};
    TTConv2d conv(o, rng);
    Tensor x = Tensor::randn({2, 2, 3, 5, 5}, rng);

    // Same numbers with and without caching.
    Tensor y_train = conv.forward(x);
    conv.set_training(false);
    Tensor y_eval = conv.forward(x);
    EXPECT_EQ(max_abs_diff(y_train, y_eval), 0.0) << tt_mode_name(mode);

    // Backward needs the forward caches; an eval forward must not have
    // retained (or kept stale) activations, so backward fails loudly.
    EXPECT_THROW(conv.backward(y_eval), Error) << tt_mode_name(mode);
  }
}

TEST(TTConvTest, HttScheduleTooShortThrows) {
  Rng rng(13);
  TTConv2d::Options o{.in_channels = 3, .out_channels = 3, .kernel = 3,
                      .stride = 1, .rank = 2, .mode = TTMode::kHTT,
                      .full_step = std::vector<bool>{true, false}};
  TTConv2d conv(o, rng);
  Tensor x = Tensor::randn({4, 1, 3, 4, 4}, rng);  // T=4 > schedule size 2
  EXPECT_THROW(conv.forward(x), Error);
}

}  // namespace
}  // namespace ttsnn
