// Unit and gradient-check tests for the dense NN layers: Conv2d, Linear,
// BatchNorm (all three modes), pooling, and the container modules.

#include <gtest/gtest.h>

#include "gradcheck.h"
#include "nn/batchnorm.h"
#include "nn/containers.h"
#include "nn/conv2d.h"
#include "nn/lif.h"
#include "nn/linear.h"
#include "nn/pooling.h"
#include "tensor/ops.h"

namespace ttsnn {
namespace {

TEST(Conv2dTest, IdentityKernelPreservesInput) {
  Rng rng(1);
  Conv2d::Options o{.in_channels = 1, .out_channels = 1, .kernel_h = 1,
                    .kernel_w = 1};
  Tensor w = Tensor::ones({1, 1, 1, 1});
  Conv2d conv(o, w);
  Tensor x = Tensor::randn({2, 1, 1, 4, 4}, rng);
  Tensor y = conv.forward(x);
  EXPECT_EQ(y.shape(), x.shape());
  EXPECT_LT(max_abs_diff(x, y), 1e-7);
}

TEST(Conv2dTest, HandComputed3x3) {
  // Single 3x3 all-ones kernel, same padding: output = local sum.
  Conv2d::Options o{.in_channels = 1, .out_channels = 1};
  Conv2d conv(o, Tensor::ones({1, 1, 3, 3}));
  Tensor x = Tensor::zeros({1, 1, 1, 3, 3});
  x.at({0, 0, 0, 1, 1}) = 1.0F;  // impulse at center
  Tensor y = conv.forward(x);
  // Every position sees the impulse: all outputs are 1.
  for (int64_t i = 0; i < y.numel(); ++i) EXPECT_FLOAT_EQ(y[i], 1.0F);
}

TEST(Conv2dTest, StrideHalvesResolution) {
  Rng rng(2);
  Conv2d::Options o{.in_channels = 3, .out_channels = 8, .stride = 2};
  Conv2d conv(o, rng);
  Tensor x = Tensor::randn({1, 2, 3, 8, 8}, rng);
  Tensor y = conv.forward(x);
  EXPECT_EQ(y.shape(), (Shape{1, 2, 8, 4, 4}));
}

TEST(Conv2dTest, AsymmetricKernelShapes) {
  Rng rng(3);
  // The TT sub-convolution shapes: (3,1) and (1,3) with same padding.
  Conv2d::Options o31{.in_channels = 4, .out_channels = 4, .kernel_h = 3,
                      .kernel_w = 1};
  Conv2d::Options o13{.in_channels = 4, .out_channels = 4, .kernel_h = 1,
                      .kernel_w = 3};
  Conv2d c31(o31, rng), c13(o13, rng);
  Tensor x = Tensor::randn({1, 1, 4, 6, 6}, rng);
  EXPECT_EQ(c31.forward(x).shape(), x.shape());
  EXPECT_EQ(c13.forward(x).shape(), x.shape());
}

TEST(Conv2dTest, GradCheckInputAndWeights) {
  Rng rng(4);
  Conv2d::Options o{.in_channels = 2, .out_channels = 3};
  Conv2d conv(o, rng);
  Tensor x = Tensor::randn({1, 2, 2, 5, 5}, rng);
  Tensor w = Tensor::randn({1, 2, 3, 5, 5}, rng);
  check_input_grad(conv, x, w);
  check_param_grads(conv, x, w);
}

TEST(Conv2dTest, GradCheckStridedAsymmetric) {
  Rng rng(5);
  Conv2d::Options o{.in_channels = 2, .out_channels = 2, .kernel_h = 3,
                    .kernel_w = 1, .stride = 2};
  Conv2d conv(o, rng);
  Tensor x = Tensor::randn({1, 1, 2, 7, 7}, rng);
  Tensor w = Tensor::randn({1, 1, 2, 4, 4}, rng);
  check_input_grad(conv, x, w);
  check_param_grads(conv, x, w);
}

TEST(Conv2dTest, BackwardRejectsGradOfAnotherBatch) {
  // The lowering walks grad_out per input image, so a gradient with fewer
  // folded images than the input must be refused, not read past its end.
  Rng rng(8);
  Conv2d::Options o{.in_channels = 2, .out_channels = 3};
  Tensor x = Tensor::randn({2, 2, 5, 5}, rng);
  Tensor w = Tensor::randn({3, 2, 3, 3}, rng);
  Tensor dw(w.shape());
  Tensor g = Tensor::randn({1, 3, 5, 5}, rng);
  EXPECT_THROW(conv2d_backward(x, w, o, g, dw), Error);
}

TEST(Conv2dTest, DescribeComputesMacsAndParams) {
  Rng rng(6);
  Conv2d::Options o{.in_channels = 16, .out_channels = 32, .stride = 2};
  Conv2d conv(o, rng);
  ShapeState s{.c = 16, .h = 8, .w = 8};
  std::vector<LayerDesc> descs;
  conv.describe(s, descs);
  ASSERT_EQ(descs.size(), 1u);
  EXPECT_EQ(descs[0].params, 32 * 16 * 9);
  EXPECT_EQ(descs[0].out_h, 4);
  EXPECT_EQ(descs[0].macs, 32 * 4 * 4 * 16 * 9);
  EXPECT_EQ(s.c, 32);
  EXPECT_EQ(s.h, 4);
}

TEST(LinearTest, ForwardMatchesHandComputed) {
  Rng rng(7);
  Linear lin(2, 2, rng);
  lin.weight().value = Tensor({2, 2}, {1, 2, 3, 4});
  lin.bias().value = Tensor({2}, {10, 20});
  Tensor x({1, 1, 2}, {1, 1});
  Tensor y = lin.forward(x);
  EXPECT_FLOAT_EQ(y[0], 13.0F);  // 1*1 + 2*1 + 10
  EXPECT_FLOAT_EQ(y[1], 27.0F);  // 3*1 + 4*1 + 20
}

TEST(LinearTest, GradCheck) {
  Rng rng(8);
  Linear lin(6, 4, rng);
  Tensor x = Tensor::randn({2, 3, 6}, rng);
  Tensor w = Tensor::randn({2, 3, 4}, rng);
  check_input_grad(lin, x, w);
  check_param_grads(lin, x, w);
}

TEST(BatchNormTest, NormalizesPerStep) {
  Rng rng(9);
  BatchNorm bn({.channels = 3});
  Tensor x = Tensor::randn({2, 4, 3, 5, 5}, rng);
  x.mul_scalar_(3.0F).add_scalar_(1.5F);
  Tensor y = bn.forward(x);
  // Each (t, c) slice should be ~N(0,1) over (N, H, W).
  for (int64_t t = 0; t < 2; ++t) {
    for (int64_t c = 0; c < 3; ++c) {
      double s1 = 0.0, s2 = 0.0;
      for (int64_t n = 0; n < 4; ++n) {
        for (int64_t h = 0; h < 5; ++h) {
          for (int64_t w = 0; w < 5; ++w) {
            const double v = y.at({t, n, c, h, w});
            s1 += v;
            s2 += v * v;
          }
        }
      }
      const double count = 4 * 5 * 5;
      EXPECT_NEAR(s1 / count, 0.0, 1e-4);
      EXPECT_NEAR(s2 / count, 1.0, 1e-2);
    }
  }
}

TEST(BatchNormTest, TdBnScalesByAlphaVth) {
  Rng rng(10);
  const float alpha_vth = 0.5F;
  BatchNorm bn({.channels = 2, .mode = BatchNorm::Mode::kTdBn,
                .alpha_vth = alpha_vth});
  Tensor x = Tensor::randn({3, 4, 2, 4, 4}, rng);
  Tensor y = bn.forward(x);
  // Variance over ALL timesteps jointly should be alpha_vth^2.
  for (int64_t c = 0; c < 2; ++c) {
    double s1 = 0.0, s2 = 0.0;
    int64_t count = 0;
    for (int64_t t = 0; t < 3; ++t) {
      for (int64_t n = 0; n < 4; ++n) {
        for (int64_t h = 0; h < 4; ++h) {
          for (int64_t w = 0; w < 4; ++w) {
            const double v = y.at({t, n, c, h, w});
            s1 += v;
            s2 += v * v;
            ++count;
          }
        }
      }
    }
    const double mean = s1 / count;
    const double var = s2 / count - mean * mean;
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(var, alpha_vth * alpha_vth, 2e-2);
  }
}

TEST(BatchNormTest, TebnAppliesPerStepScale) {
  Rng rng(11);
  BatchNorm bn({.channels = 2, .mode = BatchNorm::Mode::kTebn, .timesteps = 2});
  bn.step_scale().value[0] = 2.0F;
  bn.step_scale().value[1] = 0.5F;
  Tensor x = Tensor::randn({2, 8, 2, 3, 3}, rng);
  Tensor y = bn.forward(x);
  // Ratio of per-step standard deviations should be ~4 (2.0 / 0.5).
  auto step_std = [&](int64_t t) {
    double s2 = 0.0;
    int64_t cnt = 0;
    for (int64_t n = 0; n < 8; ++n) {
      for (int64_t c = 0; c < 2; ++c) {
        for (int64_t h = 0; h < 3; ++h) {
          for (int64_t w = 0; w < 3; ++w) {
            const double v = y.at({t, n, c, h, w});
            s2 += v * v;
            ++cnt;
          }
        }
      }
    }
    return std::sqrt(s2 / cnt);
  };
  EXPECT_NEAR(step_std(0) / step_std(1), 4.0, 0.8);
}

class BatchNormGradTest : public ::testing::TestWithParam<BatchNorm::Mode> {};

TEST_P(BatchNormGradTest, GradCheck) {
  Rng rng(12);
  BatchNorm bn({.channels = 2, .mode = GetParam(), .alpha_vth = 0.7F,
                .timesteps = 2});
  Tensor x = Tensor::randn({2, 3, 2, 3, 3}, rng);
  Tensor w = Tensor::randn({2, 3, 2, 3, 3}, rng);
  GradCheckOptions o;
  o.rel_tol = 5e-2;  // batch statistics amplify FD noise
  o.abs_tol = 5e-3;
  check_input_grad(bn, x, w, o);
  check_param_grads(bn, x, w, o);
}

INSTANTIATE_TEST_SUITE_P(Modes, BatchNormGradTest,
                         ::testing::Values(BatchNorm::Mode::kPerStep,
                                           BatchNorm::Mode::kTdBn,
                                           BatchNorm::Mode::kTebn));

TEST(BatchNormTest, EvalModeUsesRunningStats) {
  Rng rng(13);
  BatchNorm bn({.channels = 2, .momentum = 1.0F});
  Tensor x = Tensor::randn({1, 16, 2, 4, 4}, rng);
  bn.forward(x);  // momentum 1.0: running stats == batch stats
  bn.set_training(false);
  Tensor y = bn.forward(x);
  // With running == batch stats, eval output matches train output closely.
  bn.set_training(true);
  Tensor y_train = bn.forward(x);
  EXPECT_LT(max_abs_diff(y, y_train), 1e-4);
}

TEST(AvgPoolTest, ForwardAverages) {
  AvgPool2d pool(2);
  Tensor x({1, 1, 1, 2, 2}, {1, 2, 3, 4});
  Tensor y = pool.forward(x);
  EXPECT_EQ(y.shape(), (Shape{1, 1, 1, 1, 1}));
  EXPECT_FLOAT_EQ(y[0], 2.5F);
}

TEST(AvgPoolTest, GradCheck) {
  Rng rng(14);
  AvgPool2d pool(2);
  Tensor x = Tensor::randn({1, 2, 3, 4, 4}, rng);
  Tensor w = Tensor::randn({1, 2, 3, 2, 2}, rng);
  check_input_grad(pool, x, w);
}

TEST(AvgPoolTest, RejectsNonDivisible) {
  AvgPool2d pool(2);
  Tensor x = Tensor::zeros({1, 1, 1, 3, 3});
  EXPECT_THROW(pool.forward(x), Error);
}

TEST(GlobalAvgPoolTest, ShapeAndGradCheck) {
  Rng rng(15);
  GlobalAvgPool pool;
  Tensor x = Tensor::randn({2, 2, 3, 4, 4}, rng);
  Tensor y = pool.forward(x);
  EXPECT_EQ(y.shape(), (Shape{2, 2, 3}));
  Tensor w = Tensor::randn({2, 2, 3}, rng);
  check_input_grad(pool, x, w);
}

TEST(SequentialTest, ChainsForwardAndBackward) {
  Rng rng(16);
  auto seq = std::make_unique<Sequential>();
  seq->emplace<Conv2d>(Conv2d::Options{.in_channels = 2, .out_channels = 4},
                       rng);
  seq->emplace<AvgPool2d>(2);
  Tensor x = Tensor::randn({1, 2, 2, 4, 4}, rng);
  Tensor y = seq->forward(x);
  EXPECT_EQ(y.shape(), (Shape{1, 2, 4, 2, 2}));
  Tensor w = Tensor::randn({1, 2, 4, 2, 2}, rng);
  check_input_grad(*seq, x, w);
  check_param_grads(*seq, x, w);
}

TEST(SequentialTest, CollectsParametersRecursively) {
  Rng rng(17);
  Sequential seq;
  seq.emplace<Conv2d>(Conv2d::Options{.in_channels = 2, .out_channels = 4}, rng);
  seq.emplace<BatchNorm>(BatchNorm::Options{.channels = 4});
  auto params = seq.parameters();
  EXPECT_EQ(params.size(), 3u);  // conv weight + bn gamma + bn beta
}

TEST(ResidualTest, IdentityShortcutAddsInput) {
  Rng rng(18);
  auto body = std::make_unique<Sequential>();
  body->emplace<Conv2d>(Conv2d::Options{.in_channels = 2, .out_channels = 2},
                        rng);
  Residual res(std::move(body), nullptr);
  Tensor x = Tensor::randn({1, 1, 2, 4, 4}, rng);
  Tensor y = res.forward(x);
  EXPECT_EQ(y.shape(), x.shape());
  Tensor w = Tensor::randn({1, 1, 2, 4, 4}, rng);
  check_input_grad(res, x, w);
}

TEST(ResidualTest, ProjectionShortcutGradCheck) {
  Rng rng(19);
  auto body = std::make_unique<Sequential>();
  body->emplace<Conv2d>(
      Conv2d::Options{.in_channels = 2, .out_channels = 4, .stride = 2}, rng);
  auto shortcut = std::make_unique<Conv2d>(
      Conv2d::Options{.in_channels = 2, .out_channels = 4, .kernel_h = 1,
                      .kernel_w = 1, .stride = 2},
      rng);
  Residual res(std::move(body), std::move(shortcut));
  Tensor x = Tensor::randn({1, 1, 2, 4, 4}, rng);
  Tensor w = Tensor::randn({1, 1, 4, 2, 2}, rng);
  check_input_grad(res, x, w);
  check_param_grads(res, x, w);
}

TEST(ResidualTest, MismatchedBranchesThrow) {
  Rng rng(20);
  auto body = std::make_unique<Conv2d>(
      Conv2d::Options{.in_channels = 2, .out_channels = 4}, rng);
  Residual res(std::move(body), nullptr);
  Tensor x = Tensor::randn({1, 1, 2, 4, 4}, rng);
  EXPECT_THROW(res.forward(x), Error);
}

TEST(FlattenTest, RoundTrip) {
  Rng rng(21);
  Flatten fl;
  Tensor x = Tensor::randn({2, 3, 4, 2, 2}, rng);
  Tensor y = fl.forward(x);
  EXPECT_EQ(y.shape(), (Shape{2, 3, 16}));
  Tensor g = fl.backward(y);
  EXPECT_EQ(g.shape(), x.shape());
}

TEST(ModuleTest, VisitModuleSlotsReachesAllChildren) {
  Rng rng(22);
  auto body = std::make_unique<Sequential>();
  body->emplace<Conv2d>(Conv2d::Options{.in_channels = 2, .out_channels = 2},
                        rng);
  body->emplace<BatchNorm>(BatchNorm::Options{.channels = 2});
  Sequential root;
  root.add(std::make_unique<Residual>(std::move(body), nullptr));
  int count = 0;
  visit_module_slots(root, [&](ModulePtr&) { ++count; });
  EXPECT_EQ(count, 4);  // residual + body seq + conv + bn
}

// Eval-mode forwards must not retain backward caches: serving pays no BPTT
// memory traffic, and backward after an eval forward fails loudly instead of
// silently reusing stale activations. Numbers must not change either way.
TEST(EvalCacheTest, Conv2dSkipsCaching) {
  Rng rng(40);
  Conv2d conv({.in_channels = 3, .out_channels = 4}, rng);
  Tensor x = Tensor::randn({2, 2, 3, 5, 5}, rng);
  Tensor y_train = conv.forward(x);
  conv.set_training(false);
  Tensor y_eval = conv.forward(x);
  EXPECT_EQ(max_abs_diff(y_train, y_eval), 0.0);
  EXPECT_THROW(conv.backward(y_eval), Error);
}

TEST(EvalCacheTest, BatchNormSkipsCaching) {
  Rng rng(41);
  for (BatchNorm::Mode mode :
       {BatchNorm::Mode::kPerStep, BatchNorm::Mode::kTdBn,
        BatchNorm::Mode::kTebn}) {
    BatchNorm bn({.channels = 3, .mode = mode, .timesteps = 2});
    Tensor x = Tensor::randn({2, 2, 3, 4, 4}, rng);
    bn.forward(x);  // training: populates caches and running stats
    bn.set_training(false);
    Tensor y = bn.forward(x);
    EXPECT_EQ(y.shape(), x.shape());
    EXPECT_THROW(bn.backward(y), Error);
  }
}

TEST(EvalCacheTest, LifSkipsCachingAndStillReportsDensity) {
  Rng rng(42);
  LIFNeuron lif;
  Tensor x = Tensor::randn({3, 2, 4, 4, 4}, rng);
  Tensor y_train = lif.forward(x);
  const double train_density = lif.last_spike_density();
  lif.set_training(false);
  Tensor y_eval = lif.forward(x);
  EXPECT_EQ(max_abs_diff(y_train, y_eval), 0.0);
  // profile_spikes() runs in eval mode and reads the density afterwards.
  EXPECT_EQ(lif.last_spike_density(), train_density);
  EXPECT_THROW(lif.backward(y_eval), Error);
}

TEST(EvalCacheTest, LinearSkipsCaching) {
  Rng rng(43);
  Linear lin(6, 3, rng);
  Tensor x = Tensor::randn({2, 2, 6}, rng);
  lin.forward(x);
  lin.set_training(false);
  Tensor y = lin.forward(x);
  EXPECT_THROW(lin.backward(y), Error);
}

}  // namespace
}  // namespace ttsnn
