// SNN framework tests: encoders, losses (gradient identities), optimizer
// dynamics, LR schedule, and augmentation invariants.

#include <cmath>

#include <gtest/gtest.h>

#include "snn/adam.h"
#include "snn/augment.h"
#include "snn/encoder.h"
#include "snn/loss.h"
#include "snn/optimizer.h"
#include "tensor/ops.h"

namespace ttsnn {
namespace {

TEST(EncoderTest, DirectCodeReplicatesFrames) {
  Rng rng(1);
  Tensor img = Tensor::randn({2, 3, 4, 4}, rng);
  Tensor seq = direct_code(img, 3);
  EXPECT_EQ(seq.shape(), (Shape{3, 2, 3, 4, 4}));
  for (int64_t t = 0; t < 3; ++t) {
    EXPECT_LT(max_abs_diff(seq.slice0(t, t + 1).reshape(img.shape()), img), 1e-7);
  }
}

TEST(LossTest, CeSumLossOnConfidentLogits) {
  // Strongly correct logits -> small loss; strongly wrong -> large loss.
  Tensor good({1, 1, 3}, {10.0F, 0.0F, 0.0F});
  Tensor bad({1, 1, 3}, {0.0F, 10.0F, 0.0F});
  auto lg = cross_entropy_sum_loss(good, {0});
  auto lb = cross_entropy_sum_loss(bad, {0});
  EXPECT_LT(lg.value, 0.01);
  EXPECT_GT(lb.value, 5.0);
}

TEST(LossTest, CeSumGradMatchesFiniteDifference) {
  Rng rng(3);
  Tensor logits = Tensor::randn({2, 3, 4}, rng);
  std::vector<int64_t> labels{1, 3, 0};
  auto loss = cross_entropy_sum_loss(logits, labels);
  const float eps = 1e-3F;
  for (int64_t i = 0; i < logits.numel(); i += 5) {
    Tensor lp = logits.clone();
    lp[i] += eps;
    Tensor lm = logits.clone();
    lm[i] -= eps;
    const double fd = (cross_entropy_sum_loss(lp, labels).value -
                       cross_entropy_sum_loss(lm, labels).value) /
                      (2.0 * eps);
    EXPECT_NEAR(loss.grad[i], fd, 1e-3) << "coordinate " << i;
  }
}

TEST(LossTest, CeSumGradIdenticalAcrossTimesteps) {
  Rng rng(4);
  Tensor logits = Tensor::randn({3, 2, 5}, rng);
  auto loss = cross_entropy_sum_loss(logits, {0, 4});
  const int64_t nc = 2 * 5;
  for (int64_t i = 0; i < nc; ++i) {
    EXPECT_FLOAT_EQ(loss.grad[i], loss.grad[nc + i]);
    EXPECT_FLOAT_EQ(loss.grad[i], loss.grad[2 * nc + i]);
  }
}

TEST(LossTest, TetGradMatchesFiniteDifference) {
  Rng rng(5);
  Tensor logits = Tensor::randn({2, 2, 3}, rng);
  std::vector<int64_t> labels{2, 0};
  auto loss = tet_loss(logits, labels, 0.2F, 0.8F);
  const float eps = 1e-3F;
  for (int64_t i = 0; i < logits.numel(); i += 3) {
    Tensor lp = logits.clone();
    lp[i] += eps;
    Tensor lm = logits.clone();
    lm[i] -= eps;
    const double fd = (tet_loss(lp, labels, 0.2F, 0.8F).value -
                       tet_loss(lm, labels, 0.2F, 0.8F).value) /
                      (2.0 * eps);
    EXPECT_NEAR(loss.grad[i], fd, 1e-3) << "coordinate " << i;
  }
}

TEST(LossTest, TetPerStepGradsDiffer) {
  // Unlike CE-sum, TET penalizes each step separately.
  Tensor logits({2, 1, 2}, {3.0F, 0.0F, 0.0F, 3.0F});
  auto loss = tet_loss(logits, {0}, 0.0F);
  EXPECT_NE(loss.grad[0], loss.grad[2]);
}

TEST(LossTest, AccuracyCountsSummedArgmax) {
  // Step logits disagree; the sum decides.
  Tensor logits({2, 2, 2}, {2, 0, 0, 2,   // t0: pred 0, pred 1
                            0, 1, 0, 2});  // t1: pred 1, pred 1
  // sums: sample0 = (2,1) -> 0; sample1 = (0,4) -> 1.
  EXPECT_DOUBLE_EQ(accuracy(logits, {0, 1}), 1.0);
  EXPECT_DOUBLE_EQ(accuracy(logits, {1, 0}), 0.0);
}

TEST(LossTest, RejectsBadLabels) {
  Tensor logits = Tensor::zeros({1, 1, 3});
  EXPECT_THROW(cross_entropy_sum_loss(logits, {3}), Error);
  EXPECT_THROW(cross_entropy_sum_loss(logits, {0, 1}), Error);
}

TEST(OptimizerTest, SgdDescendsQuadratic) {
  // Minimize f(w) = 0.5 * ||w||^2; gradient = w.
  Parameter p("w", Tensor({2}, {1.0F, -2.0F}));
  SGD sgd({&p}, {.lr = 0.1F, .momentum = 0.0F, .weight_decay = 0.0F});
  for (int i = 0; i < 100; ++i) {
    p.grad = p.value.clone();
    sgd.step();
  }
  EXPECT_LT(std::fabs(p.value[0]), 1e-4);
  EXPECT_LT(std::fabs(p.value[1]), 1e-4);
}

TEST(OptimizerTest, MomentumAcceleratesDescent) {
  auto run = [](float momentum) {
    Parameter p("w", Tensor({1}, {1.0F}));
    SGD sgd({&p}, {.lr = 0.01F, .momentum = momentum, .weight_decay = 0.0F});
    for (int i = 0; i < 20; ++i) {
      p.grad = p.value.clone();
      sgd.step();
    }
    return std::fabs(p.value[0]);
  };
  EXPECT_LT(run(0.9F), run(0.0F));
}

TEST(OptimizerTest, WeightDecayShrinksWeights) {
  Parameter p("w", Tensor({1}, {1.0F}));
  SGD sgd({&p}, {.lr = 0.1F, .momentum = 0.0F, .weight_decay = 0.5F});
  p.grad.zero_();
  sgd.step();
  EXPECT_NEAR(p.value[0], 1.0F - 0.1F * 0.5F, 1e-6);
}

TEST(OptimizerTest, DecayFlagExcludesParameter) {
  Parameter p("bn.gamma", Tensor({1}, {1.0F}), /*apply_decay=*/false);
  SGD sgd({&p}, {.lr = 0.1F, .momentum = 0.0F, .weight_decay = 0.5F});
  p.grad.zero_();
  sgd.step();
  EXPECT_FLOAT_EQ(p.value[0], 1.0F);
}

TEST(OptimizerTest, ZeroGradClears) {
  Parameter p("w", Tensor({2}, {1, 1}));
  p.grad.fill_(3.0F);
  SGD sgd({&p}, {});
  sgd.zero_grad();
  EXPECT_DOUBLE_EQ(p.grad.sum(), 0.0);
}

TEST(AdamTest, DescendsQuadratic) {
  Parameter p("w", Tensor({2}, {1.0F, -2.0F}));
  Adam adam({&p}, {.lr = 0.05F});
  for (int i = 0; i < 300; ++i) {
    p.grad = p.value.clone();
    adam.step();
  }
  EXPECT_LT(std::fabs(p.value[0]), 1e-2);
  EXPECT_LT(std::fabs(p.value[1]), 1e-2);
}

TEST(AdamTest, FirstStepIsLrSizedRegardlessOfGradScale) {
  // Bias correction: the first update magnitude is ~lr for any grad scale.
  for (float scale : {1e-3F, 1.0F, 1e3F}) {
    Parameter p("w", Tensor({1}, {0.0F}));
    Adam adam({&p}, {.lr = 0.1F});
    p.grad = Tensor({1}, {scale});
    adam.step();
    EXPECT_NEAR(std::fabs(p.value[0]), 0.1F, 0.01F) << "scale " << scale;
  }
}

TEST(AdamTest, DecoupledWeightDecayShrinks) {
  Parameter p("w", Tensor({1}, {1.0F}));
  Adam adam({&p}, {.lr = 0.1F, .weight_decay = 0.5F});
  p.grad.zero_();
  adam.step();
  EXPECT_NEAR(p.value[0], 1.0F - 0.1F * 0.5F, 1e-6);
  // decay=false parameters are untouched.
  Parameter q("bn.gamma", Tensor({1}, {1.0F}), /*apply_decay=*/false);
  Adam adam2({&q}, {.lr = 0.1F, .weight_decay = 0.5F});
  q.grad.zero_();
  adam2.step();
  EXPECT_FLOAT_EQ(q.value[0], 1.0F);
}

TEST(AdamTest, RejectsBadOptions) {
  Parameter p("w", Tensor({1}, {1.0F}));
  EXPECT_THROW(Adam({&p}, {.lr = 0.0F}), Error);
  EXPECT_THROW(Adam({&p}, {.beta1 = 1.0F}), Error);
  EXPECT_THROW(Adam({}, {}), Error);
}

TEST(CosineLrTest, AnnealsFromBaseToZero) {
  CosineLr sched(0.1F, 100);
  EXPECT_FLOAT_EQ(sched.at(0), 0.1F);
  EXPECT_NEAR(sched.at(50), 0.05F, 1e-6);
  EXPECT_NEAR(sched.at(100), 0.0F, 1e-6);
  EXPECT_GT(sched.at(25), sched.at(75));
}

TEST(AugmentTest, PreservesShapeAndBinaryValues) {
  Rng data_rng(6);
  Tensor x = Tensor::bernoulli({3, 2, 2, 8, 8}, data_rng, 0.2F);
  Rng rng(7);
  Tensor y = augment_events(x, {}, rng);
  EXPECT_EQ(y.shape(), x.shape());
  for (int64_t i = 0; i < y.numel(); ++i) {
    EXPECT_TRUE(y[i] == 0.0F || y[i] == 1.0F);
  }
}

TEST(AugmentTest, TransformConsistentAcrossTimesteps) {
  // A static-in-time clip must stay static after augmentation (one transform
  // per sample shared by all timesteps).
  Rng data_rng(8);
  Tensor frame = Tensor::bernoulli({1, 1, 1, 8, 8}, data_rng, 0.4F);
  Tensor clip({4, 1, 1, 8, 8});
  for (int64_t t = 0; t < 4; ++t) {
    std::copy(frame.data(), frame.data() + 64, clip.data() + t * 64);
  }
  Rng rng(9);
  Tensor y = augment_events(clip, {.cutout_size = 0}, rng);
  for (int64_t t = 1; t < 4; ++t) {
    EXPECT_LT(max_abs_diff(y.slice0(t, t + 1), y.slice0(0, 1)), 1e-7) << t;
  }
}

TEST(AugmentTest, IdentityOptionsPreserveInput) {
  Rng data_rng(10);
  Tensor x = Tensor::bernoulli({2, 2, 1, 6, 6}, data_rng, 0.3F);
  Rng rng(11);
  AugmentOptions opts{.max_shift = 0, .hflip = false, .cutout_size = 0};
  Tensor y = augment_events(x, opts, rng);
  EXPECT_LT(max_abs_diff(x, y), 1e-7);
}

}  // namespace
}  // namespace ttsnn
