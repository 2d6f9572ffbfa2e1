// Unit tests for the dense tensor substrate: construction, shape mechanics,
// arithmetic, reductions, permutation, GEMM, and im2col/col2im adjointness.

#include <cmath>
#include <numeric>

#include <gtest/gtest.h>

#include "tensor/gemm.h"
#include "tensor/im2col.h"
#include "tensor/ops.h"
#include "tensor/random.h"
#include "tensor/tensor.h"
#include "util/common.h"

namespace ttsnn {
namespace {

TEST(TensorTest, DefaultConstructedIsUndefined) {
  Tensor t;
  EXPECT_FALSE(t.defined());
  EXPECT_EQ(t.numel(), 0);
  EXPECT_EQ(t.dim(), 0);
}

TEST(TensorTest, ZerosHasShapeAndZeroData) {
  Tensor t = Tensor::zeros({2, 3, 4});
  EXPECT_EQ(t.numel(), 24);
  EXPECT_EQ(t.dim(), 3);
  EXPECT_EQ(t.size(0), 2);
  EXPECT_EQ(t.size(-1), 4);
  for (int64_t i = 0; i < t.numel(); ++i) EXPECT_EQ(t[i], 0.0F);
}

TEST(TensorTest, FullAndOnes) {
  Tensor t = Tensor::full({5}, 2.5F);
  EXPECT_FLOAT_EQ(t[4], 2.5F);
  EXPECT_DOUBLE_EQ(Tensor::ones({3, 3}).sum(), 9.0);
}

TEST(TensorTest, ArangeProducesSequence) {
  Tensor t = Tensor::arange(5);
  for (int64_t i = 0; i < 5; ++i) EXPECT_FLOAT_EQ(t[i], static_cast<float>(i));
}

TEST(TensorTest, FromVectorChecksSize) {
  EXPECT_NO_THROW(Tensor({2, 2}, {1, 2, 3, 4}));
  EXPECT_THROW(Tensor({2, 2}, {1, 2, 3}), Error);
}

TEST(TensorTest, AtMultiDimensionalIndexing) {
  Tensor t({2, 3}, {0, 1, 2, 3, 4, 5});
  EXPECT_FLOAT_EQ(t.at({0, 0}), 0.0F);
  EXPECT_FLOAT_EQ(t.at({1, 2}), 5.0F);
  t.at({1, 0}) = 9.0F;
  EXPECT_FLOAT_EQ(t[3], 9.0F);
  EXPECT_THROW(t.at({2, 0}), Error);
  EXPECT_THROW(t.at({0}), Error);
}

TEST(TensorTest, CopyIsShallowCloneIsDeep) {
  Tensor a = Tensor::zeros({4});
  Tensor shallow = a;
  Tensor deep = a.clone();
  a[0] = 7.0F;
  EXPECT_FLOAT_EQ(shallow[0], 7.0F);
  EXPECT_FLOAT_EQ(deep[0], 0.0F);
}

TEST(TensorTest, ReshapeSharesStorage) {
  Tensor a = Tensor::arange(6);
  Tensor b = a.reshape({2, 3});
  b.at({0, 1}) = 42.0F;
  EXPECT_FLOAT_EQ(a[1], 42.0F);
}

TEST(TensorTest, ReshapeInfersMinusOne) {
  Tensor a = Tensor::arange(12);
  Tensor b = a.reshape({3, -1});
  EXPECT_EQ(b.size(1), 4);
  EXPECT_THROW(a.reshape({5, -1}), Error);
  EXPECT_THROW(a.reshape({-1, -1}), Error);
}

TEST(TensorTest, ReshapeRejectsNumelChange) {
  EXPECT_THROW(Tensor::arange(6).reshape({4, 2}), Error);
}

TEST(TensorTest, PermuteTransposesData) {
  Tensor a({2, 3}, {0, 1, 2, 3, 4, 5});
  Tensor b = a.permute({1, 0});
  EXPECT_EQ(b.shape(), (Shape{3, 2}));
  EXPECT_FLOAT_EQ(b.at({0, 1}), 3.0F);
  EXPECT_FLOAT_EQ(b.at({2, 0}), 2.0F);
}

TEST(TensorTest, PermuteRoundTripIdentity) {
  Rng rng(1);
  Tensor a = Tensor::randn({2, 3, 4, 5}, rng);
  Tensor b = a.permute({3, 1, 0, 2}).permute({2, 1, 3, 0});
  EXPECT_EQ(b.shape(), a.shape());
  EXPECT_DOUBLE_EQ(max_abs_diff(a, b), 0.0);
}

TEST(TensorTest, Slice0CopiesRows) {
  Tensor a = Tensor::arange(12).reshape({4, 3});
  Tensor s = a.slice0(1, 3);
  EXPECT_EQ(s.shape(), (Shape{2, 3}));
  EXPECT_FLOAT_EQ(s.at({0, 0}), 3.0F);
  EXPECT_FLOAT_EQ(s.at({1, 2}), 8.0F);
  EXPECT_THROW(a.slice0(3, 5), Error);
}

TEST(TensorTest, InPlaceArithmetic) {
  Tensor a({3}, {1, 2, 3});
  Tensor b({3}, {10, 20, 30});
  a.add_(b);
  EXPECT_FLOAT_EQ(a[2], 33.0F);
  a.sub_(b);
  EXPECT_FLOAT_EQ(a[2], 3.0F);
  a.mul_(b);
  EXPECT_FLOAT_EQ(a[1], 40.0F);
  a.mul_scalar_(0.5F);
  EXPECT_FLOAT_EQ(a[1], 20.0F);
  a.add_scalar_(1.0F);
  EXPECT_FLOAT_EQ(a[0], 6.0F);
  a.axpy_(2.0F, b);
  EXPECT_FLOAT_EQ(a[0], 26.0F);
  a.clamp_(0.0F, 25.0F);
  EXPECT_FLOAT_EQ(a[0], 25.0F);
}

TEST(TensorTest, ShapeMismatchThrows) {
  Tensor a = Tensor::zeros({3});
  Tensor b = Tensor::zeros({4});
  EXPECT_THROW(a.add_(b), Error);
  EXPECT_THROW(a.mul_(b), Error);
}

TEST(TensorTest, Reductions) {
  Tensor a({4}, {-1, 2, -3, 4});
  EXPECT_DOUBLE_EQ(a.sum(), 2.0);
  EXPECT_DOUBLE_EQ(a.mean(), 0.5);
  EXPECT_FLOAT_EQ(a.max_value(), 4.0F);
  EXPECT_FLOAT_EQ(a.min_value(), -3.0F);
  EXPECT_EQ(a.argmax(), 3);
  EXPECT_NEAR(a.norm(), std::sqrt(30.0), 1e-6);
}

TEST(TensorTest, DensityCountsNonZeros) {
  Tensor a({4}, {0, 1, 0, 1});
  EXPECT_DOUBLE_EQ(a.density(), 0.5);
}

TEST(TensorTest, RandnStatistics) {
  Rng rng(7);
  Tensor t = Tensor::randn({10000}, rng);
  EXPECT_NEAR(t.mean(), 0.0, 0.05);
  const double var = t.norm() * t.norm() / 10000.0;
  EXPECT_NEAR(var, 1.0, 0.1);
}

TEST(TensorTest, BernoulliDensityMatchesP) {
  Rng rng(7);
  Tensor t = Tensor::bernoulli({10000}, rng, 0.3F);
  EXPECT_NEAR(t.density(), 0.3, 0.03);
}

TEST(OpsTest, AddSubMulScale) {
  Tensor a({2}, {1, 2});
  Tensor b({2}, {3, 4});
  EXPECT_FLOAT_EQ(add(a, b)[1], 6.0F);
  EXPECT_FLOAT_EQ(sub(a, b)[0], -2.0F);
  EXPECT_FLOAT_EQ(mul(a, b)[1], 8.0F);
  EXPECT_FLOAT_EQ(scale(a, 3.0F)[0], 3.0F);
}

TEST(OpsTest, Relu) {
  Tensor a({4}, {-1, 0, 2, -3});
  Tensor r = relu(a);
  EXPECT_FLOAT_EQ(r[0], 0.0F);
  EXPECT_FLOAT_EQ(r[2], 2.0F);
}

TEST(OpsTest, MatmulAgainstHandComputed) {
  Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b({3, 2}, {7, 8, 9, 10, 11, 12});
  Tensor c = matmul(a, b);
  EXPECT_FLOAT_EQ(c.at({0, 0}), 58.0F);
  EXPECT_FLOAT_EQ(c.at({0, 1}), 64.0F);
  EXPECT_FLOAT_EQ(c.at({1, 0}), 139.0F);
  EXPECT_FLOAT_EQ(c.at({1, 1}), 154.0F);
}

TEST(OpsTest, MatmulVariantsAgreeWithExplicitTranspose) {
  Rng rng(3);
  Tensor a = Tensor::randn({4, 6}, rng);
  Tensor b = Tensor::randn({4, 5}, rng);
  // a^T b via matmul_tn vs explicit transpose.
  Tensor ref = matmul(a.transpose2d(), b);
  EXPECT_LT(max_abs_diff(matmul_tn(a, b), ref), 1e-5);
  Tensor c = Tensor::randn({5, 6}, rng);
  Tensor ref2 = matmul(a, c.transpose2d());
  EXPECT_LT(max_abs_diff(matmul_nt(a, c), ref2), 1e-5);
}

TEST(OpsTest, GemmBetaAccumulates) {
  Tensor a({1, 2}, {1, 1});
  Tensor b({2, 1}, {2, 3});
  Tensor c({1, 1}, {10});
  gemm(false, false, 1, 1, 2, 1.0F, a.data(), b.data(), 1.0F, c.data());
  EXPECT_FLOAT_EQ(c[0], 15.0F);
  gemm(false, false, 1, 1, 2, 1.0F, a.data(), b.data(), 0.0F, c.data());
  EXPECT_FLOAT_EQ(c[0], 5.0F);
}

TEST(OpsTest, GemmParallelMatchesSerial) {
  Rng rng(11);
  Tensor a = Tensor::randn({64, 48}, rng);
  Tensor b = Tensor::randn({48, 40}, rng);
  Tensor serial;
  {
    GemmThreadsGuard guard(1);
    serial = matmul(a, b);
  }
  Tensor parallel;
  {
    GemmThreadsGuard guard(2);
    parallel = matmul(a, b);
  }
  EXPECT_EQ(gemm_threads(), 1);  // guards restored the default
  EXPECT_LT(max_abs_diff(serial, parallel), 1e-5);
}

TEST(OpsTest, GemmThreadsGuardRestoresOnException) {
  const int before = gemm_threads();
  try {
    GemmThreadsGuard guard(4);
    throw std::runtime_error("boom");
  } catch (const std::runtime_error&) {
  }
  EXPECT_EQ(gemm_threads(), before);
}

TEST(OpsTest, GemmNullOutputFailsLoudly) {
  Tensor a = Tensor::ones({2, 3});
  Tensor b = Tensor::ones({3, 2});
  EXPECT_THROW(
      gemm(false, false, 2, 2, 3, 1.0F, a.data(), b.data(), 0.0F, nullptr),
      Error);
}

TEST(OpsTest, GemmNullInputsFailLoudly) {
  Tensor b = Tensor::ones({3, 2});
  Tensor c = Tensor::zeros({2, 2});
  EXPECT_THROW(
      gemm(false, false, 2, 2, 3, 1.0F, nullptr, b.data(), 0.0F, c.data()),
      Error);
  Tensor a = Tensor::ones({2, 3});
  EXPECT_THROW(
      gemm(false, false, 2, 2, 3, 1.0F, a.data(), nullptr, 0.0F, c.data()),
      Error);
  // Degenerate shapes never dereference the pointers, so null stays legal.
  EXPECT_NO_THROW(
      gemm(false, false, 0, 0, 0, 1.0F, nullptr, nullptr, 0.0F, nullptr));
  // alpha == 0 only scales C; A and B may be null.
  EXPECT_NO_THROW(
      gemm(false, false, 2, 2, 3, 0.0F, nullptr, nullptr, 0.5F, c.data()));
}

TEST(RngTest, IndexRejectsNonPositiveRange) {
  Rng rng(7);
  EXPECT_THROW(rng.index(0), Error);
  EXPECT_THROW(rng.index(-3), Error);
  const int64_t v = rng.index(5);  // still usable after the failed calls
  EXPECT_GE(v, 0);
  EXPECT_LT(v, 5);
}

TEST(OpsTest, SoftmaxRowsSumToOne) {
  Rng rng(5);
  Tensor logits = Tensor::randn({6, 10}, rng);
  Tensor p = softmax(logits);
  for (int64_t i = 0; i < 6; ++i) {
    double s = 0.0;
    for (int64_t j = 0; j < 10; ++j) s += p.at({i, j});
    EXPECT_NEAR(s, 1.0, 1e-5);
  }
}

TEST(OpsTest, LogSoftmaxShiftInvariant) {
  Tensor a({1, 3}, {1, 2, 3});
  Tensor b({1, 3}, {101, 102, 103});
  EXPECT_LT(max_abs_diff(log_softmax(a), log_softmax(b)), 1e-4);
}

TEST(OpsTest, ArgmaxRows) {
  Tensor logits({2, 3}, {0, 5, 1, 9, 2, 3});
  auto idx = argmax_rows(logits);
  EXPECT_EQ(idx[0], 1);
  EXPECT_EQ(idx[1], 0);
}

TEST(Im2ColTest, IdentityKernelReproducesImage) {
  ConvGeometry g{.in_channels = 2, .in_h = 3, .in_w = 3};
  Rng rng(2);
  Tensor img = Tensor::randn({2, 3, 3}, rng);
  Tensor col({g.col_rows(), g.col_cols()});
  im2col(img.data(), g, col.data());
  EXPECT_LT(max_abs_diff(col.reshape({2, 3, 3}), img), 1e-7);
}

TEST(Im2ColTest, PaddingProducesZeroBorder) {
  ConvGeometry g{.in_channels = 1, .in_h = 2, .in_w = 2,
                 .kernel_h = 3, .kernel_w = 3, .pad_h = 1, .pad_w = 1};
  Tensor img({1, 2, 2}, {1, 2, 3, 4});
  Tensor col({g.col_rows(), g.col_cols()});
  im2col(img.data(), g, col.data());
  // kernel offset (0,0) at output (0,0) looks at input (-1,-1) -> 0.
  EXPECT_FLOAT_EQ(col.at({0, 0}), 0.0F);
  // kernel center (1,1) at output (0,0) is input (0,0) = 1.
  EXPECT_FLOAT_EQ(col.at({4, 0}), 1.0F);
}

TEST(Im2ColTest, StrideSkipsPositions) {
  ConvGeometry g{.in_channels = 1, .in_h = 4, .in_w = 4,
                 .kernel_h = 2, .kernel_w = 2, .stride_h = 2, .stride_w = 2};
  EXPECT_EQ(g.out_h(), 2);
  EXPECT_EQ(g.out_w(), 2);
  Tensor img = Tensor::arange(16).reshape({1, 4, 4});
  Tensor col({g.col_rows(), g.col_cols()});
  im2col(img.data(), g, col.data());
  // top-left patch starts at 0, next patch to the right starts at 2.
  EXPECT_FLOAT_EQ(col.at({0, 0}), 0.0F);
  EXPECT_FLOAT_EQ(col.at({0, 1}), 2.0F);
  EXPECT_FLOAT_EQ(col.at({0, 2}), 8.0F);
}

// col2im is the adjoint of im2col: <im2col(x), y> == <x, col2im(y)>.
TEST(Im2ColTest, Col2ImIsAdjointOfIm2Col) {
  ConvGeometry g{.in_channels = 3, .in_h = 5, .in_w = 4,
                 .kernel_h = 3, .kernel_w = 1, .stride_h = 2, .stride_w = 1,
                 .pad_h = 1, .pad_w = 0};
  Rng rng(9);
  Tensor x = Tensor::randn({g.in_channels, g.in_h, g.in_w}, rng);
  Tensor y = Tensor::randn({g.col_rows(), g.col_cols()}, rng);
  Tensor col({g.col_rows(), g.col_cols()});
  im2col(x.data(), g, col.data());
  Tensor back = Tensor::zeros({g.in_channels, g.in_h, g.in_w});
  col2im(y.data(), g, back.data());
  double lhs = 0.0, rhs = 0.0;
  for (int64_t i = 0; i < col.numel(); ++i) lhs += col[i] * y[i];
  for (int64_t i = 0; i < x.numel(); ++i) rhs += x[i] * back[i];
  EXPECT_NEAR(lhs, rhs, 1e-3 * std::max(1.0, std::fabs(lhs)));
}

TEST(OpsTest, ExpAndSqrtElementwise) {
  Tensor a({3}, {0.0F, 1.0F, 2.0F});
  Tensor e = exp(a);
  EXPECT_FLOAT_EQ(e[0], 1.0F);
  EXPECT_NEAR(e[1], 2.71828F, 1e-4);
  Tensor b({3}, {0.0F, 4.0F, 9.0F});
  Tensor s = sqrt(b);
  EXPECT_FLOAT_EQ(s[1], 2.0F);
  EXPECT_FLOAT_EQ(s[2], 3.0F);
}

TEST(TensorTest, ToStringShowsShapeAndTruncates) {
  Tensor t = Tensor::arange(100);
  const std::string s = t.to_string(4);
  EXPECT_NE(s.find("[100]"), std::string::npos);
  EXPECT_NE(s.find("..."), std::string::npos);
  EXPECT_EQ(Tensor().to_string(), "Tensor(undefined)");
}

TEST(TensorTest, ShapeStrFormatting) {
  EXPECT_EQ(shape_str({2, 3, 4}), "[2, 3, 4]");
  EXPECT_EQ(shape_str({}), "[]");
}

TEST(OpsTest, GemmThreadSettingValidated) {
  EXPECT_THROW(set_gemm_threads(0), Error);
  set_gemm_threads(2);
  EXPECT_EQ(gemm_threads(), 2);
  set_gemm_threads(1);
}

TEST(TensorTest, UndefinedTensorOperationsThrow) {
  Tensor t;
  EXPECT_THROW(t.data(), Error);
  EXPECT_THROW(t.fill_(1.0F), Error);
  EXPECT_THROW(t.reshape({1}), Error);
}

TEST(RandomTest, KaimingVarianceMatchesFanIn) {
  Rng rng(21);
  const int64_t fan_in = 64;
  Tensor w = kaiming_normal({20000}, fan_in, rng);
  const double var = w.norm() * w.norm() / 20000.0;
  EXPECT_NEAR(var, 2.0 / fan_in, 0.2 * 2.0 / fan_in);
}

}  // namespace
}  // namespace ttsnn
