// SpikePlane build semantics and the sparse-vs-dense GEMM identity gemm()
// relies on: at every spike density the gathered-accumulation path must
// return the same BITS as the scalar dense row kernel, because gemm()
// switches between them based on a runtime sample.

#include "tensor/spike_plane.h"

#include <cstring>

#include <gtest/gtest.h>

#include "tensor/gemm.h"
#include "tensor/ops.h"
#include "tensor/simd.h"
#include "tensor/tensor.h"

namespace ttsnn {
namespace {

TEST(SpikePlaneTest, BuildIndexesBinaryMatrix) {
  // 3x4: rows with 2, 0, 3 spikes.
  const float data[] = {1, 0, 0, 1,
                        0, 0, 0, 0,
                        1, 1, 0, 1};
  SpikePlane plane;
  ASSERT_TRUE(plane.build(data, 3, 4));
  EXPECT_EQ(plane.rows, 3);
  EXPECT_EQ(plane.cols, 4);
  EXPECT_EQ(plane.nnz(), 5);
  ASSERT_EQ(plane.row_ptr.size(), 4U);
  EXPECT_EQ(plane.row_ptr[0], 0);
  EXPECT_EQ(plane.row_ptr[1], 2);
  EXPECT_EQ(plane.row_ptr[2], 2);
  EXPECT_EQ(plane.row_ptr[3], 5);
  const int32_t expect_cols[] = {0, 3, 0, 1, 3};
  for (size_t i = 0; i < 5; ++i) EXPECT_EQ(plane.col_idx[i], expect_cols[i]);
  EXPECT_NEAR(plane.density(), 5.0 / 12.0, 1e-12);
}

TEST(SpikePlaneTest, BuildRejectsNonBinary) {
  const float data[] = {1, 0, 0.5F, 1};
  SpikePlane plane;
  EXPECT_FALSE(plane.build(data, 2, 2));
  EXPECT_EQ(plane.rows, 0);
  EXPECT_EQ(plane.nnz(), 0);
}

TEST(SpikePlaneTest, BuildRejectsAboveMaxDensity) {
  Rng rng(3);
  Tensor dense_spikes = Tensor::bernoulli({32, 32}, rng, 0.9F);
  SpikePlane plane;
  EXPECT_FALSE(plane.build(dense_spikes.data(), 32, 32, 0.25));
  // Unlimited build of the same matrix succeeds.
  EXPECT_TRUE(plane.build(dense_spikes.data(), 32, 32));
}

/// C + alpha * A * op(B) on the scalar dense row kernel — the reference.
Tensor dense_ref(bool trans_b, int64_t m, int64_t n, int64_t k, float alpha,
                 const Tensor& a, const Tensor& b, const Tensor& c0) {
  simd::LevelGuard scalar(simd::Level::kScalar);
  Tensor c = c0.clone();
  if (trans_b) {
    simd::gemm_nt_rows(0, m, n, k, alpha, a.data(), b.data(), c.data());
  } else {
    simd::gemm_nn_rows(0, m, n, k, alpha, a.data(), b.data(), c.data());
  }
  return c;
}

/// The full gemm() call with its own kernel selection (beta = 0).
Tensor run_gemm(bool trans_b, int64_t m, int64_t n, int64_t k, const Tensor& a,
                const Tensor& b) {
  Tensor c = Tensor::zeros({m, n});
  gemm(false, trans_b, m, n, k, 1.0F, a.data(), b.data(), 0.0F, c.data());
  return c;
}

bool bit_identical(const Tensor& x, const Tensor& y) {
  return x.numel() == y.numel() &&
         std::memcmp(x.data(), y.data(),
                     static_cast<size_t>(x.numel()) * sizeof(float)) == 0;
}

// The PR-3 acceptance densities: empty, ultra-sparse, paper-typical, full.
const float kDensities[] = {0.0F, 0.03F, 0.3F, 1.0F};

TEST(SpikePlaneGemmTest, SparseMatchesNaiveBitwiseAcrossDensities) {
  // The spmm kernels are called directly, so every density runs them — gemm()
  // itself would only pick them below kSparseMaxDensity.
  const int64_t shapes[][3] = {{4, 9, 16}, {17, 33, 65}, {64, 100, 128}};
  Rng rng(11);
  for (const auto& s : shapes) {
    const int64_t m = s[0], n = s[1], k = s[2];
    for (float density : kDensities) {
      for (bool trans_b : {false, true}) {
        Tensor a = Tensor::randn({m, k}, rng);
        Tensor b = trans_b ? Tensor::bernoulli({n, k}, rng, density)
                           : Tensor::bernoulli({k, n}, rng, density);
        // A non-zero C exercises the accumulate path the dW GEMMs use;
        // alpha != 1 exercises the scaling.
        Tensor c0 = Tensor::randn({m, n}, rng);
        Tensor ref = dense_ref(trans_b, m, n, k, 0.5F, a, b, c0);
        SpikePlane plane;
        ASSERT_TRUE(trans_b ? plane.build(b.data(), n, k)
                            : plane.build(b.data(), k, n));
        Tensor out = c0.clone();
        if (trans_b) {
          spmm_nt_rows(0, m, n, k, 0.5F, a.data(), plane, out.data());
        } else {
          spmm_nn_rows(0, m, n, k, 0.5F, a.data(), plane, out.data());
        }
        EXPECT_TRUE(bit_identical(ref, out))
            << (trans_b ? "nt" : "nn") << " m=" << m << " n=" << n
            << " k=" << k << " density=" << density;
      }
    }
  }
}

TEST(SpikePlaneGemmTest, AutoPathFallsBackOnSparseNonBinaryB) {
  // 90% zeros passes gemm()'s sparsity sample, but the values are not
  // spikes: the SpikePlane build must bail and the dense kernel must run.
  Rng rng(13);
  const int64_t m = 8, n = 64, k = 64;
  Tensor a = Tensor::randn({m, k}, rng);
  for (bool trans_b : {false, true}) {
    Tensor b =
        trans_b ? Tensor::randn({n, k}, rng) : Tensor::randn({k, n}, rng);
    b.mul_(Tensor::bernoulli(b.shape(), rng, 0.1F));
    const Tensor ref =
        dense_ref(trans_b, m, n, k, 1.0F, a, b, Tensor::zeros({m, n}));
    EXPECT_TRUE(bit_identical(ref, run_gemm(trans_b, m, n, k, a, b)))
        << (trans_b ? "nt" : "nn");
  }
}

TEST(SpikePlaneGemmTest, AutoSelectionStaysBitIdenticalOnSpikes) {
  // A realistic conv-forward shape: dense weights x binary spike columns,
  // large enough that gemm()'s sparse rule fires. Whatever path it picks
  // must agree with the scalar dense kernel bit-for-bit.
  Rng rng(17);
  const int64_t m = 64, n = 256, k = 288;
  Tensor a = Tensor::randn({m, k}, rng);
  for (float density : {0.05F, 0.2F}) {
    Tensor b = Tensor::bernoulli({k, n}, rng, density);
    const Tensor ref =
        dense_ref(false, m, n, k, 1.0F, a, b, Tensor::zeros({m, n}));
    EXPECT_TRUE(bit_identical(ref, run_gemm(false, m, n, k, a, b)))
        << "density=" << density;
  }
}

}  // namespace
}  // namespace ttsnn
