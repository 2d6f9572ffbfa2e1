#include "tensor/gemm.h"

#include <algorithm>

#include "tensor/simd.h"
#include "tensor/spike_plane.h"
#include "util/common.h"

namespace ttsnn {

namespace {

/// Minimum problem size for attempting a SpikePlane build on B (the build
/// scans k*n floats; at m >= 4 that is at most 1/8 of the nominal work).
constexpr int64_t kSparseThreshold = 1 << 14;

/// True when more than `percent` % of a strided sample of the matrix is zero.
/// The O(1) sample decides whether a SpikePlane build on B is worth trying
/// for O(m*n*k) work.
bool sample_zeros_exceed(const float* p, int64_t len, int64_t percent) {
  constexpr int64_t kSamples = 256;
  // Odd stride: a power-of-two stride over a power-of-two row length would
  // sample the same few columns of every row, misreading structured matrices.
  const int64_t stride = std::max<int64_t>(1, len / kSamples) | 1;
  int64_t seen = 0, zeros = 0;
  for (int64_t i = 0; i < len; i += stride, ++seen) {
    if (p[i] == 0.0F) ++zeros;
  }
  return zeros * 100 > seen * percent;
}

/// Above this spike density the gathered-accumulation path loses to the
/// vectorized dense kernels (one scalar add + index load per non-zero vs an
/// 8-wide multiply-add per 8 elements) and the build is abandoned.
constexpr double kSparseMaxDensity = 0.25;

void scale_c(float beta, int64_t mn, float* c) {
  if (beta == 1.0F) return;
  if (beta == 0.0F) {
    std::fill(c, c + mn, 0.0F);
    return;
  }
  simd::scale(mn, beta, c);
}

}  // namespace

void gemm(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k,
          float alpha, const float* a, const float* b, float beta, float* c) {
  TTSNN_CHECK(m >= 0 && n >= 0 && k >= 0, "negative gemm dims");
  TTSNN_CHECK(c != nullptr || m * n == 0, "gemm: null C with m*n > 0");
  TTSNN_CHECK((a != nullptr && b != nullptr) ||
                  m * n * k == 0 || alpha == 0.0F,
              "gemm: null A/B with a non-empty product");
  scale_c(beta, m * n, c);
  if (m == 0 || n == 0 || k == 0 || alpha == 0.0F) return;

  // A^T with B^T is not needed anywhere in the library.
  TTSNN_CHECK(!(trans_a && trans_b), "gemm: TT case unsupported");

  // The B operand of the conv GEMMs is the (im2col'd) spike activation; when
  // it samples sparse, one O(k*n) CSR build turns the O(m*n*k) product into
  // gathered accumulation over the non-zeros. The build itself verifies the
  // matrix is binary and bails above kSparseMaxDensity, so a false positive
  // from the sample costs one scan, never a wrong kernel.
  SpikePlane plane;
  bool sparse = false;
  if (!trans_a && m >= 4 && m * n * k >= kSparseThreshold) {
    const int64_t b_rows = trans_b ? n : k;
    const int64_t b_cols = trans_b ? k : n;
    sparse = sample_zeros_exceed(b, b_rows * b_cols, 70) &&
             plane.build(b, b_rows, b_cols, kSparseMaxDensity);
  }

  if (sparse) {
    if (trans_b) {
      spmm_nt_rows(m, n, k, alpha, a, plane, c);
    } else {
      spmm_nn_rows(m, n, k, alpha, a, plane, c);
    }
  } else if (trans_a) {
    simd::gemm_tn_rows(m, n, k, alpha, a, b, c);
  } else if (trans_b) {
    simd::gemm_nt_rows(m, n, k, alpha, a, b, c);
  } else {
    simd::gemm_nn_rows(m, n, k, alpha, a, b, c);
  }
}

}  // namespace ttsnn
