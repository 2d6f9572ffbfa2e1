#pragma once

/// \file spike_plane.h
/// Compressed representation of binary spike activations.
///
/// SNN activations are overwhelmingly zero (the paper's motivation; related
/// work measures ~0.3 spikes per neuron), and after the im2col lowering the
/// spike tensor shows up as one operand of every convolution GEMM. A
/// SpikePlane is a CSR index set over such a matrix — values are not stored
/// because a spike is exactly 1.0f — built once per timestep/batch plane and
/// consumed by the spmm kernels below, which replace the dense inner products
/// with gathered accumulation: C[i, j] += a instead of C[i, j] += a * b.
///
/// Bit-identity: a skipped zero entry would have contributed a * 0.0f = ±0.0
/// to an accumulator that is never -0.0 (it starts at +0.0 and IEEE-754
/// round-to-nearest cancellation yields +0.0), and a hit entry contributes
/// a * 1.0f == a exactly. Iteration stays ascending in the contraction index,
/// so for finite inputs the spmm kernels return the same bits as the dense
/// simd::gemm_nn_rows / gemm_nt_rows (simd.h). Tests pin this at spike
/// densities {0, 0.03, 0.3, 1}.

#include <cstdint>
#include <vector>

namespace ttsnn {

struct SpikePlane {
  int64_t rows = 0;
  int64_t cols = 0;
  /// Per-row slices of col_idx: row r's column indices are
  /// col_idx[row_ptr[r] .. row_ptr[r + 1]).
  std::vector<int64_t> row_ptr;
  std::vector<int32_t> col_idx;

  int64_t nnz() const { return static_cast<int64_t>(col_idx.size()); }
  double density() const {
    return rows * cols == 0 ? 0.0
                            : static_cast<double>(nnz()) /
                                  static_cast<double>(rows * cols);
  }

  /// Builds the index set from a row-major [rows, cols] matrix. Returns false
  /// — leaving *this cleared — when a value other than exactly 0.0f / 1.0f is
  /// found, or when more than max_density * rows * cols entries are set (the
  /// point where gathered accumulation stops beating the vectorized dense
  /// kernels); callers fall back to the dense path on false.
  bool build(const float* data, int64_t rows, int64_t cols,
             double max_density = 1.0);

  void clear();
};

/// C += alpha * A * B for row-major A [m, k], C [m, n], where `plane`
/// indexes B [k, n]. Zero A elements are skipped exactly like the dense
/// kernels' spike skip.
void spmm_nn_rows(int64_t m, int64_t n, int64_t k, float alpha, const float* a,
                  const SpikePlane& plane, float* c);

/// C += alpha * A * B^T for A [m, k], C [m, n], where `plane` indexes
/// B [n, k]. Accumulates each dot product in double in ascending index
/// order, matching simd::gemm_nt_rows bit-for-bit.
void spmm_nt_rows(int64_t m, int64_t n, int64_t k, float alpha, const float* a,
                  const SpikePlane& plane, float* c);

}  // namespace ttsnn
