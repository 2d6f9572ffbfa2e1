#include "tensor/spike_plane.h"

#include "util/common.h"

namespace ttsnn {

void SpikePlane::clear() {
  rows = 0;
  cols = 0;
  row_ptr.clear();
  col_idx.clear();
}

bool SpikePlane::build(const float* data, int64_t r, int64_t c,
                       double max_density) {
  clear();
  TTSNN_CHECK(r >= 0 && c >= 0, "SpikePlane: negative extents");
  TTSNN_CHECK(data != nullptr || r * c == 0, "SpikePlane: null data");
  const auto max_nnz = static_cast<int64_t>(
      max_density * static_cast<double>(r) * static_cast<double>(c));
  rows = r;
  cols = c;
  row_ptr.reserve(static_cast<size_t>(r) + 1);
  row_ptr.push_back(0);
  for (int64_t i = 0; i < r; ++i) {
    const float* row = data + i * c;
    for (int64_t j = 0; j < c; ++j) {
      const float v = row[j];
      if (v == 0.0F) continue;
      if (v != 1.0F) {  // not a spike matrix — dense kernels handle it
        clear();
        return false;
      }
      col_idx.push_back(static_cast<int32_t>(j));
    }
    row_ptr.push_back(nnz());
    if (nnz() > max_nnz) {  // too dense to beat the vectorized dense path
      clear();
      return false;
    }
  }
  return true;
}

void spmm_nn_rows(int64_t m, int64_t n, int64_t k, float alpha, const float* a,
                  const SpikePlane& plane, float* c) {
  TTSNN_CHECK(plane.rows == k && plane.cols == n,
              "spmm_nn_rows: plane is " << plane.rows << "x" << plane.cols
                                        << ", expected " << k << "x" << n);
  const int64_t* rp = plane.row_ptr.data();
  const int32_t* ci = plane.col_idx.data();
  for (int64_t i = 0; i < m; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    for (int64_t p = 0; p < k; ++p) {
      const float av = alpha * arow[p];
      if (av == 0.0F) continue;  // same zero-skip as the dense kernels
      const int64_t e = rp[p + 1];
      for (int64_t idx = rp[p]; idx < e; ++idx) {
        crow[ci[idx]] += av;  // b value is exactly 1: accumulate, no multiply
      }
    }
  }
}

void spmm_nt_rows(int64_t m, int64_t n, int64_t k, float alpha, const float* a,
                  const SpikePlane& plane, float* c) {
  TTSNN_CHECK(plane.rows == n && plane.cols == k,
              "spmm_nt_rows: plane is " << plane.rows << "x" << plane.cols
                                        << ", expected " << n << "x" << k);
  const int64_t* rp = plane.row_ptr.data();
  const int32_t* ci = plane.col_idx.data();
  for (int64_t i = 0; i < m; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    for (int64_t j = 0; j < n; ++j) {
      const int64_t e = rp[j + 1];
      double s = 0.0;
      for (int64_t idx = rp[j]; idx < e; ++idx) {
        s += static_cast<double>(arow[ci[idx]]);  // b value is exactly 1
      }
      crow[j] += alpha * static_cast<float>(s);
    }
  }
}

}  // namespace ttsnn
