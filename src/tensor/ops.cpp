#include "tensor/ops.h"

#include <algorithm>
#include <cmath>

#include "tensor/gemm.h"
#include "tensor/simd.h"

namespace ttsnn {

Tensor zeros_like(const Tensor& t) { return Tensor::zeros(t.shape()); }

Tensor empty_like(const Tensor& t) { return Tensor::empty(t.shape()); }

namespace {

Tensor binary_op(const Tensor& a, const Tensor& b, float sign) {
  TTSNN_CHECK(a.same_shape(b), "elementwise shape mismatch "
                                   << shape_str(a.shape()) << " vs "
                                   << shape_str(b.shape()));
  Tensor out = a.clone();
  out.axpy_(sign, b);
  return out;
}

}  // namespace

Tensor add(const Tensor& a, const Tensor& b) { return binary_op(a, b, 1.0F); }

Tensor sub(const Tensor& a, const Tensor& b) { return binary_op(a, b, -1.0F); }

Tensor mul(const Tensor& a, const Tensor& b) {
  Tensor out = a.clone();
  out.mul_(b);
  return out;
}

Tensor scale(const Tensor& a, float s) {
  Tensor out = a.clone();
  out.scale_(s);
  return out;
}

Tensor relu(const Tensor& a) {
  Tensor out = a.clone();
  simd::relu(out.numel(), out.data());
  return out;
}

Tensor exp(const Tensor& a) {
  Tensor out = a.clone();
  out.exp_();
  return out;
}

Tensor sqrt(const Tensor& a) {
  Tensor out = a.clone();
  float* p = out.data();
  const int64_t n = out.numel();
  for (int64_t i = 0; i < n; ++i) p[i] = std::sqrt(p[i]);
  return out;
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  TTSNN_CHECK(a.dim() == 2 && b.dim() == 2, "matmul expects 2-D operands");
  const int64_t m = a.size(0), k = a.size(1), n = b.size(1);
  TTSNN_CHECK(b.size(0) == k, "matmul inner dim mismatch "
                                  << shape_str(a.shape()) << " x "
                                  << shape_str(b.shape()));
  Tensor out = Tensor::empty({m, n});
  gemm(false, false, m, n, k, 1.0F, a.data(), b.data(), 0.0F, out.data());
  return out;
}

Tensor matmul_tn(const Tensor& a, const Tensor& b) {
  TTSNN_CHECK(a.dim() == 2 && b.dim() == 2, "matmul_tn expects 2-D operands");
  const int64_t k = a.size(0), m = a.size(1), n = b.size(1);
  TTSNN_CHECK(b.size(0) == k, "matmul_tn inner dim mismatch");
  Tensor out = Tensor::empty({m, n});
  gemm(true, false, m, n, k, 1.0F, a.data(), b.data(), 0.0F, out.data());
  return out;
}

Tensor matmul_nt(const Tensor& a, const Tensor& b) {
  TTSNN_CHECK(a.dim() == 2 && b.dim() == 2, "matmul_nt expects 2-D operands");
  const int64_t m = a.size(0), k = a.size(1), n = b.size(0);
  TTSNN_CHECK(b.size(1) == k, "matmul_nt inner dim mismatch");
  Tensor out = Tensor::empty({m, n});
  gemm(false, true, m, n, k, 1.0F, a.data(), b.data(), 0.0F, out.data());
  return out;
}

Tensor log_softmax(const Tensor& logits) {
  TTSNN_CHECK(logits.dim() == 2, "log_softmax expects [n, c]");
  const int64_t n = logits.size(0), c = logits.size(1);
  Tensor out = empty_like(logits);
  log_softmax_rows(logits.data(), n, c, out.data());
  return out;
}

void log_softmax_rows(const float* src, int64_t n, int64_t c, float* dst) {
  for (int64_t i = 0; i < n; ++i) {
    const float* row = src + i * c;
    float* orow = dst + i * c;
    const float mx = *std::max_element(row, row + c);
    double z = 0.0;
    for (int64_t j = 0; j < c; ++j) z += std::exp(static_cast<double>(row[j] - mx));
    const float logz = static_cast<float>(std::log(z)) + mx;
    for (int64_t j = 0; j < c; ++j) orow[j] = row[j] - logz;
  }
}

Tensor softmax(const Tensor& logits) {
  return log_softmax(logits).exp_();
}

std::vector<int64_t> argmax_rows(const Tensor& logits) {
  TTSNN_CHECK(logits.dim() == 2, "argmax_rows expects [n, c]");
  const int64_t n = logits.size(0), c = logits.size(1);
  std::vector<int64_t> out(static_cast<size_t>(n));
  const float* src = logits.data();
  for (int64_t i = 0; i < n; ++i) {
    const float* row = src + i * c;
    out[static_cast<size_t>(i)] = std::distance(row, std::max_element(row, row + c));
  }
  return out;
}

double max_abs_diff(const Tensor& a, const Tensor& b) {
  TTSNN_CHECK(a.same_shape(b), "max_abs_diff shape mismatch");
  const float* pa = a.data();
  const float* pb = b.data();
  const int64_t n = a.numel();
  double m = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    m = std::max(m, static_cast<double>(std::fabs(pa[i] - pb[i])));
  }
  return m;
}

}  // namespace ttsnn
