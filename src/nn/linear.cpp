#include "nn/linear.h"

#include "tensor/gemm.h"
#include "tensor/random.h"

namespace ttsnn {

Linear::Linear(int64_t in_features, int64_t out_features, Rng& rng, bool bias)
    : in_(in_features), out_(out_features), has_bias_(bias) {
  TTSNN_CHECK(in_ > 0 && out_ > 0, "Linear features must be positive");
  weight_ = Parameter("linear.weight", kaiming_normal({out_, in_}, in_, rng));
  if (has_bias_) bias_ = Parameter("linear.bias", Tensor::zeros({out_}));
}

Tensor Linear::forward(const Tensor& x) {
  TTSNN_CHECK(x.size(-1) == in_, "Linear expected last dim " << in_ << ", got "
                                                             << shape_str(x.shape()));
  cached_input_ = training_ ? x : Tensor();
  const int64_t b = x.numel() / in_;
  Shape out_shape = x.shape();
  out_shape[out_shape.size() - 1] = out_;
  Tensor out = Tensor::empty(out_shape);
  linear_forward_into(b, in_, out_, x.data(), weight_.value.data(),
                      has_bias_ ? bias_.value.data() : nullptr, out.data());
  return out;
}

void linear_forward_into(int64_t b, int64_t in_f, int64_t out_f, const float* x,
                         const float* w, const float* bias, float* out) {
  // out [b, out_f] = x [b, in_f] * W^T [in_f, out_f]
  gemm(false, true, b, out_f, in_f, 1.0F, x, w, 0.0F, out);
  if (bias != nullptr) linear_add_bias(b, out_f, bias, out);
}

void linear_add_bias(int64_t b, int64_t out_f, const float* bias, float* out) {
  for (int64_t i = 0; i < b; ++i) {
    for (int64_t j = 0; j < out_f; ++j) out[i * out_f + j] += bias[j];
  }
}

Tensor Linear::backward(const Tensor& grad_out) {
  TTSNN_CHECK(cached_input_.defined(), "Linear::backward before forward");
  const int64_t b = cached_input_.numel() / in_;
  TTSNN_CHECK(grad_out.numel() == b * out_, "Linear grad shape mismatch");
  // dW [out, in] += g^T [out, b] * x [b, in]
  gemm(true, false, out_, in_, b, 1.0F, grad_out.data(), cached_input_.data(),
       1.0F, weight_.grad.data());
  if (has_bias_) {
    float* gb = bias_.grad.data();
    const float* g = grad_out.data();
    for (int64_t i = 0; i < b; ++i) {
      for (int64_t j = 0; j < out_; ++j) gb[j] += g[i * out_ + j];
    }
  }
  // dx [b, in] = g [b, out] * W [out, in]
  Tensor grad_in = Tensor::empty(cached_input_.shape());
  gemm(false, false, b, in_, out_, 1.0F, grad_out.data(), weight_.value.data(),
       0.0F, grad_in.data());
  return grad_in;
}

void Linear::collect_parameters(std::vector<Parameter*>& out) {
  out.push_back(&weight_);
  if (has_bias_) out.push_back(&bias_);
}

void Linear::describe(ShapeState& s, std::vector<LayerDesc>& out) const {
  LayerDesc d;
  d.kind = "linear";
  d.in_c = in_;
  d.out_c = out_;
  d.params = out_ * in_ + (has_bias_ ? out_ : 0);
  d.macs = out_ * in_;
  out.push_back(d);
  s.c = out_;
  s.h = 1;
  s.w = 1;
}

}  // namespace ttsnn
