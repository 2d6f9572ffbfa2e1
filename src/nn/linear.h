#pragma once

/// \file linear.h
/// Fully-connected layer (the classifier head; never TT-decomposed per
/// Algorithm 1, which keeps the first conv and the final classifier dense).

#include "nn/module.h"

namespace ttsnn {

class Linear : public Module {
 public:
  Linear(int64_t in_features, int64_t out_features, Rng& rng, bool bias = true);

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  void collect_parameters(std::vector<Parameter*>& out) override;
  void describe(ShapeState& s, std::vector<LayerDesc>& out) const override;
  void clear_cache() override { cached_input_ = Tensor(); }
  std::string name() const override { return "Linear"; }

  Parameter& weight() { return weight_; }
  const Parameter& weight() const { return weight_; }
  Parameter& bias() { return bias_; }
  const Parameter& bias() const { return bias_; }
  bool has_bias() const { return has_bias_; }
  int64_t in_features() const { return in_; }
  int64_t out_features() const { return out_; }

 private:
  int64_t in_ = 0;
  int64_t out_ = 0;
  bool has_bias_ = true;
  Parameter weight_;  ///< [out, in]
  Parameter bias_;    ///< [out]
  Tensor cached_input_;
};

/// Linear's forward over raw buffers, the kernel behind both the module and
/// infer::Engine's linear op: out [b, out_f] = x [b, in_f] * w^T for w
/// [out_f, in_f] (every element written), then linear_add_bias when `bias`
/// is non-null.
void linear_forward_into(int64_t b, int64_t in_f, int64_t out_f, const float* x,
                         const float* w, const float* bias, float* out);

/// The bias pass alone: out[i, j] += bias[j] over b rows of out_f — also run
/// after the int8 serving GEMM, which replaces only the product.
void linear_add_bias(int64_t b, int64_t out_f, const float* bias, float* out);

}  // namespace ttsnn
