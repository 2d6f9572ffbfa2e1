#pragma once

/// \file batchnorm.h
/// Batch normalization for spiking sequences [T, N, C, H, W] in three
/// flavors used across the paper's experiments:
///
///  - kPerStep: statistics over (N, H, W) independently per timestep, shared
///    affine — the vanilla BN inside MS-ResNet (Algorithm 1).
///  - kTdBn:   threshold-dependent BN [26]: joint statistics over
///    (T, N, H, W) and normalization scaled by alpha * V_th.
///  - kTebn:   temporal effective BN [27]: joint statistics plus a learnable
///    per-timestep scale p_t on the normalized value.
///
/// Running statistics are tracked with EMA for eval mode in all flavors.

#include "nn/module.h"

namespace ttsnn {

class BatchNorm : public Module {
 public:
  enum class Mode { kPerStep, kTdBn, kTebn };

  struct Options {
    int64_t channels = 0;
    Mode mode = Mode::kPerStep;
    float eps = 1e-5F;
    float momentum = 0.1F;
    /// tdBN's alpha * V_th pre-affine scale (1.0 for other modes).
    float alpha_vth = 1.0F;
    /// Number of timesteps; required for kTebn (size of the p_t vector).
    int64_t timesteps = 0;
  };

  explicit BatchNorm(Options opts);

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  void collect_parameters(std::vector<Parameter*>& out) override;
  void collect_buffers(std::vector<BufferRef>& out) override;
  void describe(ShapeState& s, std::vector<LayerDesc>& out) const override;
  void clear_cache() override;
  std::string name() const override { return "BatchNorm"; }

  const Options& options() const { return opts_; }
  Parameter& gamma() { return gamma_; }
  const Parameter& gamma() const { return gamma_; }
  Parameter& beta() { return beta_; }
  const Parameter& beta() const { return beta_; }
  /// TEBN per-timestep scales (defined only in kTebn mode).
  Parameter& step_scale() { return step_scale_; }
  const Parameter& step_scale() const { return step_scale_; }
  /// EMA statistics used in eval mode (read by the inference lowering pass).
  const Tensor& running_mean() const { return running_mean_; }
  const Tensor& running_var() const { return running_var_; }

 private:
  Options opts_;
  Parameter gamma_;       ///< [C], no weight decay
  Parameter beta_;        ///< [C], no weight decay
  Parameter step_scale_;  ///< [T] (TEBN only), no weight decay

  Tensor running_mean_;   ///< [C]
  Tensor running_var_;    ///< [C]

  // Backward caches.
  Tensor cached_xhat_;             ///< normalized input, input shape
  std::vector<float> cached_inv_std_;  ///< per (t-group, channel)
  int64_t cached_t_ = 0;
  int64_t cached_n_ = 0, cached_hw_ = 0;
};

/// Eval-mode BatchNorm of ONE image (the C x H x W of one (t, n)): channel
/// plane ch becomes eff * ((x - mean[ch]) * inv_std[ch]) + beta[ch] through
/// simd::affine, with eff = gamma[ch] * alpha_vth * step evaluated left to
/// right. `step` is TEBN's p_t at the image's timestep (1 in the other
/// modes). BatchNorm::forward's eval path and the engine's affine ops both
/// run it, so exact serving matches the module by construction. y may alias
/// x.
void batchnorm_eval_image(int64_t channels, int64_t hw, const float* gamma,
                          const float* beta, const float* mean,
                          const float* inv_std, float alpha_vth, float step,
                          const float* x, float* y);

/// Per-channel 1 / sqrt(var + eps) of a [C] variance, in f32: the inverse
/// std BatchNorm's eval path normalizes by, and the one the inference
/// lowering stores for its affine ops and BN folding.
Tensor batchnorm_inv_std(const Tensor& var, float eps);

}  // namespace ttsnn
