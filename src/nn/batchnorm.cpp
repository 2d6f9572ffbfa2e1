#include "nn/batchnorm.h"

#include <cmath>

#include "tensor/simd.h"

namespace ttsnn {

namespace {

/// Group extent in timesteps: per-step BN normalizes each timestep alone,
/// tdBN/TEBN normalize jointly across the sequence.
bool joint_stats(BatchNorm::Mode mode) {
  return mode != BatchNorm::Mode::kPerStep;
}

/// The f32 inverse std of every BatchNorm path, from batch or running var.
float inv_std_of(float var, float eps) { return 1.0F / std::sqrt(var + eps); }

}  // namespace

BatchNorm::BatchNorm(Options opts) : opts_(opts) {
  TTSNN_CHECK(opts_.channels > 0, "BatchNorm channels must be positive");
  if (opts_.mode == Mode::kTebn) {
    TTSNN_CHECK(opts_.timesteps > 0, "TEBN requires timesteps in options");
    step_scale_ = Parameter("bn.step_scale", Tensor::ones({opts_.timesteps}),
                            /*apply_decay=*/false);
  }
  gamma_ = Parameter("bn.gamma", Tensor::ones({opts_.channels}),
                     /*apply_decay=*/false);
  beta_ = Parameter("bn.beta", Tensor::zeros({opts_.channels}),
                    /*apply_decay=*/false);
  running_mean_ = Tensor::zeros({opts_.channels});
  running_var_ = Tensor::ones({opts_.channels});
}

Tensor BatchNorm::forward(const Tensor& x) {
  TTSNN_CHECK(x.dim() == 5, "BatchNorm expects [T, N, C, H, W], got "
                                << shape_str(x.shape()));
  const int64_t t_steps = x.size(0);
  const int64_t n = x.size(1);
  const int64_t c = x.size(2);
  const int64_t hw = x.size(3) * x.size(4);
  TTSNN_CHECK(c == opts_.channels, "BatchNorm channel mismatch: " << c);
  if (opts_.mode == Mode::kTebn) {
    TTSNN_CHECK(t_steps == opts_.timesteps,
                "TEBN configured for T=" << opts_.timesteps << ", got " << t_steps);
  }

  const float* in = x.data();
  const float* g_gamma = gamma_.value.data();
  const float* g_beta = beta_.value.data();
  auto step_at = [&](int64_t t) {
    return opts_.mode == Mode::kTebn ? step_scale_.value[t] : 1.0F;
  };

  // Each path sets its cache before allocating the output, so the previous
  // step's cache is freed first and the output can take its memory.
  if (!training_) {
    // Eval: the running statistics, one image at a time through the kernel
    // the engine's affine ops run. Backward needs no cache here.
    clear_cache();
    Tensor out = Tensor::empty(x.shape());
    float* y = out.data();
    const Tensor inv_std = batchnorm_inv_std(running_var_, opts_.eps);
    for (int64_t t = 0; t < t_steps; ++t) {
      for (int64_t b = 0; b < n; ++b) {
        const int64_t base = (t * n + b) * c * hw;
        batchnorm_eval_image(c, hw, g_gamma, g_beta, running_mean_.data(),
                             inv_std.data(), opts_.alpha_vth, step_at(t),
                             in + base, y + base);
      }
    }
    return out;
  }

  // Training: batch statistics per group of timesteps, which update the
  // running statistics and normalize the group; backward reads the
  // normalized input and the inverse std back from the cache.
  const int64_t groups = joint_stats(opts_.mode) ? 1 : t_steps;
  const int64_t group_t = t_steps / groups;
  cached_t_ = t_steps;
  cached_n_ = n;
  cached_hw_ = hw;
  cached_xhat_ = Tensor::empty(x.shape());
  cached_inv_std_.assign(static_cast<size_t>(groups * c), 0.0F);
  float* xhat = cached_xhat_.data();
  Tensor out = Tensor::empty(x.shape());
  float* y = out.data();

  for (int64_t grp = 0; grp < groups; ++grp) {
    const int64_t t0 = grp * group_t;
    const int64_t t1 = t0 + group_t;
    const double count = static_cast<double>(group_t * n * hw);
    for (int64_t ch = 0; ch < c; ++ch) {
      double s1 = 0.0, s2 = 0.0;
      for (int64_t t = t0; t < t1; ++t) {
        for (int64_t b = 0; b < n; ++b) {
          const float* p = in + (((t * n + b) * c) + ch) * hw;
          for (int64_t i = 0; i < hw; ++i) {
            s1 += p[i];
            s2 += static_cast<double>(p[i]) * p[i];
          }
        }
      }
      const double mean = s1 / count;
      const double var = std::max(0.0, s2 / count - mean * mean);
      // EMA of running statistics for eval mode.
      const float m = opts_.momentum;
      running_mean_[ch] = (1.0F - m) * running_mean_[ch] +
                          m * static_cast<float>(mean);
      running_var_[ch] =
          (1.0F - m) * running_var_[ch] + m * static_cast<float>(var);
      const float inv_std = inv_std_of(static_cast<float>(var), opts_.eps);
      cached_inv_std_[static_cast<size_t>(grp * c + ch)] = inv_std;
      const float mu = static_cast<float>(mean);
      for (int64_t t = t0; t < t1; ++t) {
        const float eff = g_gamma[ch] * opts_.alpha_vth * step_at(t);
        for (int64_t b = 0; b < n; ++b) {
          const int64_t base = (((t * n + b) * c) + ch) * hw;
          const float* pb = in + base;
          float* xb = xhat + base;
          float* yb = y + base;
          for (int64_t i = 0; i < hw; ++i) {
            const float v = (pb[i] - mu) * inv_std;
            xb[i] = v;
            yb[i] = eff * v + g_beta[ch];
          }
        }
      }
    }
  }
  return out;
}

void batchnorm_eval_image(int64_t channels, int64_t hw, const float* gamma,
                          const float* beta, const float* mean,
                          const float* inv_std, float alpha_vth, float step,
                          const float* x, float* y) {
  for (int64_t ch = 0; ch < channels; ++ch) {
    const float eff = gamma[ch] * alpha_vth * step;
    simd::affine(hw, mean[ch], inv_std[ch], eff, beta[ch], x + ch * hw,
                 y + ch * hw);
  }
}

Tensor batchnorm_inv_std(const Tensor& var, float eps) {
  Tensor inv_std = Tensor::empty(var.shape());
  for (int64_t c = 0; c < var.numel(); ++c) {
    inv_std[c] = inv_std_of(var[c], eps);
  }
  return inv_std;
}

Tensor BatchNorm::backward(const Tensor& grad_out) {
  TTSNN_CHECK(cached_xhat_.defined(), "BatchNorm::backward before forward");
  TTSNN_CHECK(grad_out.same_shape(cached_xhat_), "BatchNorm grad shape mismatch");
  const int64_t t_steps = cached_t_;
  const int64_t n = cached_n_;
  const int64_t c = opts_.channels;
  const int64_t hw = cached_hw_;
  const int64_t groups = joint_stats(opts_.mode) ? 1 : t_steps;
  const int64_t group_t = t_steps / groups;

  Tensor grad_in = Tensor::empty(cached_xhat_.shape());
  const float* g = grad_out.data();
  const float* xhat = cached_xhat_.data();
  float* gx = grad_in.data();
  const float* g_gamma = gamma_.value.data();
  float* d_gamma = gamma_.grad.data();
  float* d_beta = beta_.grad.data();

  for (int64_t grp = 0; grp < groups; ++grp) {
    const int64_t t0 = grp * group_t;
    const int64_t t1 = t0 + group_t;
    const double count = static_cast<double>(group_t * n * hw);
    for (int64_t ch = 0; ch < c; ++ch) {
      const float inv_std = cached_inv_std_[static_cast<size_t>(grp * c + ch)];
      // First pass: reductions. dxhat depends on the per-timestep effective
      // scale, so fold it in while reducing.
      double sum_dxhat = 0.0, sum_dxhat_xhat = 0.0;
      double dgamma_acc = 0.0, dbeta_acc = 0.0;
      for (int64_t t = t0; t < t1; ++t) {
        const float step = opts_.mode == Mode::kTebn ? step_scale_.value[t] : 1.0F;
        const float eff = g_gamma[ch] * opts_.alpha_vth * step;
        double dstep_acc = 0.0;
        for (int64_t b = 0; b < n; ++b) {
          const int64_t base = (((t * n + b) * c) + ch) * hw;
          const float* gb = g + base;
          const float* xb = xhat + base;
          for (int64_t i = 0; i < hw; ++i) {
            const double gd = gb[i];
            const double xd = xb[i];
            dbeta_acc += gd;
            dgamma_acc += gd * xd * opts_.alpha_vth * step;
            const double dxh = gd * eff;
            sum_dxhat += dxh;
            sum_dxhat_xhat += dxh * xd;
            dstep_acc += gd * xd * opts_.alpha_vth * g_gamma[ch];
          }
        }
        if (opts_.mode == Mode::kTebn && training_) {
          step_scale_.grad[t] += static_cast<float>(dstep_acc);
        }
      }
      d_gamma[ch] += static_cast<float>(dgamma_acc);
      d_beta[ch] += static_cast<float>(dbeta_acc);

      // Second pass: input gradients. In eval mode statistics are constants,
      // so dx = dxhat * inv_std directly.
      for (int64_t t = t0; t < t1; ++t) {
        const float step = opts_.mode == Mode::kTebn ? step_scale_.value[t] : 1.0F;
        const float eff = g_gamma[ch] * opts_.alpha_vth * step;
        for (int64_t b = 0; b < n; ++b) {
          const int64_t base = (((t * n + b) * c) + ch) * hw;
          const float* gb = g + base;
          const float* xb = xhat + base;
          float* gxb = gx + base;
          for (int64_t i = 0; i < hw; ++i) {
            const double dxh = static_cast<double>(gb[i]) * eff;
            if (training_) {
              gxb[i] = static_cast<float>(
                  inv_std * (dxh - sum_dxhat / count -
                             static_cast<double>(xb[i]) * sum_dxhat_xhat / count));
            } else {
              gxb[i] = static_cast<float>(inv_std * dxh);
            }
          }
        }
      }
    }
  }
  return grad_in;
}

void BatchNorm::collect_parameters(std::vector<Parameter*>& out) {
  out.push_back(&gamma_);
  out.push_back(&beta_);
  if (opts_.mode == Mode::kTebn) out.push_back(&step_scale_);
}

void BatchNorm::collect_buffers(std::vector<BufferRef>& out) {
  out.push_back({"bn.running_mean", &running_mean_});
  out.push_back({"bn.running_var", &running_var_});
}

void BatchNorm::describe(ShapeState& s, std::vector<LayerDesc>& out) const {
  LayerDesc d;
  d.kind = "bn";
  d.in_c = s.c;
  d.out_c = s.c;
  d.in_h = s.h;
  d.in_w = s.w;
  d.out_h = s.h;
  d.out_w = s.w;
  d.params = 2 * opts_.channels +
             (opts_.mode == Mode::kTebn ? opts_.timesteps : 0);
  d.macs = s.c * s.h * s.w;  // scale + shift per element
  out.push_back(d);
}

void BatchNorm::clear_cache() {
  cached_xhat_ = Tensor();
  cached_inv_std_.clear();
}

}  // namespace ttsnn
