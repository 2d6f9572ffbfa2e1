#pragma once

/// \file pooling.h
/// Average pooling layers. SNN stacks use average pooling (max pooling over
/// binary spikes is lossy), matching the VGG architectures of Table III.

#include "nn/module.h"

namespace ttsnn {

/// Non-overlapping average pooling with square kernel == stride.
class AvgPool2d : public Module {
 public:
  explicit AvgPool2d(int64_t kernel);

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  void describe(ShapeState& s, std::vector<LayerDesc>& out) const override;
  std::string name() const override { return "AvgPool2d"; }

  int64_t kernel() const { return kernel_; }

 private:
  int64_t kernel_ = 2;
  Shape cached_in_shape_;
};

/// Global average pool: [T, N, C, H, W] -> [T, N, C].
class GlobalAvgPool : public Module {
 public:
  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  void describe(ShapeState& s, std::vector<LayerDesc>& out) const override;
  std::string name() const override { return "GlobalAvgPool"; }

 private:
  Shape cached_in_shape_;
};

/// AvgPool2d's forward over raw buffers, the kernel behind both the module
/// and infer::Engine's pool op: each of `planes` [h, w] planes of x becomes
/// one [h / kernel, w / kernel] plane of out (every element written). h and
/// w must be multiples of kernel.
void avg_pool_forward_into(int64_t planes, int64_t h, int64_t w, int64_t kernel,
                           const float* x, float* out);

/// GlobalAvgPool's forward over raw buffers, shared the same way: out[r] is
/// the mean of x's row r of hw floats, summed in double.
void global_avg_pool_forward_into(int64_t rows, int64_t hw, const float* x,
                                  float* out);

}  // namespace ttsnn
