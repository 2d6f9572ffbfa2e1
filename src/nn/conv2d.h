#pragma once

/// \file conv2d.h
/// Standard dense 2-D convolution over spike or analog activations.
/// Supports asymmetric kernels — the TT sub-convolutions are (1,1), (kh,1),
/// (1,kw) shaped — with independent stride and padding per axis. Both
/// directions run the shared lowering in tensor/im2col.h, the same loop the
/// inference engine's conv ops run.

#include "nn/module.h"
#include "tensor/im2col.h"

namespace ttsnn {

class Conv2d : public Module {
 public:
  struct Options {
    int64_t in_channels = 0;
    int64_t out_channels = 0;
    int64_t kernel_h = 3;
    int64_t kernel_w = 3;
    int64_t stride = 1;
    /// -1 inherits `stride`; the TT sub-convolutions use asymmetric strides
    /// such as (s, 1) / (1, s) so the STT chain composes to a stride-s conv.
    int64_t stride_h = -1;
    int64_t stride_w = -1;
    /// -1 selects "same" padding for odd kernels: (k - 1) / 2.
    int64_t pad_h = -1;
    int64_t pad_w = -1;

    int64_t resolved_stride_h() const { return stride_h >= 0 ? stride_h : stride; }
    int64_t resolved_stride_w() const { return stride_w >= 0 ? stride_w : stride; }
    int64_t resolved_pad_h() const { return pad_h >= 0 ? pad_h : (kernel_h - 1) / 2; }
    int64_t resolved_pad_w() const { return pad_w >= 0 ? pad_w : (kernel_w - 1) / 2; }

    /// Lowering geometry for an input of spatial size in_h x in_w — the one
    /// place the options resolve into a ConvGeometry.
    ConvGeometry geometry(int64_t in_h, int64_t in_w) const {
      return ConvGeometry{.in_channels = in_channels,
                          .in_h = in_h,
                          .in_w = in_w,
                          .kernel_h = kernel_h,
                          .kernel_w = kernel_w,
                          .stride_h = resolved_stride_h(),
                          .stride_w = resolved_stride_w(),
                          .pad_h = resolved_pad_h(),
                          .pad_w = resolved_pad_w()};
    }
  };

  /// Kaiming-normal initialized convolution.
  Conv2d(Options opts, Rng& rng);
  /// Convolution with explicit weights [O, C, kh, kw] (used by the merge pass).
  Conv2d(Options opts, Tensor weight);

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  void collect_parameters(std::vector<Parameter*>& out) override;
  void describe(ShapeState& s, std::vector<LayerDesc>& out) const override;
  void clear_cache() override { cached_input_ = Tensor(); }
  std::string name() const override { return "Conv2d"; }

  const Options& options() const { return opts_; }
  Parameter& weight() { return weight_; }
  const Parameter& weight() const { return weight_; }

 private:
  Options opts_;
  Parameter weight_;  ///< [O, C, kh, kw]
  Tensor cached_input_;
};

/// Stateless functional convolution used by both Conv2d and TTConv2d.
/// x: [..., C, H, W] (leading dims folded into batch), weight [O, C, kh, kw].
/// Runs conv_forward (tensor/im2col.h) over arena buffers.
Tensor conv2d_forward(const Tensor& x, const Tensor& weight,
                      const Conv2d::Options& opts);

/// Backward of conv2d_forward. Accumulates into weight_grad (same shape as
/// weight); returns grad w.r.t. x.
Tensor conv2d_backward(const Tensor& x, const Tensor& weight,
                       const Conv2d::Options& opts, const Tensor& grad_out,
                       Tensor& weight_grad);

}  // namespace ttsnn
