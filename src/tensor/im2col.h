#pragma once

/// \file im2col.h
/// Convolution lowering for NCHW tensors with asymmetric kernels — the TT
/// sub-convolutions use (1,1), (kh,1), (1,kw) and (1,1) kernels, so kernel
/// height/width, stride and padding are all independent parameters.
///
/// conv_forward / conv_backward are the one per-image im2col -> GEMM loop
/// that training (conv2d_forward / conv2d_backward) and the inference
/// engine's conv ops share, so exact serving reproduces the eval
/// Module::forward bits by construction. Every buffer is the caller's:
/// arena tensors in training, planned workspace offsets in the engine.

#include <cstdint>

#include "tensor/tensor.h"

namespace ttsnn {

/// Static geometry of a 2-D convolution.
struct ConvGeometry {
  int64_t in_channels = 0;
  int64_t in_h = 0;
  int64_t in_w = 0;
  int64_t kernel_h = 1;
  int64_t kernel_w = 1;
  int64_t stride_h = 1;
  int64_t stride_w = 1;
  int64_t pad_h = 0;
  int64_t pad_w = 0;

  int64_t out_h() const {
    return (in_h + 2 * pad_h - kernel_h) / stride_h + 1;
  }
  int64_t out_w() const {
    return (in_w + 2 * pad_w - kernel_w) / stride_w + 1;
  }
  /// Rows of the lowered column matrix: C * kh * kw.
  int64_t col_rows() const { return in_channels * kernel_h * kernel_w; }
  /// Columns of the lowered column matrix: out_h * out_w.
  int64_t col_cols() const { return out_h() * out_w(); }
  /// 1x1 / stride 1 / no padding: the lowering is an identity copy, so conv
  /// code can feed the input plane to gemm directly.
  bool pointwise() const {
    return kernel_h == 1 && kernel_w == 1 && stride_h == 1 && stride_w == 1 &&
           pad_h == 0 && pad_w == 0;
  }
};

/// Lowers one CHW image (pointer to c*h*w floats) into the column matrix
/// `col` of shape [col_rows, col_cols] (caller-allocated, overwritten).
void im2col(const float* image, const ConvGeometry& g, float* col);

/// Adjoint of im2col: accumulates the column matrix back into a CHW image
/// gradient (caller-allocated; this function ADDS into it).
void col2im(const float* col, const ConvGeometry& g, float* image_grad);

/// Weight operand of conv_forward: the [out_channels, col_rows] kernel
/// matrix, either f32 or int8 rows with one f32 scale per output channel
/// (the layout of an int8 WeightPlane).
struct ConvWeights {
  int64_t out_channels = 0;
  const float* f32 = nullptr;     ///< null selects the int8 operand
  const int8_t* s8 = nullptr;
  const float* scales = nullptr;  ///< [out_channels], with s8
};

/// Runs on each image's output tile [out_channels, out_h * out_w] straight
/// after its GEMM, in ascending image order — which, for a [T, N, ...]
/// input folded t-major, is the LIF membrane recurrence order.
struct ConvEpilogue {
  void (*fn)(void* ctx, int64_t image, float* tile) = nullptr;
  void* ctx = nullptr;
};

/// For each of `batch` CHW images of x, in ascending order: im2col into
/// `col` (skipped when g.pointwise(); the GEMM then reads the image in
/// place), then out_b = W * col — gemm(NN, beta 0) for f32 weights, or for
/// int8 weights the tile converted to transposed u8 spikes in `u8` and
/// simd::gemm_s8_wxs — then the epilogue on out_b. `col` holds col_rows *
/// col_cols floats (unused when pointwise), `u8` that many bytes (int8
/// only); out [batch, out_channels, out_h, out_w] is overwritten.
void conv_forward(const ConvGeometry& g, int64_t batch, const float* x,
                  const ConvWeights& w, float* col, uint8_t* u8, float* out,
                  ConvEpilogue epilogue = {});

/// Backward of the f32 conv_forward. For each image in ascending order:
/// grad_w [out_channels, col_rows] += g_b * col^T (gemm NT, beta 1), and
/// dcol = W^T * g_b (gemm TN, beta 0) scattered into grad_in by col2im. A
/// pointwise geometry reads the image in place and accumulates W^T * g_b
/// straight into grad_in with beta 1 — the same products in the same order.
/// grad_in [batch, C, H, W] must arrive zeroed; col and dcol hold col_rows
/// * col_cols floats each (unused when pointwise).
void conv_backward(const ConvGeometry& g, int64_t batch, int64_t out_channels,
                   const float* x, const float* w, const float* grad_out,
                   float* col, float* dcol, float* grad_w, float* grad_in);

}  // namespace ttsnn
