#include "tensor/im2col.h"

#include <cstring>

#include "tensor/gemm.h"
#include "tensor/simd.h"

namespace ttsnn {

void im2col(const float* image, const ConvGeometry& g, float* col) {
  const int64_t oh = g.out_h();
  const int64_t ow = g.out_w();
  const int64_t cols = oh * ow;
  int64_t row = 0;
  for (int64_t c = 0; c < g.in_channels; ++c) {
    const float* plane = image + c * g.in_h * g.in_w;
    for (int64_t kh = 0; kh < g.kernel_h; ++kh) {
      for (int64_t kw = 0; kw < g.kernel_w; ++kw, ++row) {
        float* out = col + row * cols;
        for (int64_t y = 0; y < oh; ++y) {
          const int64_t in_y = y * g.stride_h + kh - g.pad_h;
          if (in_y < 0 || in_y >= g.in_h) {
            std::memset(out + y * ow, 0, static_cast<size_t>(ow) * sizeof(float));
            continue;
          }
          const float* src_row = plane + in_y * g.in_w;
          float* dst_row = out + y * ow;
          for (int64_t x = 0; x < ow; ++x) {
            const int64_t in_x = x * g.stride_w + kw - g.pad_w;
            dst_row[x] = (in_x >= 0 && in_x < g.in_w) ? src_row[in_x] : 0.0F;
          }
        }
      }
    }
  }
}

void col2im(const float* col, const ConvGeometry& g, float* image_grad) {
  const int64_t oh = g.out_h();
  const int64_t ow = g.out_w();
  const int64_t cols = oh * ow;
  int64_t row = 0;
  for (int64_t c = 0; c < g.in_channels; ++c) {
    float* plane = image_grad + c * g.in_h * g.in_w;
    for (int64_t kh = 0; kh < g.kernel_h; ++kh) {
      for (int64_t kw = 0; kw < g.kernel_w; ++kw, ++row) {
        const float* src = col + row * cols;
        for (int64_t y = 0; y < oh; ++y) {
          const int64_t in_y = y * g.stride_h + kh - g.pad_h;
          if (in_y < 0 || in_y >= g.in_h) continue;
          float* dst_row = plane + in_y * g.in_w;
          const float* src_row = src + y * ow;
          for (int64_t x = 0; x < ow; ++x) {
            const int64_t in_x = x * g.stride_w + kw - g.pad_w;
            if (in_x >= 0 && in_x < g.in_w) dst_row[in_x] += src_row[x];
          }
        }
      }
    }
  }
}

void conv_forward(const ConvGeometry& g, int64_t batch, const float* x,
                  const ConvWeights& w, float* col, uint8_t* u8, float* out,
                  ConvEpilogue epilogue) {
  const bool pointwise = g.pointwise();
  const int64_t in_stride = g.in_channels * g.in_h * g.in_w;
  const int64_t out_stride = w.out_channels * g.col_cols();
  for (int64_t b = 0; b < batch; ++b) {
    const float* lowered = x + b * in_stride;
    if (!pointwise) {
      im2col(lowered, g, col);
      lowered = col;
    }
    float* tile = out + b * out_stride;
    if (w.f32 != nullptr) {
      gemm(false, false, w.out_channels, g.col_cols(), g.col_rows(), 1.0F,
           w.f32, lowered, 0.0F, tile);
    } else {
      simd::spikes_to_u8_t(g.col_rows(), g.col_cols(), lowered, u8);
      simd::gemm_s8_wxs(w.out_channels, g.col_cols(), g.col_rows(), w.s8, u8,
                        w.scales, tile);
    }
    if (epilogue.fn != nullptr) epilogue.fn(epilogue.ctx, b, tile);
  }
}

void conv_backward(const ConvGeometry& g, int64_t batch, int64_t out_channels,
                   const float* x, const float* w, const float* grad_out,
                   float* col, float* dcol, float* grad_w, float* grad_in) {
  const bool pointwise = g.pointwise();
  const int64_t in_stride = g.in_channels * g.in_h * g.in_w;
  const int64_t out_stride = out_channels * g.col_cols();
  for (int64_t b = 0; b < batch; ++b) {
    const float* gout = grad_out + b * out_stride;
    const float* lowered = x + b * in_stride;
    if (!pointwise) {
      im2col(lowered, g, col);
      lowered = col;
    }
    // dW += g_b [O, ohw] * col^T  -> [O, C*kh*kw]
    gemm(false, true, out_channels, g.col_rows(), g.col_cols(), 1.0F, gout,
         lowered, 1.0F, grad_w);
    // dcol = W^T [Ckk, O] * g_b [O, ohw]
    if (pointwise) {
      gemm(true, false, g.col_rows(), g.col_cols(), out_channels, 1.0F, w,
           gout, 1.0F, grad_in + b * in_stride);
    } else {
      gemm(true, false, g.col_rows(), g.col_cols(), out_channels, 1.0F, w,
           gout, 0.0F, dcol);
      col2im(dcol, g, grad_in + b * in_stride);
    }
  }
}

}  // namespace ttsnn
