#include "nn/pooling.h"

namespace ttsnn {

AvgPool2d::AvgPool2d(int64_t kernel) : kernel_(kernel) {
  TTSNN_CHECK(kernel_ >= 1, "AvgPool2d kernel must be >= 1");
}

Tensor AvgPool2d::forward(const Tensor& x) {
  TTSNN_CHECK(x.dim() >= 3, "AvgPool2d expects [..., C, H, W]");
  const int64_t h = x.size(-2);
  const int64_t w = x.size(-1);
  TTSNN_CHECK(h % kernel_ == 0 && w % kernel_ == 0,
              "AvgPool2d requires divisible spatial dims, got " << h << "x" << w
                                                                << " k=" << kernel_);
  cached_in_shape_ = x.shape();
  const int64_t oh = h / kernel_;
  const int64_t ow = w / kernel_;
  const int64_t planes = x.numel() / (h * w);

  Shape out_shape = x.shape();
  out_shape[out_shape.size() - 2] = oh;
  out_shape[out_shape.size() - 1] = ow;
  Tensor out(out_shape);
  avg_pool_forward_into(planes, h, w, kernel_, x.data(), out.data());
  return out;
}

void avg_pool_forward_into(int64_t planes, int64_t h, int64_t w, int64_t kernel,
                           const float* x, float* out) {
  const int64_t oh = h / kernel;
  const int64_t ow = w / kernel;
  const float inv = 1.0F / static_cast<float>(kernel * kernel);
  for (int64_t p = 0; p < planes; ++p) {
    const float* plane = x + p * h * w;
    float* oplane = out + p * oh * ow;
    for (int64_t y = 0; y < oh; ++y) {
      for (int64_t xx = 0; xx < ow; ++xx) {
        float s = 0.0F;
        for (int64_t ky = 0; ky < kernel; ++ky) {
          const float* row = plane + (y * kernel + ky) * w + xx * kernel;
          for (int64_t kx = 0; kx < kernel; ++kx) s += row[kx];
        }
        oplane[y * ow + xx] = s * inv;
      }
    }
  }
}

Tensor AvgPool2d::backward(const Tensor& grad_out) {
  TTSNN_CHECK(!cached_in_shape_.empty(), "AvgPool2d::backward before forward");
  const int64_t h = cached_in_shape_[cached_in_shape_.size() - 2];
  const int64_t w = cached_in_shape_[cached_in_shape_.size() - 1];
  const int64_t oh = h / kernel_;
  const int64_t ow = w / kernel_;
  const int64_t planes = shape_numel(cached_in_shape_) / (h * w);
  Tensor grad_in(cached_in_shape_);
  const float* g = grad_out.data();
  float* gi = grad_in.data();
  const float inv = 1.0F / static_cast<float>(kernel_ * kernel_);
  for (int64_t p = 0; p < planes; ++p) {
    const float* gplane = g + p * oh * ow;
    float* giplane = gi + p * h * w;
    for (int64_t y = 0; y < oh; ++y) {
      for (int64_t xx = 0; xx < ow; ++xx) {
        const float gv = gplane[y * ow + xx] * inv;
        for (int64_t ky = 0; ky < kernel_; ++ky) {
          float* row = giplane + (y * kernel_ + ky) * w + xx * kernel_;
          for (int64_t kx = 0; kx < kernel_; ++kx) row[kx] = gv;
        }
      }
    }
  }
  return grad_in;
}

void AvgPool2d::describe(ShapeState& s, std::vector<LayerDesc>& out) const {
  LayerDesc d;
  d.kind = "pool";
  d.in_c = s.c;
  d.out_c = s.c;
  d.in_h = s.h;
  d.in_w = s.w;
  d.out_h = s.h / kernel_;
  d.out_w = s.w / kernel_;
  d.macs = s.c * s.h * s.w;  // one add per input element
  out.push_back(d);
  s.h = d.out_h;
  s.w = d.out_w;
}

Tensor GlobalAvgPool::forward(const Tensor& x) {
  TTSNN_CHECK(x.dim() == 5, "GlobalAvgPool expects [T, N, C, H, W]");
  cached_in_shape_ = x.shape();
  const int64_t hw = x.size(3) * x.size(4);
  Tensor out({x.size(0), x.size(1), x.size(2)});
  global_avg_pool_forward_into(x.numel() / hw, hw, x.data(), out.data());
  return out;
}

void global_avg_pool_forward_into(int64_t rows, int64_t hw, const float* x,
                                  float* out) {
  const float inv = 1.0F / static_cast<float>(hw);
  for (int64_t r = 0; r < rows; ++r) {
    double s = 0.0;
    const float* row = x + r * hw;
    for (int64_t i = 0; i < hw; ++i) s += row[i];
    out[r] = static_cast<float>(s) * inv;
  }
}

Tensor GlobalAvgPool::backward(const Tensor& grad_out) {
  TTSNN_CHECK(!cached_in_shape_.empty(), "GlobalAvgPool::backward before forward");
  const int64_t hw =
      cached_in_shape_[3] * cached_in_shape_[4];
  const int64_t rows = shape_numel(cached_in_shape_) / hw;
  TTSNN_CHECK(grad_out.numel() == rows, "GlobalAvgPool grad shape mismatch");
  Tensor grad_in(cached_in_shape_);
  const float* g = grad_out.data();
  float* gi = grad_in.data();
  const float inv = 1.0F / static_cast<float>(hw);
  for (int64_t r = 0; r < rows; ++r) {
    const float gv = g[r] * inv;
    float* row = gi + r * hw;
    for (int64_t i = 0; i < hw; ++i) row[i] = gv;
  }
  return grad_in;
}

void GlobalAvgPool::describe(ShapeState& s, std::vector<LayerDesc>& out) const {
  LayerDesc d;
  d.kind = "pool";
  d.detail = "global";
  d.in_c = s.c;
  d.out_c = s.c;
  d.in_h = s.h;
  d.in_w = s.w;
  d.out_h = 1;
  d.out_w = 1;
  d.macs = s.c * s.h * s.w;
  out.push_back(d);
  s.h = 1;
  s.w = 1;
}

}  // namespace ttsnn
