#include "nn/conv2d.h"

#include "tensor/random.h"

namespace ttsnn {

namespace {

/// Folds all leading dims of x ([..., C, H, W]) into a batch extent.
int64_t folded_batch(const Tensor& x, int64_t c, const char* who) {
  TTSNN_CHECK(x.dim() >= 3, who << ": input must be at least [C, H, W], got "
                                << shape_str(x.shape()));
  TTSNN_CHECK(x.size(-3) == c, who << ": channel mismatch, expected " << c
                                   << " in " << shape_str(x.shape()));
  const int64_t chw = x.size(-3) * x.size(-2) * x.size(-1);
  return x.numel() / chw;
}

Shape output_shape(const Tensor& x, int64_t out_c, int64_t oh, int64_t ow) {
  Shape s = x.shape();
  s[s.size() - 3] = out_c;
  s[s.size() - 2] = oh;
  s[s.size() - 1] = ow;
  return s;
}

/// A column-matrix buffer for the lowering; none for a pointwise geometry,
/// whose GEMMs read the input plane in place.
Tensor col_buffer(const ConvGeometry& g) {
  return g.pointwise() ? Tensor() : Tensor::empty({g.col_rows(), g.col_cols()});
}

float* data_or_null(Tensor& t) { return t.defined() ? t.data() : nullptr; }

}  // namespace

Conv2d::Conv2d(Options opts, Rng& rng) : opts_(opts) {
  TTSNN_CHECK(opts_.in_channels > 0 && opts_.out_channels > 0,
              "Conv2d channels must be positive");
  const int64_t fan_in = opts_.in_channels * opts_.kernel_h * opts_.kernel_w;
  weight_ = Parameter(
      "conv.weight",
      kaiming_normal({opts_.out_channels, opts_.in_channels, opts_.kernel_h,
                      opts_.kernel_w},
                     fan_in, rng));
}

Conv2d::Conv2d(Options opts, Tensor weight) : opts_(opts) {
  TTSNN_CHECK(weight.shape() == (Shape{opts_.out_channels, opts_.in_channels,
                                       opts_.kernel_h, opts_.kernel_w}),
              "Conv2d explicit weight shape " << shape_str(weight.shape())
                                              << " does not match options");
  weight_ = Parameter("conv.weight", std::move(weight));
}

Tensor conv2d_forward(const Tensor& x, const Tensor& weight,
                      const Conv2d::Options& opts) {
  const int64_t batch = folded_batch(x, opts.in_channels, "conv2d_forward");
  const ConvGeometry g = opts.geometry(x.size(-2), x.size(-1));
  const int64_t oh = g.out_h();
  const int64_t ow = g.out_w();
  TTSNN_CHECK(oh > 0 && ow > 0, "conv2d output would be empty for input "
                                    << shape_str(x.shape()));
  // Both buffers are fully overwritten (im2col writes every column entry,
  // the gemm runs with beta = 0), so skip the zero-fill.
  Tensor out = Tensor::empty(output_shape(x, opts.out_channels, oh, ow));
  Tensor col = col_buffer(g);
  conv_forward(g, batch, x.data(),
               {.out_channels = opts.out_channels, .f32 = weight.data()},
               data_or_null(col), nullptr, out.data());
  return out;
}

Tensor conv2d_backward(const Tensor& x, const Tensor& weight,
                       const Conv2d::Options& opts, const Tensor& grad_out,
                       Tensor& weight_grad) {
  const int64_t batch = folded_batch(x, opts.in_channels, "conv2d_backward");
  const ConvGeometry g = opts.geometry(x.size(-2), x.size(-1));
  TTSNN_CHECK(grad_out.dim() >= 3 && grad_out.size(-3) == opts.out_channels &&
                  grad_out.size(-2) == g.out_h() &&
                  grad_out.size(-1) == g.out_w() &&
                  grad_out.numel() == batch * opts.out_channels * g.col_cols(),
              "conv2d_backward grad shape " << shape_str(grad_out.shape())
                                            << " mismatch for input "
                                            << shape_str(x.shape()));
  Tensor grad_in(x.shape());  // zero-filled: col2im accumulates into it
  Tensor col = col_buffer(g);
  Tensor dcol = col_buffer(g);
  conv_backward(g, batch, opts.out_channels, x.data(), weight.data(),
                grad_out.data(), data_or_null(col), data_or_null(dcol),
                weight_grad.data(), grad_in.data());
  return grad_in;
}

Tensor Conv2d::forward(const Tensor& x) {
  // Only the backward pass consumes the cached input; eval-mode forwards
  // (and any stale cache from a previous training step) keep nothing alive.
  cached_input_ = training_ ? x : Tensor();
  return conv2d_forward(x, weight_.value, opts_);
}

Tensor Conv2d::backward(const Tensor& grad_out) {
  TTSNN_CHECK(cached_input_.defined(), "Conv2d::backward before forward");
  return conv2d_backward(cached_input_, weight_.value, opts_, grad_out,
                         weight_.grad);
}

void Conv2d::collect_parameters(std::vector<Parameter*>& out) {
  out.push_back(&weight_);
}

void Conv2d::describe(ShapeState& s, std::vector<LayerDesc>& out) const {
  const ConvGeometry g = opts_.geometry(s.h, s.w);
  LayerDesc d;
  d.kind = "conv";
  d.in_c = opts_.in_channels;
  d.out_c = opts_.out_channels;
  d.kernel_h = opts_.kernel_h;
  d.kernel_w = opts_.kernel_w;
  d.stride = opts_.stride;
  d.in_h = s.h;
  d.in_w = s.w;
  d.out_h = g.out_h();
  d.out_w = g.out_w();
  d.params = opts_.out_channels * opts_.in_channels * opts_.kernel_h *
             opts_.kernel_w;
  d.macs = d.out_c * d.out_h * d.out_w * opts_.in_channels * opts_.kernel_h *
           opts_.kernel_w;
  out.push_back(d);
  s.c = d.out_c;
  s.h = d.out_h;
  s.w = d.out_w;
}

}  // namespace ttsnn
