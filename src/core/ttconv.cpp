#include "core/ttconv.h"

#include <algorithm>
#include <functional>

#include "tensor/random.h"
#include "tensor/simd.h"
#include "util/thread_pool.h"

namespace ttsnn {

std::string tt_mode_name(TTMode mode) {
  switch (mode) {
    case TTMode::kSTT:
      return "STT";
    case TTMode::kPTT:
      return "PTT";
    case TTMode::kHTT:
      return "HTT";
  }
  return "?";
}

namespace {

/// Shared Options validation for both constructors (rank is checked only on
/// the random-init path; the cores constructor derives it from the cores).
void validate_options(const TTConv2d::Options& opts) {
  TTSNN_CHECK(opts.in_channels > 0 && opts.out_channels > 0,
              "TTConv2d channels must be positive");
  TTSNN_CHECK(opts.kernel >= 1, "TTConv2d kernel must be >= 1, got " << opts.kernel);
  TTSNN_CHECK(opts.kernel % 2 == 1, "TTConv2d kernel must be odd");
  TTSNN_CHECK(opts.stride >= 1, "TTConv2d stride must be >= 1, got " << opts.stride);
}

/// The two strips, as two pool tasks (Eq. 5) when `parallel`, else in order.
void run_strips(bool parallel, const std::function<void()>& a,
                const std::function<void()>& b) {
  if (parallel) {
    parallel_invoke(a, b);
  } else {
    a();
    b();
  }
}

/// An arena buffer of n floats, zero-filled or not; none when n is 0 (a
/// pointwise core's column matrix, an all-half schedule's strips).
Tensor buffer(int64_t n, bool zero = false) {
  if (n == 0) return {};
  return zero ? Tensor({n}) : Tensor::empty({n});
}

float* data_or_null(Tensor& t) { return t.defined() ? t.data() : nullptr; }

TTWeights core_weights(const TTConv2d& c) {
  return {.w1 = c.w1().value.data(), .w2 = c.w2().value.data(),
          .w3 = c.w3().value.data(), .w4 = c.w4().value.data()};
}

}  // namespace

TTConv2d::TTConv2d(Options opts, Rng& rng) : opts_(opts) {
  validate_options(opts_);
  TTSNN_CHECK(opts_.rank >= 1, "TTConv2d rank must be >= 1, got " << opts_.rank);
  const int64_t r = opts_.rank;
  const int64_t k = opts_.kernel;
  w1_ = Parameter("tt.w1",
                  kaiming_normal({r, opts_.in_channels, 1, 1}, opts_.in_channels, rng));
  w2_ = Parameter("tt.w2", kaiming_normal({r, r, k, 1}, r * k, rng));
  w3_ = Parameter("tt.w3", kaiming_normal({r, r, 1, k}, r * k, rng));
  w4_ = Parameter("tt.w4", kaiming_normal({opts_.out_channels, r, 1, 1}, r, rng));
}

TTConv2d::TTConv2d(Options opts, const TTCores& cores) : opts_(opts) {
  validate_options(opts_);
  cores.check();
  TTSNN_CHECK(cores.in_channels == opts_.in_channels &&
                  cores.out_channels == opts_.out_channels &&
                  cores.kernel == opts_.kernel,
              "TTConv2d: cores do not match options");
  opts_.rank = cores.rank;
  w1_ = Parameter("tt.w1", cores.w1.clone());
  w2_ = Parameter("tt.w2", cores.w2.clone());
  w3_ = Parameter("tt.w3", cores.w3.clone());
  w4_ = Parameter("tt.w4", cores.w4.clone());
}

Conv2d::Options tt_core_options(const TTConv2d::Options& o, TTCore core) {
  const int64_t r = o.rank, k = o.kernel, s = o.stride;
  const int64_t cross = o.mode == TTMode::kSTT ? 1 : s;  // the other axis
  switch (core) {
    case TTCore::kW1:
      return {.in_channels = o.in_channels, .out_channels = r, .kernel_h = 1,
              .kernel_w = 1};
    case TTCore::kW2:
      return {.in_channels = r, .out_channels = r, .kernel_h = k,
              .kernel_w = 1, .stride_h = s, .stride_w = cross};
    case TTCore::kW3:
      return {.in_channels = r, .out_channels = r, .kernel_h = 1,
              .kernel_w = k, .stride_h = cross, .stride_w = s};
    case TTCore::kW4:
    case TTCore::kW4Half:
      return {.in_channels = r, .out_channels = o.out_channels, .kernel_h = 1,
              .kernel_w = 1, .stride = core == TTCore::kW4Half ? s : 1};
  }
  TTSNN_CHECK(false, "unreachable");
  return {};
}

Conv2d::Options tt_dense_options(const TTConv2d::Options& o) {
  return {.in_channels = o.in_channels, .out_channels = o.out_channels,
          .kernel_h = o.kernel, .kernel_w = o.kernel, .stride = o.stride};
}

TTPlan plan_tt(const TTConv2d::Options& o, const Shape& in, bool step_strips) {
  const size_t rank = in.size();
  TTSNN_CHECK(rank >= 3 && in[rank - 3] == o.in_channels,
              "TTConv2d expects [..., " << o.in_channels << ", H, W], got "
                                        << shape_str(in));
  const bool htt = o.mode == TTMode::kHTT;
  TTSNN_CHECK(!htt || rank == 5,
              "HTT expects [T, N, C, H, W], got " << shape_str(in));
  TTPlan p;
  p.steps = htt ? in[0] : 1;
  TTSNN_CHECK(!htt || o.full_step.empty() ||
                  p.steps <= static_cast<int64_t>(o.full_step.size()),
              "HTT schedule has " << o.full_step.size() << " entries for T="
                                  << p.steps);
  p.batch = 1;
  for (size_t d = htt ? 1 : 0; d + 3 < rank; ++d) p.batch *= in[d];
  for (int64_t t = 0; t < p.steps; ++t) {
    const bool full =
        !htt || o.full_step.empty() || o.full_step[static_cast<size_t>(t)];
    (full ? p.full : p.half).push_back(t);
  }
  const int64_t full_steps = static_cast<int64_t>(p.full.size());
  p.strip_steps = step_strips ? std::min<int64_t>(full_steps, 1) : full_steps;

  // STT's w3 reads the w2 output; PTT/HTT strips both read the w1 output.
  const bool stt = o.mode == TTMode::kSTT;
  auto geometry = [&](TTCore core, const ConvGeometry& in_g) {
    return tt_core_options(o, core).geometry(in_g.out_h(), in_g.out_w());
  };
  p.g1 = tt_core_options(o, TTCore::kW1).geometry(in[rank - 2], in[rank - 1]);
  p.g2 = geometry(TTCore::kW2, p.g1);
  p.g3 = geometry(TTCore::kW3, stt ? p.g2 : p.g1);
  p.g4 = geometry(TTCore::kW4, p.g3);
  p.g4_half = geometry(TTCore::kW4Half, p.g1);
  p.out = in;
  p.out[rank - 3] = o.out_channels;
  p.out[rank - 2] = p.g4.out_h();
  p.out[rank - 1] = p.g4.out_w();

  auto strip = [&](int64_t h, int64_t w) {
    return p.strip_steps * p.batch * o.rank * h * w;
  };
  p.o1 = p.steps * p.batch * o.rank * p.g1.col_cols();
  p.o2 = strip(p.g2.out_h(), p.g2.out_w());
  p.o3 = strip(p.g3.out_h(), p.g3.out_w());
  p.d3 = strip(p.g3.in_h, p.g3.in_w);
  p.d4 = strip(p.g4.in_h, p.g4.in_w);
  for (const ConvGeometry* g : {&p.g1, &p.g2, &p.g3, &p.g4, &p.g4_half}) {
    if (!g->pointwise()) p.col = std::max(p.col, g->col_rows() * g->col_cols());
  }
  return p;
}

void tt_forward(const TTConv2d::Options& o, const TTPlan& p,
                const TTWeights& w, const float* x, const TTBuffers& b,
                bool parallel, float* out) {
  // conv_forward on column buffer 0, or 1 for the parallel w3 strip.
  auto conv = [&](const ConvGeometry& g, int64_t images, const float* in,
                  const float* weight, int64_t out_c, float* dst,
                  int cols = 0) {
    conv_forward(g, images, in, {.out_channels = out_c, .f32 = weight},
                 b.col[cols], nullptr, dst);
  };
  const int64_t r = o.rank, oc = o.out_channels;
  conv(p.g1, p.steps * p.batch, x, w.w1, r, b.o1);
  if (o.mode == TTMode::kSTT) {
    conv(p.g2, p.batch, b.o1, w.w2, r, b.o2);
    conv(p.g3, p.batch, b.o2, w.w3, r, b.o3);
    conv(p.g4, p.batch, b.o3, w.w4, oc, out);
    return;
  }
  const int64_t o1_step = p.batch * r * p.g1.col_cols();
  const int64_t strip_step = p.batch * r * p.g2.col_cols();
  const int64_t out_step = p.batch * oc * p.g4.col_cols();
  const int64_t full_steps = static_cast<int64_t>(p.full.size());
  for (int64_t j0 = 0; j0 < full_steps; j0 += p.strip_steps) {
    const int64_t n = std::min(p.strip_steps, full_steps - j0);
    auto strip = [&](const ConvGeometry& g, const float* weight, float* dst,
                     int cols) {
      for (int64_t j = 0; j < n; ++j) {
        conv(g, p.batch, b.o1 + p.full[j0 + j] * o1_step, weight, r,
             dst + j * strip_step, cols);
      }
    };
    run_strips(parallel, [&] { strip(p.g2, w.w2, b.o2, 0); },
               [&] { strip(p.g3, w.w3, b.o3, parallel); });
    simd::axpy(n * strip_step, 1.0F, b.o3, b.o2);
    for (int64_t j = 0; j < n; ++j) {
      conv(p.g4, p.batch, b.o2 + j * strip_step, w.w4, oc,
           out + p.full[j0 + j] * out_step);
    }
  }
  for (int64_t t : p.half) {
    conv(p.g4_half, p.batch, b.o1 + t * o1_step, w.w4, oc, out + t * out_step);
  }
}

void tt_backward(const TTConv2d::Options& o, const TTPlan& p,
                 const TTWeights& w, const float* x, const TTBuffers& b,
                 const float* grad_out, bool parallel,
                 const TTWeightGrads& dw) {
  // conv_backward on column buffers 0, or 1 for the parallel w3 strip.
  auto back = [&](const ConvGeometry& g, int64_t images, int64_t out_c,
                  const float* in, const float* weight, const float* gout,
                  float* dweight, float* grad_in, int cols = 0) {
    conv_backward(g, images, out_c, in, weight, gout, b.col[cols],
                  b.dcol[cols], dweight, grad_in);
  };
  const int64_t r = o.rank, oc = o.out_channels;
  if (o.mode == TTMode::kSTT) {
    back(p.g4, p.batch, oc, b.o3, w.w4, grad_out, dw.w4, b.d4);
    back(p.g3, p.batch, r, b.o2, w.w3, b.d4, dw.w3, b.d3);
    back(p.g2, p.batch, r, b.o1, w.w2, b.d3, dw.w2, b.do1);
  } else {
    const int64_t full_steps = static_cast<int64_t>(p.full.size());
    TTSNN_CHECK(p.strip_steps == full_steps,
                "tt_backward needs every full step's strip sum");
    const int64_t o1_step = p.batch * r * p.g1.col_cols();
    const int64_t strip_step = p.batch * r * p.g2.col_cols();
    const int64_t out_step = p.batch * oc * p.g4.col_cols();
    // w4's dW sums the full steps' images first, then the half steps'.
    for (int64_t j = 0; j < full_steps; ++j) {
      back(p.g4, p.batch, oc, b.o2 + j * strip_step, w.w4,
           grad_out + p.full[j] * out_step, dw.w4, b.d4 + j * strip_step);
    }
    for (int64_t t : p.half) {
      back(p.g4_half, p.batch, oc, b.o1 + t * o1_step, w.w4,
           grad_out + t * out_step, dw.w4, b.do1 + t * o1_step);
    }
    // Both strips read o1. w2's input grad lands in do1, w3's in d3, which
    // is then added in.
    auto strip = [&](const ConvGeometry& g, const float* weight,
                     float* dweight, bool w3) {
      for (int64_t j = 0; j < full_steps; ++j) {
        const int64_t t = p.full[j];
        back(g, p.batch, r, b.o1 + t * o1_step, weight, b.d4 + j * strip_step,
             dweight, w3 ? b.d3 + j * o1_step : b.do1 + t * o1_step,
             w3 && parallel);
      }
    };
    run_strips(parallel, [&] { strip(p.g2, w.w2, dw.w2, false); },
               [&] { strip(p.g3, w.w3, dw.w3, true); });
    for (int64_t j = 0; j < full_steps; ++j) {
      simd::axpy(o1_step, 1.0F, b.d3 + j * o1_step,
                 b.do1 + p.full[j] * o1_step);
    }
  }
  back(p.g1, p.steps * p.batch, r, x, w.w1, b.do1, dw.w1, b.dx);
}

double TTConv2d::full_step_fraction() const {
  const std::vector<bool>& s = opts_.full_step;
  if (opts_.mode != TTMode::kHTT || s.empty()) return 1.0;
  return static_cast<double>(std::count(s.begin(), s.end(), true)) /
         static_cast<double>(s.size());
}

Tensor TTConv2d::forward(const Tensor& x) {
  // Eval-mode forwards keep no activations: backward is a training-only
  // operation, and serving must not pay BPTT memory traffic (nor hold stale
  // caches from a previous training step).
  if (!training_) clear_cache();
  const TTPlan p = plan_tt(opts_, x.shape(), /*step_strips=*/false);
  const bool parallel = opts_.parallel_branches && opts_.mode != TTMode::kSTT;
  Tensor o1 = buffer(p.o1), o2 = buffer(p.o2), o3 = buffer(p.o3);
  Tensor col = buffer(p.col), col2 = buffer(parallel ? p.col : 0);
  Tensor out = Tensor::empty(p.out);
  tt_forward(opts_, p, core_weights(*this), x.data(),
             {.o1 = data_or_null(o1), .o2 = data_or_null(o2),
              .o3 = data_or_null(o3),
              .col = {data_or_null(col), data_or_null(col2)}},
             parallel, out.data());
  if (training_) {
    in_x_ = x;
    o1_ = o1;
    o2_ = o2;
    if (opts_.mode == TTMode::kSTT) o3_ = o3;
  }
  return out;
}

Tensor TTConv2d::backward(const Tensor& grad_out) {
  TTSNN_CHECK(in_x_.defined(), "TTConv2d::backward before forward");
  const TTPlan p = plan_tt(opts_, in_x_.shape(), /*step_strips=*/false);
  TTSNN_CHECK(grad_out.shape() == p.out, "TTConv2d::backward grad shape "
                                              << shape_str(grad_out.shape()));
  const bool parallel = opts_.parallel_branches && opts_.mode != TTMode::kSTT;
  // Zero-filled: the lowering accumulates into every grad buffer.
  Tensor dx(in_x_.shape());
  Tensor do1 = buffer(p.o1, true), d3 = buffer(p.d3, true),
         d4 = buffer(p.d4, true);
  Tensor col[2] = {buffer(p.col), buffer(parallel ? p.col : 0)};
  Tensor dcol[2] = {buffer(p.col), buffer(parallel ? p.col : 0)};
  tt_backward(opts_, p, core_weights(*this), in_x_.data(),
              {.o1 = data_or_null(o1_), .o2 = data_or_null(o2_),
               .o3 = data_or_null(o3_), .dx = dx.data(),
               .do1 = data_or_null(do1), .d3 = data_or_null(d3),
               .d4 = data_or_null(d4),
               .col = {data_or_null(col[0]), data_or_null(col[1])},
               .dcol = {data_or_null(dcol[0]), data_or_null(dcol[1])}},
              grad_out.data(), parallel,
              {.w1 = w1_.grad.data(), .w2 = w2_.grad.data(),
               .w3 = w3_.grad.data(), .w4 = w4_.grad.data()});
  return dx;
}

void TTConv2d::collect_parameters(std::vector<Parameter*>& out) {
  out.push_back(&w1_);
  out.push_back(&w2_);
  out.push_back(&w3_);
  out.push_back(&w4_);
}

TTCores TTConv2d::cores() const {
  return TTCores{.in_channels = opts_.in_channels,
                 .out_channels = opts_.out_channels,
                 .kernel = opts_.kernel,
                 .rank = opts_.rank,
                 .w1 = w1_.value.clone(),
                 .w2 = w2_.value.clone(),
                 .w3 = w3_.value.clone(),
                 .w4 = w4_.value.clone()};
}

Tensor TTConv2d::merged_kernel() const {
  return opts_.mode == TTMode::kSTT ? merge_stt(cores()) : merge_ptt(cores());
}

Tensor TTConv2d::merged_half_kernel() const { return merge_half(cores()); }

void TTConv2d::describe(ShapeState& s, std::vector<LayerDesc>& out) const {
  const std::string mode = tt_mode_name(opts_.mode);
  const double strip_util = full_step_fraction();
  const TTPlan p =
      plan_tt(opts_, {1, 1, opts_.in_channels, s.h, s.w}, /*step_strips=*/true);
  auto emit = [&](TTCore core, const ConvGeometry& g, const char* part,
                  double util, bool spike_in) {
    const Conv2d::Options o = tt_core_options(opts_, core);
    LayerDesc d;
    d.kind = "ttconv";
    d.detail = mode + "." + part;
    d.in_c = o.in_channels;
    d.out_c = o.out_channels;
    d.kernel_h = o.kernel_h;
    d.kernel_w = o.kernel_w;
    d.stride = opts_.stride;
    d.in_h = g.in_h;
    d.in_w = g.in_w;
    d.out_h = g.out_h();
    d.out_w = g.out_w();
    d.params = o.out_channels * o.in_channels * o.kernel_h * o.kernel_w;
    d.macs = d.out_c * d.out_h * d.out_w * o.in_channels * o.kernel_h *
             o.kernel_w;
    d.rank = opts_.rank;
    d.utilization = util;
    d.spike_input = spike_in;
    out.push_back(d);
  };
  emit(TTCore::kW1, p.g1, "w1", 1.0, true);
  emit(TTCore::kW2, p.g2, "w2", strip_util, false);
  emit(TTCore::kW3, p.g3, "w3", strip_util, false);
  emit(TTCore::kW4, p.g4, "w4", 1.0, false);
  s.c = opts_.out_channels;
  s.h = p.g4.out_h();
  s.w = p.g4.out_w();
}

void TTConv2d::clear_cache() {
  in_x_ = Tensor();
  o1_ = Tensor();
  o2_ = Tensor();
  o3_ = Tensor();
}

}  // namespace ttsnn
