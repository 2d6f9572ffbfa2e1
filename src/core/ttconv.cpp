#include "core/ttconv.h"

#include "tensor/ops.h"
#include "tensor/random.h"
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

Conv2d::Options TTConv2d::opt_w1() const {
  return {.in_channels = opts_.in_channels, .out_channels = opts_.rank,
          .kernel_h = 1, .kernel_w = 1};
}

Conv2d::Options TTConv2d::opt_w2(bool parallel_mode) const {
  return {.in_channels = opts_.rank, .out_channels = opts_.rank,
          .kernel_h = opts_.kernel, .kernel_w = 1,
          .stride_h = opts_.stride,
          .stride_w = parallel_mode ? opts_.stride : 1};
}

Conv2d::Options TTConv2d::opt_w3(bool parallel_mode) const {
  return {.in_channels = opts_.rank, .out_channels = opts_.rank,
          .kernel_h = 1, .kernel_w = opts_.kernel,
          .stride_h = parallel_mode ? opts_.stride : 1,
          .stride_w = opts_.stride};
}

Conv2d::Options TTConv2d::opt_w4(bool strided_half) const {
  return {.in_channels = opts_.rank, .out_channels = opts_.out_channels,
          .kernel_h = 1, .kernel_w = 1,
          .stride = strided_half ? opts_.stride : 1};
}

bool TTConv2d::is_full_step(int64_t t) const {
  if (opts_.mode != TTMode::kHTT || opts_.full_step.empty()) return true;
  TTSNN_CHECK(t < static_cast<int64_t>(opts_.full_step.size()),
              "HTT schedule too short for timestep " << t);
  return opts_.full_step[static_cast<size_t>(t)];
}

double TTConv2d::full_step_fraction(int64_t timesteps) const {
  if (opts_.mode != TTMode::kHTT || opts_.full_step.empty()) return 1.0;
  int64_t full = 0;
  for (bool b : opts_.full_step) full += b ? 1 : 0;
  const int64_t total = static_cast<int64_t>(opts_.full_step.size());
  (void)timesteps;
  return static_cast<double>(full) / static_cast<double>(total);
}

Tensor TTConv2d::forward(const Tensor& x) {
  // Eval-mode forwards keep no activations: backward is a training-only
  // operation, and serving must not pay BPTT memory traffic (nor hold stale
  // caches from a previous training step).
  if (!training_) clear_cache();
  Tensor o1 = conv2d_forward(x, w1_.value, opt_w1());
  if (training_) {
    in_x_ = x;
    o1_ = o1;
  }
  switch (opts_.mode) {
    case TTMode::kSTT:
      return forward_stt(o1);
    case TTMode::kPTT:
      return forward_ptt_path(o1);
    case TTMode::kHTT:
      return forward_htt(o1);
  }
  TTSNN_CHECK(false, "unreachable");
  return {};
}

Tensor TTConv2d::backward(const Tensor& grad_out) {
  TTSNN_CHECK(in_x_.defined(), "TTConv2d::backward before forward");
  Tensor go;  // gradient w.r.t. o1 (the w1 output)
  switch (opts_.mode) {
    case TTMode::kSTT:
      go = backward_stt(grad_out);
      break;
    case TTMode::kPTT:
      go = backward_ptt_path(grad_out);
      break;
    case TTMode::kHTT:
      go = backward_htt(grad_out);
      break;
  }
  return conv2d_backward(in_x_, w1_.value, opt_w1(), go, w1_.grad);
}

Tensor TTConv2d::forward_stt(const Tensor& o1) {
  Tensor z2 = conv2d_forward(o1, w2_.value, opt_w2(false));
  Tensor z3 = conv2d_forward(z2, w3_.value, opt_w3(false));
  if (training_) {
    stt_z2_ = z2;
    stt_z3_ = z3;
  }
  return conv2d_forward(z3, w4_.value, opt_w4(false));
}

Tensor TTConv2d::backward_stt(const Tensor& grad) {
  Tensor g3 = conv2d_backward(stt_z3_, w4_.value, opt_w4(false), grad, w4_.grad);
  Tensor g2 = conv2d_backward(stt_z2_, w3_.value, opt_w3(false), g3, w3_.grad);
  return conv2d_backward(o1_, w2_.value, opt_w2(false), g2, w2_.grad);
}

const Tensor& TTConv2d::cached_path_input() const {
  // The PTT path consumes o1 directly in PTT mode and the gathered full-step
  // subset in HTT mode.
  return opts_.mode == TTMode::kHTT ? htt_full_x_ : o1_;
}

Tensor TTConv2d::forward_ptt_path(const Tensor& x) {
  // Both strips consume the same input; run them as two pool tasks (Eq. 5).
  Tensor a, b;
  if (opts_.parallel_branches) {
    parallel_invoke([&] { a = conv2d_forward(x, w2_.value, opt_w2(true)); },
                    [&] { b = conv2d_forward(x, w3_.value, opt_w3(true)); });
  } else {
    a = conv2d_forward(x, w2_.value, opt_w2(true));
    b = conv2d_forward(x, w3_.value, opt_w3(true));
  }
  a.add_(b);  // in place: a is a fresh conv output, nothing else aliases it
  if (training_) ptt_sum_ = a;
  return conv2d_forward(a, w4_.value, opt_w4(false));
}

Tensor TTConv2d::backward_ptt_path(const Tensor& grad) {
  Tensor g_sum =
      conv2d_backward(ptt_sum_, w4_.value, opt_w4(false), grad, w4_.grad);
  const Tensor& x = cached_path_input();
  Tensor ga, gb;
  if (opts_.parallel_branches) {
    parallel_invoke(
        [&] { ga = conv2d_backward(x, w2_.value, opt_w2(true), g_sum, w2_.grad); },
        [&] { gb = conv2d_backward(x, w3_.value, opt_w3(true), g_sum, w3_.grad); });
  } else {
    ga = conv2d_backward(x, w2_.value, opt_w2(true), g_sum, w2_.grad);
    gb = conv2d_backward(x, w3_.value, opt_w3(true), g_sum, w3_.grad);
  }
  ga.add_(gb);  // in place: ga is a fresh gradient buffer
  return ga;
}

Tensor TTConv2d::forward_htt(const Tensor& o1) {
  TTSNN_CHECK(o1.dim() == 5, "HTT expects [T, N, C, H, W]");
  const int64_t t_steps = o1.size(0);
  std::vector<int64_t> full_idx, half_idx;
  for (int64_t t = 0; t < t_steps; ++t) {
    (is_full_step(t) ? full_idx : half_idx).push_back(t);
  }
  Tensor full_x = gather_steps(o1, full_idx);
  Tensor half_x = gather_steps(o1, half_idx);
  if (training_) {
    full_idx_ = full_idx;
    half_idx_ = half_idx;
    htt_full_x_ = full_x;
    htt_half_x_ = half_x;
  }

  Tensor y_full, y_half;
  if (full_x.defined()) y_full = forward_ptt_path(full_x);
  if (half_x.defined()) {
    y_half = conv2d_forward(half_x, w4_.value, opt_w4(true));
  }
  TTSNN_CHECK(y_full.defined() || y_half.defined(), "HTT: empty schedule");
  Shape out_shape = (y_full.defined() ? y_full : y_half).shape();
  out_shape[0] = t_steps;
  Tensor out(out_shape);
  if (y_full.defined()) scatter_steps(out, y_full, full_idx);
  if (y_half.defined()) scatter_steps(out, y_half, half_idx);
  return out;
}

Tensor TTConv2d::backward_htt(const Tensor& grad) {
  Tensor go(o1_.shape());
  if (!full_idx_.empty()) {
    Tensor g_full = gather_steps(grad, full_idx_);
    Tensor go_full = backward_ptt_path(g_full);
    scatter_steps(go, go_full, full_idx_);
  }
  if (!half_idx_.empty()) {
    Tensor g_half = gather_steps(grad, half_idx_);
    Tensor go_half =
        conv2d_backward(htt_half_x_, w4_.value, opt_w4(true), g_half, w4_.grad);
    scatter_steps(go, go_half, half_idx_);
  }
  return go;
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
  const double strip_util = full_step_fraction(0);
  const bool parallel_mode = opts_.mode != TTMode::kSTT;
  const int64_t in_h = s.h, in_w = s.w;

  auto emit = [&](const Conv2d::Options& o, const char* part, double util,
                  bool spike_in, int64_t ih, int64_t iw) -> ConvGeometry {
    const ConvGeometry g = o.geometry(ih, iw);
    LayerDesc d;
    d.kind = "ttconv";
    d.detail = mode + "." + part;
    d.in_c = o.in_channels;
    d.out_c = o.out_channels;
    d.kernel_h = o.kernel_h;
    d.kernel_w = o.kernel_w;
    d.stride = opts_.stride;
    d.in_h = ih;
    d.in_w = iw;
    d.out_h = g.out_h();
    d.out_w = g.out_w();
    d.params = o.out_channels * o.in_channels * o.kernel_h * o.kernel_w;
    d.macs = d.out_c * d.out_h * d.out_w * o.in_channels * o.kernel_h *
             o.kernel_w;
    d.rank = opts_.rank;
    d.utilization = util;
    d.spike_input = spike_in;
    out.push_back(d);
    return g;
  };

  ConvGeometry g1 = emit(opt_w1(), "w1", 1.0, true, in_h, in_w);
  ConvGeometry g2 =
      emit(opt_w2(parallel_mode), "w2", strip_util, false, g1.out_h(), g1.out_w());
  ConvGeometry g3 =
      emit(opt_w3(parallel_mode), "w3", strip_util, false,
           parallel_mode ? g1.out_h() : g2.out_h(),
           parallel_mode ? g1.out_w() : g2.out_w());
  ConvGeometry g4 = emit(opt_w4(false), "w4", 1.0, false, g3.out_h(), g3.out_w());

  s.c = opts_.out_channels;
  s.h = g4.out_h();
  s.w = g4.out_w();
}

void TTConv2d::clear_cache() {
  in_x_ = Tensor();
  o1_ = Tensor();
  stt_z2_ = Tensor();
  stt_z3_ = Tensor();
  ptt_sum_ = Tensor();
  htt_full_x_ = Tensor();
  htt_half_x_ = Tensor();
  full_idx_.clear();
  half_idx_.clear();
}

}  // namespace ttsnn
