#include "infer/analysis.h"

#include <algorithm>
#include <climits>
#include <cstdint>
#include <numeric>
#include <sstream>

#include "tensor/im2col.h"

namespace ttsnn::infer {

namespace {

int64_t align_up(int64_t n) { return plan_align_up(n); }

bool known(int64_t d) { return d != kDimUnknown; }

/// Kinds whose in2 operand is meaningful (a residual join, fused or not).
bool has_second_input(Op::Kind k) {
  return k == Op::Kind::kAdd || k == Op::Kind::kAddLif ||
         k == Op::Kind::kAffineAdd;
}

/// numel of a possibly-symbolic shape; kDimUnknown if any extent is unknown.
int64_t sym_numel(const Shape& s) {
  int64_t n = 1;
  for (int64_t d : s) {
    if (!known(d)) return kDimUnknown;
    n *= d;
  }
  return n;
}

/// "op 3 (conv 16->32 3x3)" — every diagnostic names the offending op.
std::string op_where(const Op& op, size_t index) {
  std::ostringstream oss;
  oss << "op " << index << " (" << op_kind_name(op.kind);
  if (!op.label.empty()) oss << " " << op.label;
  oss << ")";
  return oss.str();
}

int64_t unify_dim(int64_t a, int64_t b, const Op& op, size_t index,
                  const char* what) {
  if (!known(a)) return b;
  if (!known(b)) return a;
  TTSNN_CHECK(a == b, "infer verify: " << op_where(op, index) << ": " << what
                                       << " mismatch (" << a << " vs " << b
                                       << ")");
  return a;
}

/// Elementwise unification of two equal-rank shapes; refines both in place.
void unify_shape(Shape& a, Shape& b, const Op& op, size_t index,
                 const char* what) {
  TTSNN_CHECK(a.size() == b.size(),
              "infer verify: " << op_where(op, index) << ": " << what
                               << " rank mismatch " << shape_str(a) << " vs "
                               << shape_str(b));
  for (size_t d = 0; d < a.size(); ++d) {
    a[d] = b[d] = unify_dim(a[d], b[d], op, index, what);
  }
}

/// Shape transfer of one dense convolution. Unifies the input's channel dim
/// with the conv geometry in place; spatial extents propagate when known and
/// are validated to produce a non-empty output.
Shape conv_out_shape(Shape& in, const Conv2d::Options& o, const Op& op,
                     size_t index, const char* what) {
  TTSNN_CHECK(in.size() >= 3, "infer verify: "
                                  << op_where(op, index) << ": " << what
                                  << " needs at least a [C, H, W] input, got "
                                  << shape_str(in));
  const size_t ci = in.size() - 3;
  in[ci] = unify_dim(in[ci], o.in_channels, op, index, "input channels");
  Shape out = in;
  out[ci] = o.out_channels;
  for (int spatial = 0; spatial < 2; ++spatial) {
    const size_t d = ci + 1 + static_cast<size_t>(spatial);
    if (!known(in[d])) {
      out[d] = kDimUnknown;
      continue;
    }
    const ConvGeometry g = o.geometry(in[ci + 1], in[ci + 2]);
    const int64_t extent = spatial == 0 ? g.out_h() : g.out_w();
    TTSNN_CHECK(extent > 0, "infer verify: " << op_where(op, index) << ": "
                                             << what
                                             << " output would be empty for "
                                             << shape_str(in));
    out[d] = extent;
  }
  return out;
}

/// Per-kind field-group completeness: an op must carry every tensor and
/// option its executor will touch, checked at compile time instead of
/// crashing (or reading undefined tensors) mid-run.
void check_weight4(const Tensor& w, const Conv2d::Options& o, const Op& op,
                   size_t index, const char* what) {
  TTSNN_CHECK(w.defined(), "infer verify: " << op_where(op, index)
                                            << " is missing its " << what);
  TTSNN_CHECK(o.in_channels > 0 && o.out_channels > 0 && o.kernel_h > 0 &&
                  o.kernel_w > 0 && o.resolved_stride_h() > 0 &&
                  o.resolved_stride_w() > 0,
              "infer verify: " << op_where(op, index) << ": invalid " << what
                               << " geometry");
  TTSNN_CHECK(w.dim() == 4 && w.size(0) == o.out_channels &&
                  w.size(1) == o.in_channels && w.size(2) == o.kernel_h &&
                  w.size(3) == o.kernel_w,
              "infer verify: " << op_where(op, index) << ": " << what
                               << " shape " << shape_str(w.shape())
                               << " does not match geometry [" << o.out_channels
                               << ", " << o.in_channels << ", " << o.kernel_h
                               << ", " << o.kernel_w << "]");
}

/// Shared sanity for any quantized plane: payload present, per-channel scales
/// sized to the output-channel dim for int8.
void check_plane_payload(const WeightPlane& p, const Op& op, size_t index,
                         const char* what) {
  TTSNN_CHECK(p.numel() > 0 && p.storage_key() != nullptr,
              "infer verify: " << op_where(op, index) << ": " << what
                               << " plane has no payload");
  if (p.dtype() == WeightDtype::kInt8) {
    TTSNN_CHECK(p.scales().defined() && p.scales().numel() == p.rows(),
                "infer verify: " << op_where(op, index) << ": " << what
                                 << " int8 plane needs one scale per output "
                                 << "channel (" << p.rows() << "), got "
                                 << (p.scales().defined() ? p.scales().numel()
                                                          : 0));
  }
}

/// Conv-shaped weight storage: either a plain f32 tensor or a quantized
/// plane carrying the same [O, C, kh, kw] logical shape — never both.
void check_conv_weight(const Tensor& w, const WeightPlane& p,
                       const Conv2d::Options& o, const Op& op, size_t index,
                       const char* what) {
  if (!p.quantized()) {
    check_weight4(w, o, op, index, what);
    return;
  }
  TTSNN_CHECK(!w.defined(), "infer verify: "
                                << op_where(op, index) << ": " << what
                                << " has both an f32 tensor and a quantized "
                                << "plane — the pass must drop the tensor");
  const Shape& s = p.shape();
  TTSNN_CHECK(s.size() == 4 && s[0] == o.out_channels && s[1] == o.in_channels &&
                  s[2] == o.kernel_h && s[3] == o.kernel_w,
              "infer verify: " << op_where(op, index) << ": " << what
                               << " plane shape " << shape_str(s)
                               << " does not match geometry [" << o.out_channels
                               << ", " << o.in_channels << ", " << o.kernel_h
                               << ", " << o.kernel_w << "]");
  check_plane_payload(p, op, index, what);
}

void check_op_fields(const Op& op, size_t i) {
  switch (op.kind) {
    case Op::Kind::kConv:
    case Op::Kind::kConvLif:
      check_conv_weight(op.weight, op.plane, op.conv, op, i, "conv weight");
      if (!op.tt.full_step.empty()) {
        check_conv_weight(op.half_kernel, op.half_plane, op.half_conv, op, i,
                          "merged half-step kernel");
        TTSNN_CHECK(op.conv.out_channels == op.half_conv.out_channels,
                    "infer verify: " << op_where(op, i)
                                     << ": full/half kernels disagree on "
                                     << "output channels");
      }
      if (op.bias.defined()) {
        TTSNN_CHECK(op.bias.numel() == op.conv.out_channels,
                    "infer verify: " << op_where(op, i) << ": bias has "
                                     << op.bias.numel() << " entries for "
                                     << op.conv.out_channels << " channels");
      }
      break;
    case Op::Kind::kTTExact:
      check_weight4(op.w1, tt_core_options(op.tt, TTCore::kW1), op, i,
                    "TT core w1");
      check_weight4(op.w2, tt_core_options(op.tt, TTCore::kW2), op, i,
                    "TT core w2");
      check_weight4(op.w3, tt_core_options(op.tt, TTCore::kW3), op, i,
                    "TT core w3");
      check_weight4(op.w4, tt_core_options(op.tt, TTCore::kW4), op, i,
                    "TT core w4");
      break;
    case Op::Kind::kAffine:
    case Op::Kind::kAffineLif:
    case Op::Kind::kAffineAdd: {
      const struct {
        const Tensor& t;
        const char* name;
      } fields[] = {{op.bn_gamma, "bn_gamma"},
                    {op.bn_beta, "bn_beta"},
                    {op.bn_mean, "bn_mean"},
                    {op.bn_inv_std, "bn_inv_std"}};
      for (const auto& f : fields) {
        TTSNN_CHECK(f.t.defined(), "infer verify: " << op_where(op, i)
                                                    << " is missing " << f.name);
        TTSNN_CHECK(f.t.numel() == op.bn_gamma.numel(),
                    "infer verify: " << op_where(op, i) << ": " << f.name
                                     << " has " << f.t.numel()
                                     << " entries, expected "
                                     << op.bn_gamma.numel());
      }
      TTSNN_CHECK(op.bn_gamma.numel() > 0,
                  "infer verify: " << op_where(op, i) << ": zero BN channels");
      if (op.bn_mode == BatchNorm::Mode::kTebn) {
        TTSNN_CHECK(op.bn_timesteps > 0 && op.bn_step_scale.defined() &&
                        op.bn_step_scale.numel() == op.bn_timesteps,
                    "infer verify: " << op_where(op, i)
                                     << ": TEBN needs a step scale with one "
                                     << "entry per timestep");
      }
      break;
    }
    case Op::Kind::kLinear:
      if (op.plane.quantized()) {
        TTSNN_CHECK(!op.weight.defined() && op.plane.shape().size() == 2 &&
                        op.plane.rows() > 0 && op.plane.cols() > 0,
                    "infer verify: " << op_where(op, i)
                                     << " needs a [out, in] weight plane");
        check_plane_payload(op.plane, op, i, "linear weight");
      } else {
        TTSNN_CHECK(op.weight.defined() && op.weight.dim() == 2 &&
                        op.weight.size(0) > 0 && op.weight.size(1) > 0,
                    "infer verify: " << op_where(op, i)
                                     << " needs a [out, in] weight matrix");
      }
      if (op.bias.defined()) {
        const int64_t out_f =
            op.plane.quantized() ? op.plane.rows() : op.weight.size(0);
        TTSNN_CHECK(op.bias.numel() == out_f,
                    "infer verify: " << op_where(op, i) << ": bias has "
                                     << op.bias.numel() << " entries for "
                                     << out_f << " outputs");
      }
      break;
    case Op::Kind::kAvgPool:
      TTSNN_CHECK(op.pool_kernel >= 1, "infer verify: "
                                           << op_where(op, i)
                                           << ": pool kernel must be >= 1");
      break;
    case Op::Kind::kLif:
    case Op::Kind::kGlobalPool:
    case Op::Kind::kFlatten:
    case Op::Kind::kAdd:
    case Op::Kind::kAddLif:
      break;
  }
}

/// An HTT schedule must cover every timestep once T is concrete (an empty
/// schedule runs every step full).
void check_schedule(const Op& op, size_t index, int64_t t_steps) {
  const std::vector<bool>& s = op.tt.full_step;
  if (!known(t_steps) || s.empty()) return;
  TTSNN_CHECK(t_steps <= static_cast<int64_t>(s.size()),
              "infer verify: " << op_where(op, index) << ": HTT schedule has "
                               << s.size() << " entries for T=" << t_steps);
}

/// Combined shape transfer + resource footprint of one op. `in` (and `in2`
/// for kAdd) are refined in place by unification. scratch/col are only
/// accumulated for extents that are concrete — the symbolic compile-time
/// pass gets shapes and diagnostics, the concrete planning pass additionally
/// gets exact byte counts. The scratch sum must cover every buffer the
/// planned executor (engine.cpp) takes for the op; the executor asserts it
/// never overruns the budget computed here.
struct OpFootprint {
  Shape out;
  int64_t scratch = 0;  ///< aligned sum of the op's internal temporaries
  int64_t col = 0;      ///< largest im2col column matrix among its convs
};

OpFootprint op_footprint(const Op& op, size_t index, Shape& in, Shape* in2) {
  OpFootprint f;
  // The column matrix conv_forward (tensor/im2col.h) lowers each image
  // into; one plan-wide block sized by the largest. Pointwise geometries
  // read the input in place and need none.
  auto see_col = [&f](const Shape& s, const Conv2d::Options& o) {
    const int64_t h = s[s.size() - 2];
    const int64_t w = s[s.size() - 1];
    if (!known(h) || !known(w)) return;
    const ConvGeometry g = o.geometry(h, w);
    if (!g.pointwise()) f.col = std::max(f.col, g.col_rows() * g.col_cols());
  };
  // Bytes of the transposed u8 matrix an int8 kernel converts each lowered
  // spike image into (0 for f32/bf16, or while an extent is unknown).
  auto tile_bytes = [](const WeightPlane& p, const Shape& s,
                       const Conv2d::Options& o) -> int64_t {
    const int64_t h = s[s.size() - 2];
    const int64_t w = s[s.size() - 1];
    if (p.dtype() != WeightDtype::kInt8 || !known(h) || !known(w)) return 0;
    const ConvGeometry g = o.geometry(h, w);
    return g.col_rows() * g.col_cols();
  };
  // A bf16 kernel dequantizes whole into an f32 buffer once per op call.
  auto see_bf16 = [&f](const WeightPlane& p) {
    if (p.dtype() == WeightDtype::kBf16) f.scratch += align_up(p.numel());
  };

  switch (op.kind) {
    case Op::Kind::kConv:
    case Op::Kind::kConvLif: {
      // A merged HTT conv picks its full or half kernel per timestep.
      const bool htt = !op.tt.full_step.empty();
      const bool lif = op.kind == Op::Kind::kConvLif;
      TTSNN_CHECK((!htt && !lif) || in.size() == 5,
                  "infer verify: " << op_where(op, index) << ": "
                                   << op_kind_name(op.kind)
                                   << " expects [T, N, C, H, W], got "
                                   << shape_str(in));
      f.out = conv_out_shape(in, op.conv, op, index, "conv");
      see_col(in, op.conv);
      if (htt) {
        Shape half = conv_out_shape(in, op.half_conv, op, index,
                                    "merged half-step conv");
        unify_shape(f.out, half, op, index, "HTT full/half-step outputs");
        see_col(in, op.half_conv);
        check_schedule(op, index, in[0]);
      }
      if (lif) {
        // The LIF epilogue's membrane plane over the conv OUTPUT geometry,
        // zeroed once per call.
        const int64_t n = sym_numel(f.out);
        if (known(n) && known(in[0])) f.scratch = align_up(n / in[0]);
      }
      // On top of the membrane, as the engine's run_conv takes them: one u8
      // tile (bytes packed into the float workspace) shared by both kernels
      // of a merged HTT conv, whose steps run one at a time, so sized for
      // the larger; then the full kernel's bf16 buffer and the half
      // kernel's, both read across the step loop.
      int64_t tile = tile_bytes(op.plane, in, op.conv);
      if (htt) tile = std::max(tile, tile_bytes(op.half_plane, in, op.half_conv));
      if (tile > 0) f.scratch += align_up((tile + 3) / 4);
      see_bf16(op.plane);
      if (htt) see_bf16(op.half_plane);
      break;
    }

    case Op::Kind::kTTExact: {
      // The layer's output has its dense conv's shape; its scratch is the
      // pipeline's stages, sized by the plan_tt run_tt_exact takes them by.
      if (op.tt.mode == TTMode::kHTT) {
        TTSNN_CHECK(in.size() == 5,
                    "infer verify: " << op_where(op, index)
                                     << ": HTT expects [T, N, C, H, W], got "
                                     << shape_str(in));
        check_schedule(op, index, in[0]);
      }
      f.out = conv_out_shape(in, tt_dense_options(op.tt), op, index,
                             "TT layer");
      if (known(sym_numel(in))) {
        const TTPlan p = plan_tt(op.tt, in, /*step_strips=*/true);
        f.scratch = align_up(p.o1) + align_up(p.o2) + align_up(p.o3);
        f.col = p.col;
      }
      break;
    }

    case Op::Kind::kAffine:
    case Op::Kind::kAffineLif:
    case Op::Kind::kAffineAdd:
      TTSNN_CHECK(in.size() == 5,
                  "infer verify: " << op_where(op, index)
                                   << ": affine expects [T, N, C, H, W], got "
                                   << shape_str(in));
      in[2] = unify_dim(in[2], op.bn_gamma.numel(), op, index, "BN channels");
      if (op.bn_mode == BatchNorm::Mode::kTebn) {
        in[0] = unify_dim(in[0], op.bn_timesteps, op, index, "TEBN timesteps");
      }
      if (op.kind == Op::Kind::kAffineAdd) {
        TTSNN_CHECK(in2 != nullptr, "infer verify: "
                                        << op_where(op, index)
                                        << " needs a second input");
        unify_shape(in, *in2, op, index, "residual operands");
      }
      f.out = in;
      if (op.kind == Op::Kind::kAffineLif) {
        // The fused LIF epilogue's membrane plane, same as a standalone kLif.
        const int64_t n = sym_numel(in);
        if (known(n) && known(in[0])) f.scratch = align_up(n / in[0]);
      }
      break;

    case Op::Kind::kLif: {
      TTSNN_CHECK(in.size() >= 2, "infer verify: " << op_where(op, index)
                                                   << ": LIF expects "
                                                   << "[T, N, ...], got "
                                                   << shape_str(in));
      f.out = in;
      const int64_t n = sym_numel(in);
      if (known(n) && known(in[0])) f.scratch = align_up(n / in[0]);
      break;
    }

    case Op::Kind::kAvgPool: {
      TTSNN_CHECK(in.size() >= 3, "infer verify: " << op_where(op, index)
                                                   << ": pool expects "
                                                   << "[..., C, H, W], got "
                                                   << shape_str(in));
      f.out = in;
      for (size_t d = in.size() - 2; d < in.size(); ++d) {
        if (!known(in[d])) continue;
        TTSNN_CHECK(in[d] % op.pool_kernel == 0,
                    "infer verify: " << op_where(op, index)
                                     << ": pool requires divisible spatial "
                                     << "dims, got " << shape_str(in) << " k="
                                     << op.pool_kernel);
        f.out[d] = in[d] / op.pool_kernel;
      }
      break;
    }

    case Op::Kind::kGlobalPool:
      TTSNN_CHECK(in.size() == 5,
                  "infer verify: " << op_where(op, index)
                                   << ": global pool expects [T, N, C, H, W], "
                                   << "got " << shape_str(in));
      f.out = {in[0], in[1], in[2]};
      break;

    case Op::Kind::kFlatten: {
      TTSNN_CHECK(in.size() >= 2, "infer verify: " << op_where(op, index)
                                                   << ": flatten expects "
                                                   << "[T, N, ...], got "
                                                   << shape_str(in));
      int64_t rest = 1;
      for (size_t d = 2; d < in.size(); ++d) {
        if (!known(in[d])) {
          rest = kDimUnknown;
          break;
        }
        rest *= in[d];
      }
      f.out = {in[0], in[1], rest};
      break;
    }

    case Op::Kind::kLinear: {
      TTSNN_CHECK(in.size() >= 2, "infer verify: " << op_where(op, index)
                                                   << ": linear expects "
                                                   << "[..., features], got "
                                                   << shape_str(in));
      const size_t li = in.size() - 1;
      const bool planed = op.plane.quantized();
      const int64_t in_f = planed ? op.plane.cols() : op.weight.size(1);
      const int64_t out_f = planed ? op.plane.rows() : op.weight.size(0);
      in[li] = unify_dim(in[li], in_f, op, index, "input features");
      f.out = in;
      f.out[li] = out_f;
      if (planed) {
        if (op.plane.dtype() == WeightDtype::kBf16) {
          f.scratch += align_up(op.plane.numel());
        } else {
          // u8 copy of the whole spike matrix [rows, in_f], bytes in floats.
          int64_t rows = 1;
          bool rows_known = true;
          for (size_t d = 0; d < li; ++d) {
            if (!known(in[d])) {
              rows_known = false;
              break;
            }
            rows *= in[d];
          }
          if (rows_known) f.scratch += align_up((rows * in_f + 3) / 4);
        }
      }
      break;
    }

    case Op::Kind::kAdd:
    case Op::Kind::kAddLif:
      TTSNN_CHECK(in2 != nullptr, "infer verify: " << op_where(op, index)
                                                   << " needs a second input");
      unify_shape(in, *in2, op, index, "residual operands");
      f.out = in;
      if (op.kind == Op::Kind::kAddLif) {
        TTSNN_CHECK(in.size() >= 2,
                    "infer verify: " << op_where(op, index)
                                     << ": add+lif expects [T, N, ...], got "
                                     << shape_str(in));
        const int64_t n = sym_numel(in);
        if (known(n) && known(in[0])) f.scratch = align_up(n / in[0]);
      }
      break;
  }
  return f;
}

}  // namespace

PlanAnalysis analyze_plan(const std::vector<Op>& ops, int num_regs,
                          int result_reg) {
  TTSNN_CHECK(num_regs >= 1, "infer verify: plan has no registers");
  TTSNN_CHECK(result_reg >= 0 && result_reg < num_regs,
              "infer verify: result register r" << result_reg
                                                << " out of range for "
                                                << num_regs << " registers");
  PlanAnalysis a;
  a.num_regs = num_regs;
  a.result_reg = result_reg;
  a.live.assign(static_cast<size_t>(num_regs), LiveRange{});
  a.reads.assign(static_cast<size_t>(num_regs), 0);
  a.root.resize(static_cast<size_t>(num_regs));
  std::iota(a.root.begin(), a.root.end(), 0);
  a.is_alias.assign(ops.size(), false);
  a.is_inplace.assign(ops.size(), false);
  a.sym_shape.assign(static_cast<size_t>(num_regs), Shape{});

  if (ops.empty()) {
    TTSNN_CHECK(result_reg == 0,
                "infer verify: empty plan cannot produce register r"
                    << result_reg);
    a.sym_shape[0] = Shape(5, kDimUnknown);
    return a;
  }

  // ---- pass 1: structure + per-kind field groups ----------------------------
  std::vector<int> def_op(static_cast<size_t>(num_regs), -1);
  auto defined_at = [&](int r, size_t i) {
    return r == 0 || (def_op[static_cast<size_t>(r)] >= 0 &&
                      def_op[static_cast<size_t>(r)] < static_cast<int>(i));
  };
  for (size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    TTSNN_CHECK(op.in >= 0 && op.in < num_regs,
                "infer verify: " << op_where(op, i) << " reads register r"
                                 << op.in << ", out of range for " << num_regs
                                 << " registers");
    TTSNN_CHECK(defined_at(op.in, i), "infer verify: "
                                          << op_where(op, i)
                                          << " reads register r" << op.in
                                          << " before it is written");
    if (has_second_input(op.kind)) {
      TTSNN_CHECK(op.in2 >= 0 && op.in2 < num_regs,
                  "infer verify: " << op_where(op, i)
                                   << " needs a second input register, got r"
                                   << op.in2);
      TTSNN_CHECK(defined_at(op.in2, i), "infer verify: "
                                             << op_where(op, i)
                                             << " reads register r" << op.in2
                                             << " before it is written");
    } else {
      TTSNN_CHECK(op.in2 < 0, "infer verify: " << op_where(op, i)
                                               << " has an unexpected second "
                                               << "input r" << op.in2);
    }
    TTSNN_CHECK(op.out >= 1 && op.out < num_regs,
                "infer verify: " << op_where(op, i) << " writes register r"
                                 << op.out << ", out of range for " << num_regs
                                 << " registers (r0 is the input)");
    TTSNN_CHECK(def_op[static_cast<size_t>(op.out)] < 0,
                "infer verify: " << op_where(op, i) << " writes register r"
                                 << op.out << ", already written by op "
                                 << def_op[static_cast<size_t>(op.out)]);
    check_op_fields(op, i);
    def_op[static_cast<size_t>(op.out)] = static_cast<int>(i);
  }
  TTSNN_CHECK(result_reg == 0 || def_op[static_cast<size_t>(result_reg)] >= 0,
              "infer verify: result register r" << result_reg
                                                << " is never written");

  // ---- liveness -------------------------------------------------------------
  for (int r = 0; r < num_regs; ++r) {
    a.live[static_cast<size_t>(r)].def = def_op[static_cast<size_t>(r)];
  }
  for (size_t i = 0; i < ops.size(); ++i) {
    for (int r : {ops[i].in, ops[i].in2}) {
      if (r >= 0) {
        a.live[static_cast<size_t>(r)].last_use = static_cast<int>(i);
        ++a.reads[static_cast<size_t>(r)];
      }
    }
  }
  for (int r = 1; r < num_regs; ++r) {
    TTSNN_CHECK(def_op[static_cast<size_t>(r)] >= 0,
                "infer verify: register r" << r
                                           << " is never written (the plan "
                                           << "claims " << num_regs
                                           << " registers)");
    TTSNN_CHECK(r == result_reg || a.live[static_cast<size_t>(r)].last_use >= 0,
                "infer verify: "
                    << op_where(ops[static_cast<size_t>(
                                    def_op[static_cast<size_t>(r)])],
                                static_cast<size_t>(
                                    def_op[static_cast<size_t>(r)]))
                    << ": output register r" << r << " is never read");
  }

  // ---- symbolic shape inference ---------------------------------------------
  a.sym_shape[0] = Shape(5, kDimUnknown);
  for (size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    Shape& in = a.sym_shape[static_cast<size_t>(op.in)];
    Shape* in2 =
        op.in2 >= 0 ? &a.sym_shape[static_cast<size_t>(op.in2)] : nullptr;
    a.sym_shape[static_cast<size_t>(op.out)] =
        op_footprint(op, i, in, in2).out;
  }

  // ---- alias + in-place analysis --------------------------------------------
  // group_max[g]: last op reading any register of g's storage group (INT_MAX
  // once the result register joins — it never does, by construction below).
  auto member_last = [&](int r) {
    return r == result_reg ? INT_MAX : a.live[static_cast<size_t>(r)].last_use;
  };
  std::vector<int> group_max(static_cast<size_t>(num_regs), INT_MIN);
  group_max[0] = member_last(0);
  for (size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    const size_t out = static_cast<size_t>(op.out);
    const int g = a.root[static_cast<size_t>(op.in)];
    if (op.kind == Op::Kind::kFlatten && op.out != result_reg) {
      // Pure view: the output register aliases the input buffer.
      a.is_alias[i] = true;
      a.root[out] = g;
      group_max[static_cast<size_t>(g)] =
          std::max(group_max[static_cast<size_t>(g)], member_last(op.out));
      continue;
    }
    // Every elementwise kind whose kernel reads each input element before
    // writing the output at the same position — fused epilogues included.
    // kConvLif is excluded: its gemm writes whole tiles while later tiles
    // still read the input.
    const bool inplace_kind = op.kind == Op::Kind::kLif ||
                              op.kind == Op::Kind::kAffine ||
                              op.kind == Op::Kind::kAdd ||
                              op.kind == Op::Kind::kAffineLif ||
                              op.kind == Op::Kind::kAddLif ||
                              op.kind == Op::Kind::kAffineAdd;
    if (inplace_kind && g != 0 && op.out != result_reg &&
        group_max[static_cast<size_t>(g)] <= static_cast<int>(i) &&
        (op.in2 < 0 || a.root[static_cast<size_t>(op.in2)] != g)) {
      // The input buffer's last reader is this op: write the output over it.
      a.is_inplace[i] = true;
      a.root[out] = g;
      group_max[static_cast<size_t>(g)] =
          std::max(group_max[static_cast<size_t>(g)], member_last(op.out));
      continue;
    }
    a.root[out] = op.out;
    group_max[out] = member_last(op.out);
  }
  return a;
}

bool fusion_candidate(const PlanAnalysis& analysis, int reg) {
  return reg != analysis.result_reg &&
         analysis.reads[static_cast<size_t>(reg)] == 1;
}

MemoryPlan plan_memory(const std::vector<Op>& ops,
                       const PlanAnalysis& analysis, const Shape& input) {
  TTSNN_CHECK(input.size() == 5,
              "infer plan: expects a concrete [T, N, C, H, W] input, got "
                  << shape_str(input));
  for (int64_t d : input) {
    TTSNN_CHECK(d > 0, "infer plan: input has a non-positive extent: "
                           << shape_str(input));
  }
  const int num_regs = analysis.num_regs;
  const int result_reg = analysis.result_reg;
  TTSNN_CHECK(analysis.is_alias.size() == ops.size(),
              "infer plan: analysis does not match this plan");

  MemoryPlan plan;
  plan.shape.assign(static_cast<size_t>(num_regs), Shape{});
  plan.offset.assign(static_cast<size_t>(num_regs), -1);
  plan.floats.assign(static_cast<size_t>(num_regs), 0);
  plan.shape[0] = input;
  plan.floats[0] = shape_numel(input);

  // Concrete shape walk: the same transfer functions as the compile-time
  // verifier, now with every extent known, so residual geometry errors (pool
  // divisibility, TEBN T, short HTT schedules) throw here, pre-kernel.
  for (size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    Shape& in = plan.shape[static_cast<size_t>(op.in)];
    Shape* in2 =
        op.in2 >= 0 ? &plan.shape[static_cast<size_t>(op.in2)] : nullptr;
    const OpFootprint f = op_footprint(op, i, in, in2);
    plan.shape[static_cast<size_t>(op.out)] = f.out;
    plan.floats[static_cast<size_t>(op.out)] = shape_numel(f.out);
    plan.col_floats = std::max(plan.col_floats, f.col);
    plan.scratch_floats = std::max(plan.scratch_floats, f.scratch);
    if (!analysis.is_alias[i]) {
      plan.unplanned_floats +=
          plan.floats[static_cast<size_t>(op.out)] + f.scratch;
    }
  }
  plan.unplanned_floats += plan.col_floats;

  // Storage-group extents: a group's buffer must hold its largest member and
  // live until the last read of any member.
  auto member_end = [&](int r) {
    return r == result_reg ? INT_MAX
                           : analysis.live[static_cast<size_t>(r)].last_use;
  };
  std::vector<int> group_end(static_cast<size_t>(num_regs), INT_MIN);
  std::vector<int64_t> group_size(static_cast<size_t>(num_regs), 0);
  for (int r = 0; r < num_regs; ++r) {
    const size_t g = static_cast<size_t>(analysis.root[static_cast<size_t>(r)]);
    group_end[g] = std::max(group_end[g], member_end(r));
    group_size[g] =
        std::max(group_size[g], plan.floats[static_cast<size_t>(r)]);
  }

  // The im2col and composite-op scratch regions live for the whole call and
  // sit at the bottom of the workspace; registers pack above them.
  int64_t base = 0;
  plan.col_offset = base;
  base += align_up(plan.col_floats);
  plan.scratch_offset = base;
  base += align_up(plan.scratch_floats);

  // Greedy best-fit: place groups largest-first; each goes into the smallest
  // temporal-conflict-free gap that fits (or opens new space at the top).
  struct Block {
    int64_t off = 0;
    int64_t size = 0;
    int start = 0;
    int end = 0;
  };
  struct Region {
    int root = 0;
    int64_t size = 0;
    int start = 0;
    int end = 0;
  };
  std::vector<Region> regions;
  for (int r = 0; r < num_regs; ++r) {
    if (analysis.root[static_cast<size_t>(r)] != r) continue;  // member
    if (r == 0 || r == result_reg) continue;  // caller / owning memory
    regions.push_back(Region{r, align_up(group_size[static_cast<size_t>(r)]),
                             analysis.live[static_cast<size_t>(r)].def,
                             group_end[static_cast<size_t>(r)]});
  }
  std::sort(regions.begin(), regions.end(), [](const Region& x, const Region& y) {
    if (x.size != y.size) return x.size > y.size;
    if (x.start != y.start) return x.start < y.start;
    return x.root < y.root;
  });
  std::vector<Block> placed;
  for (const Region& reg : regions) {
    std::vector<const Block*> conflicts;
    for (const Block& b : placed) {
      if (b.start <= reg.end && reg.start <= b.end) conflicts.push_back(&b);
    }
    std::sort(conflicts.begin(), conflicts.end(),
              [](const Block* x, const Block* y) { return x->off < y->off; });
    int64_t best_off = -1;
    int64_t best_gap = INT64_MAX;
    int64_t cursor = base;
    for (const Block* b : conflicts) {
      if (b->off > cursor) {
        const int64_t gap = b->off - cursor;
        if (gap >= reg.size && gap < best_gap) {
          best_gap = gap;
          best_off = cursor;
        }
      }
      cursor = std::max(cursor, b->off + b->size);
    }
    if (best_off < 0) best_off = cursor;  // open space at the top
    placed.push_back(Block{best_off, reg.size, reg.start, reg.end});
    plan.offset[static_cast<size_t>(reg.root)] = best_off;
  }
  for (int r = 0; r < num_regs; ++r) {
    const int g = analysis.root[static_cast<size_t>(r)];
    if (g != r) {
      plan.offset[static_cast<size_t>(r)] =
          plan.offset[static_cast<size_t>(g)];
    }
  }
  plan.total_floats = base;
  for (const Block& b : placed) {
    plan.total_floats = std::max(plan.total_floats, b.off + b.size);
  }

  // Widest simultaneously-live set of planned groups — the lower bound the
  // packing is judged against in the report.
  for (size_t i = 0; i < ops.size(); ++i) {
    int64_t live_now = 0;
    for (const Region& reg : regions) {
      if (reg.start <= static_cast<int>(i) && reg.end >= static_cast<int>(i)) {
        live_now += reg.size;
      }
    }
    plan.peak_live_floats = std::max(plan.peak_live_floats, live_now);
  }
  return plan;
}

std::string memory_plan_report(const std::vector<Op>& ops,
                               const PlanAnalysis& analysis,
                               const Shape& input) {
  const MemoryPlan plan = plan_memory(ops, analysis, input);
  std::ostringstream oss;
  auto kib = [](int64_t floats) {
    return static_cast<double>(floats) * 4.0 / 1024.0;
  };
  oss << "memory plan for input " << shape_str(input) << "\n";
  for (size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    const size_t out = static_cast<size_t>(op.out);
    oss << "  " << i << ": " << op_kind_name(op.kind);
    if (!op.label.empty()) oss << " " << op.label;
    oss << " -> r" << op.out << " " << shape_str(plan.shape[out]);
    const int last = analysis.live[out].last_use;
    oss << " live [" << i << ", ";
    if (op.out == analysis.result_reg || last < 0) {
      oss << "end";
    } else {
      oss << last;
    }
    oss << "]";
    if (analysis.is_alias[i]) {
      oss << " alias of r" << op.in;
    } else if (analysis.is_inplace[i]) {
      oss << " in-place over r" << op.in << " @" << plan.offset[out];
    } else if (op.out == analysis.result_reg) {
      oss << " result (owned)";
    } else {
      oss << " @" << plan.offset[out];
    }
    oss << "\n";
  }
  oss << "workspace: " << plan.total_floats << " floats ("
      << kib(plan.total_floats) << " KiB) = col " << plan.col_floats
      << " + scratch " << plan.scratch_floats << " + registers\n";
  oss << "unplanned per-call allocations: " << plan.unplanned_floats
      << " floats (" << kib(plan.unplanned_floats) << " KiB); peak live "
      << plan.peak_live_floats << " floats (" << kib(plan.peak_live_floats)
      << " KiB)\n";
  return oss.str();
}

}  // namespace ttsnn::infer
