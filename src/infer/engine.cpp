#include "infer/engine.h"

#include <algorithm>
#include <sstream>

#include "infer/analysis.h"
#include "infer/plan_cache.h"
#include "nn/linear.h"
#include "nn/pooling.h"
#include "tensor/im2col.h"
#include "tensor/simd.h"
#include "util/failpoint.h"

namespace ttsnn::infer {

namespace {

/// Memory provider behind every op kernel, for ONE op of a compiled
/// program: the output is a pre-computed destination (workspace view,
/// in-place alias of the input, or the owning result tensor), raw buffers
/// bump through the plan's scratch region, col is the plan's fixed column
/// block. The bump cursor is checked against the scratch budget
/// op_footprint() (analysis.cpp) computed — any drift between the analysis
/// and the kernels is a hard error, not a corruption.
struct PlannedCtx {
  const MemoryPlan* plan = nullptr;
  Tensor* ws = nullptr;
  Tensor dest;
  size_t op_index = 0;
  int64_t cursor = 0;

  /// The op's output tensor (register `out`).
  Tensor out(const Shape& s) const {
    TTSNN_CHECK(dest.defined() && s == dest.shape(),
                "infer: planned shape drift at op " << op_index << ": kernel "
                    << "produced " << shape_str(s) << ", plan says "
                    << shape_str(dest.shape()));
    return dest;
  }
  /// The im2col column matrix, shared by every conv lowering in the plan.
  float* col(int64_t elems) const {
    TTSNN_CHECK(elems <= plan->col_floats,
                "infer: planned col overrun at op " << op_index);
    return ws->data() + plan->col_offset;
  }
  /// Raw float scratch (the LIF membrane plane, dequant buffers, u8 tiles,
  /// the exact TT pipeline's stages).
  float* raw(int64_t elems) {
    float* p = ws->data() + plan->scratch_offset + cursor;
    bump(elems);
    return p;
  }

 private:
  void bump(int64_t elems) {
    cursor += plan_align_up(elems);
    TTSNN_CHECK(cursor <= plan->scratch_floats,
                "infer: planned scratch overrun at op " << op_index);
  }
};

/// run_conv's per-tile epilogue (ConvEpilogue, tensor/im2col.h), run on each
/// output tile while it is still cache-hot. A defined bias adds bias[c] to
/// every element of channel plane c. A kConvLif then runs kLif's kernel,
/// one lif_step_eval over the tile, in place: image b = t*N + n steps sample
/// n's membrane plane, and the lowering's ascending image order IS the
/// recurrence order. These are the unfused plan's kernels in its order, so
/// the bits match, and lif_step_eval reads each element before writing the
/// spike over it, so the pre-activation never reaches a second buffer.
struct TileEpilogue {
  const float* bias = nullptr;  ///< [channels], or null
  const LIFNeuron::Options* lif = nullptr;
  float* u_post = nullptr;  ///< [n, channels, hw] membrane planes (LIF only)
  int64_t n = 1;            ///< samples per timestep (LIF only)
  int64_t channels = 0;
  int64_t hw = 0;
};

void run_tile_epilogue(void* ctx, int64_t image, float* tile) {
  const TileEpilogue& e = *static_cast<const TileEpilogue*>(ctx);
  if (e.bias != nullptr) {
    for (int64_t c = 0; c < e.channels; ++c) {
      float* plane = tile + c * e.hw;
      const float bv = e.bias[c];
      for (int64_t i = 0; i < e.hw; ++i) plane[i] += bv;
    }
  }
  if (e.lif == nullptr) return;
  const int64_t tile_floats = e.channels * e.hw;
  simd::lif_step_eval(tile_floats, e.lif->tau, e.lif->v_th,
                      e.lif->reset == ResetMode::kZero, tile,
                      e.u_post + (image % e.n) * tile_floats, tile);
}

/// Output shape of the conv `opts` over x [..., C, H, W], checked.
Shape conv_shape(const Tensor& x, const Conv2d::Options& opts) {
  TTSNN_CHECK(x.dim() >= 3, "infer conv: input must be at least [C, H, W]");
  TTSNN_CHECK(x.size(-3) == opts.in_channels,
              "infer conv: channel mismatch, expected "
                  << opts.in_channels << " in " << shape_str(x.shape()));
  const ConvGeometry g = opts.geometry(x.size(-2), x.size(-1));
  TTSNN_CHECK(g.out_h() > 0 && g.out_w() > 0,
              "infer conv: output would be empty for input "
                  << shape_str(x.shape()));
  Shape s = x.shape();
  s[s.size() - 3] = opts.out_channels;
  s[s.size() - 2] = g.out_h();
  s[s.size() - 1] = g.out_w();
  return s;
}

/// One conv kernel resolved into the operands conv_forward (tensor/im2col.h)
/// reads at x's spatial size. An f32 kernel is read in place; a quantized
/// `plane` takes its scratch here, in op_footprint's order: bf16 dequantizes
/// into scratch once per op call and runs the identical f32 GEMM; int8 runs
/// the integer spike-GEMM with per-channel rescale through the caller's u8
/// tile buffer `tile` (int8_tile_bytes long, at least).
struct ConvKernel {
  ConvGeometry g;
  ConvWeights w;
  float* col = nullptr;   ///< the plan's column block; null when pointwise
  uint8_t* u8 = nullptr;  ///< int8 only
};

/// Bytes of the u8 tile an int8 `plane` converts each lowered spike image
/// into at x's spatial size; 0 for an f32 or bf16 plane.
int64_t int8_tile_bytes(const WeightPlane& plane, const Conv2d::Options& opts,
                        const Tensor& x) {
  if (plane.dtype() != WeightDtype::kInt8) return 0;
  const ConvGeometry g = opts.geometry(x.size(-2), x.size(-1));
  return g.col_rows() * g.col_cols();
}

ConvKernel resolve_kernel(const Tensor& weight, const WeightPlane& plane,
                          const Conv2d::Options& opts, const Tensor& x,
                          PlannedCtx& ctx, uint8_t* tile) {
  ConvKernel k{.g = opts.geometry(x.size(-2), x.size(-1)),
               .w = {.out_channels = opts.out_channels}};
  if (!k.g.pointwise()) k.col = ctx.col(k.g.col_rows() * k.g.col_cols());
  if (!plane.quantized()) {
    k.w.f32 = weight.data();
  } else if (plane.dtype() == WeightDtype::kBf16) {
    float* wbuf = ctx.raw(plane.numel());
    simd::dequant_bf16(plane.numel(), plane.bf16_data(), wbuf);
    k.w.f32 = wbuf;
  } else {
    k.w.s8 = plane.int8_data();
    k.w.scales = plane.scales().data();
    k.u8 = tile;
  }
  return k;
}

/// kConv / kConvLif through conv_forward, the lowering conv2d_forward()
/// runs, so exact plans are bit-identical to the Module path by
/// construction; the column matrix, the output and every scratch buffer come
/// from the plan. A defined bias and a kConvLif's LIF step become the
/// per-tile epilogue. A merged HTT conv (non-empty op.tt.full_step) runs the
/// N images of each timestep — contiguous in [T, N, C, H, W] — straight from
/// x into out with the kernel the step's schedule entry picks. Every image
/// gets its own GEMM, so the bits are those of gathering each class of
/// steps, convolving it and scattering the results back.
Tensor run_conv(const Op& op, const Tensor& x, PlannedCtx& ctx) {
  const bool lif = op.kind == Op::Kind::kConvLif;
  const std::vector<bool>& schedule = op.tt.full_step;
  TTSNN_CHECK((!lif && schedule.empty()) || x.dim() == 5,
              "infer " << op_kind_name(op.kind)
                       << " expects [T, N, C, H, W], got "
                       << shape_str(x.shape()));
  // gemm beta=0 writes every element of the (possibly uninitialized) output.
  Tensor out = ctx.out(conv_shape(x, op.conv));
  const int64_t hw = out.size(-2) * out.size(-1);
  TileEpilogue epi{.bias = op.bias.defined() ? op.bias.data() : nullptr,
                   .lif = lif ? &op.lif : nullptr,
                   .channels = op.conv.out_channels,
                   .hw = hw};
  if (lif) {
    epi.n = x.size(1);
    const int64_t membrane = epi.n * op.conv.out_channels * hw;
    epi.u_post = ctx.raw(membrane);
    std::fill(epi.u_post, epi.u_post + membrane, 0.0F);
  }
  ConvEpilogue epilogue;
  if (epi.bias != nullptr || lif) {
    epilogue = {.fn = run_tile_epilogue, .ctx = &epi};
  }
  // After the membrane plane: one u8 tile for the int8 kernels, then the
  // full kernel's bf16 buffer, then the half kernel's. A merged HTT conv
  // runs its steps one at a time, so both kernels share the tile, sized for
  // the larger (the full kernel's K*K*C rows against the half's C).
  int64_t tile_bytes = int8_tile_bytes(op.plane, op.conv, x);
  if (!schedule.empty()) {
    tile_bytes =
        std::max(tile_bytes, int8_tile_bytes(op.half_plane, op.half_conv, x));
  }
  uint8_t* tile = tile_bytes == 0 ? nullptr
                                  : reinterpret_cast<uint8_t*>(
                                        ctx.raw((tile_bytes + 3) / 4));
  const ConvKernel full =
      resolve_kernel(op.weight, op.plane, op.conv, x, ctx, tile);
  if (schedule.empty()) {
    conv_forward(full.g, x.numel() / (x.size(-3) * x.size(-2) * x.size(-1)),
                 x.data(), full.w, full.col, full.u8, out.data(), epilogue);
    return out;
  }
  const ConvKernel half =
      resolve_kernel(op.half_kernel, op.half_plane, op.half_conv, x, ctx, tile);
  // plan_memory rejected a schedule shorter than T before any kernel ran.
  const int64_t steps = x.size(0);
  const int64_t x_step = x.numel() / steps;
  const int64_t out_step = out.numel() / steps;
  for (int64_t t = 0; t < steps; ++t) {
    const ConvKernel& k = schedule[static_cast<size_t>(t)] ? full : half;
    conv_forward(k.g, x.size(1), x.data() + t * x_step, k.w, k.col, k.u8,
                 out.data() + t * out_step, epilogue);
  }
  return out;
}

/// Unmerged TT layer: TTConv2d::forward's pipeline, tt_forward, so exact
/// plans match it by construction, over the scratch and column block that
/// plan_tt sized for op_footprint; the strips run serially.
Tensor run_tt_exact(const Op& op, const Tensor& x, PlannedCtx& ctx) {
  const TTPlan p = plan_tt(op.tt, x.shape(), /*step_strips=*/true);
  Tensor out = ctx.out(p.out);
  const TTBuffers b{.o1 = ctx.raw(p.o1), .o2 = ctx.raw(p.o2),
                    .o3 = ctx.raw(p.o3), .col = {ctx.col(p.col)}};
  tt_forward(op.tt, p,
             {.w1 = op.w1.data(), .w2 = op.w2.data(), .w3 = op.w3.data(),
              .w4 = op.w4.data()},
             x.data(), b, /*parallel=*/false, out.data());
  return out;
}

/// Inference BatchNorm — an affine per (timestep, channel) from the stored
/// running stats — alone (kAffine), feeding one LIF step (kAffineLif), or
/// feeding the residual join with x2 (kAffineAdd). One image (the C x H x W
/// of one (t, n)) at a time, t ascending, so each sample's membrane plane
/// sees the recurrence order: simd::affine (BatchNorm's eval forward) fills
/// the image's channel planes of the output, then a fused op runs the kernel
/// of the op it replaces over that image in place — kLif's lif_step_eval,
/// or run_add's axpy(1, x2), whose bits do not depend on which operand of
/// the join the affine produced because IEEE-754 addition is commutative.
/// So the bits are the unfused plan's. Every kernel reads an element of x
/// before writing that position, so the output may alias x (the in-place
/// path) — never x2, whose storage group the analysis keeps apart.
Tensor run_affine(const Op& op, const Tensor& x, const Tensor& x2,
                  PlannedCtx& ctx) {
  const char* what = op_kind_name(op.kind);
  TTSNN_CHECK(x.dim() == 5, "infer " << what << " expects [T, N, C, H, W], got "
                                     << shape_str(x.shape()));
  if (op.kind == Op::Kind::kAffineAdd) {
    TTSNN_CHECK(x.same_shape(x2), "elementwise shape mismatch "
                                      << shape_str(x.shape()) << " vs "
                                      << shape_str(x2.shape()));
  }
  const int64_t t_steps = x.size(0);
  const int64_t n = x.size(1);
  const int64_t c = x.size(2);
  const int64_t hw = x.size(3) * x.size(4);
  const int64_t image = c * hw;
  TTSNN_CHECK(c == op.bn_gamma.numel(),
              "infer " << what << " channel mismatch: " << c);
  const bool tebn = op.bn_mode == BatchNorm::Mode::kTebn;
  if (tebn) {
    TTSNN_CHECK(t_steps == op.bn_timesteps,
                "infer " << what << ": TEBN configured for T="
                         << op.bn_timesteps << ", got " << t_steps);
  }
  Tensor out = ctx.out(x.shape());
  float* u_post = nullptr;
  if (op.kind == Op::Kind::kAffineLif) {
    u_post = ctx.raw(n * image);
    std::fill(u_post, u_post + n * image, 0.0F);
  }
  const float* g_gamma = op.bn_gamma.data();
  const float* g_beta = op.bn_beta.data();
  const float* g_mean = op.bn_mean.data();
  const float* g_inv_std = op.bn_inv_std.data();
  for (int64_t t = 0; t < t_steps; ++t) {
    const float step = tebn ? op.bn_step_scale[t] : 1.0F;
    for (int64_t b = 0; b < n; ++b) {
      const int64_t base = (t * n + b) * image;
      const float* in = x.data() + base;
      float* y = out.data() + base;
      for (int64_t ch = 0; ch < c; ++ch) {
        const float eff = g_gamma[ch] * op.bn_alpha_vth * step;
        simd::affine(hw, g_mean[ch], g_inv_std[ch], eff, g_beta[ch],
                     in + ch * hw, y + ch * hw);
      }
      if (op.kind == Op::Kind::kAffineLif) {
        simd::lif_step_eval(image, op.lif.tau, op.lif.v_th,
                            op.lif.reset == ResetMode::kZero, y,
                            u_post + b * image, y);
      } else if (op.kind == Op::Kind::kAffineAdd) {
        simd::axpy(image, 1.0F, x2.data() + base, y);
      }
    }
  }
  return out;
}

/// LIF spikes via the stateless eval kernel; the membrane plane comes from
/// ctx scratch. lif_step_eval is read-before-write per element, so the
/// output may alias the input.
Tensor run_lif(const Op& op, const Tensor& x, PlannedCtx& ctx) {
  TTSNN_CHECK(x.dim() >= 2,
              "LIF expects [T, N, ...], got " << shape_str(x.shape()));
  Tensor out = ctx.out(x.shape());
  float* u_post = ctx.raw(x.numel() / x.size(0));
  lif_forward_eval_into(op.lif, x, out, u_post);
  return out;
}

/// Non-overlapping average pool: AvgPool2d's kernel, avg_pool_forward_into.
Tensor run_avg_pool(const Tensor& x, int64_t kernel, PlannedCtx& ctx) {
  TTSNN_CHECK(x.dim() >= 3, "infer pool expects [..., C, H, W]");
  const int64_t h = x.size(-2);
  const int64_t w = x.size(-1);
  TTSNN_CHECK(h % kernel == 0 && w % kernel == 0,
              "infer pool requires divisible spatial dims, got "
                  << h << "x" << w << " k=" << kernel);
  Shape out_shape = x.shape();
  out_shape[out_shape.size() - 2] = h / kernel;
  out_shape[out_shape.size() - 1] = w / kernel;
  Tensor out = ctx.out(out_shape);
  avg_pool_forward_into(x.numel() / (h * w), h, w, kernel, x.data(),
                        out.data());
  return out;
}

/// Global average pool [T,N,C,H,W] -> [T,N,C]: GlobalAvgPool's kernel,
/// global_avg_pool_forward_into.
Tensor run_global_pool(const Tensor& x, PlannedCtx& ctx) {
  TTSNN_CHECK(x.dim() == 5, "infer global pool expects [T, N, C, H, W]");
  const int64_t hw = x.size(3) * x.size(4);
  Tensor out = ctx.out({x.size(0), x.size(1), x.size(2)});
  global_avg_pool_forward_into(x.numel() / hw, hw, x.data(), out.data());
  return out;
}

/// Dense head (weight [out, in]): Linear's kernel, linear_forward_into.
/// Quantized planes follow the run_conv pattern: bf16 dequantizes into
/// scratch then runs the identical f32 kernel; int8 converts the spike rows
/// to u8, runs the integer GEMM in its linear (trans_b) orientation and then
/// Linear's bias pass, linear_add_bias.
Tensor run_linear(const Op& op, const Tensor& x, PlannedCtx& ctx) {
  const bool planed = op.plane.quantized();
  const int64_t out_f = planed ? op.plane.rows() : op.weight.size(0);
  const int64_t in_f = planed ? op.plane.cols() : op.weight.size(1);
  TTSNN_CHECK(x.size(-1) == in_f, "infer linear expected last dim "
                                      << in_f << ", got " << shape_str(x.shape()));
  const int64_t b = x.numel() / in_f;
  Shape out_shape = x.shape();
  out_shape[out_shape.size() - 1] = out_f;
  Tensor out = ctx.out(out_shape);  // both GEMMs write every element
  const float* bias = op.bias.defined() ? op.bias.data() : nullptr;
  if (planed && op.plane.dtype() == WeightDtype::kInt8) {
    uint8_t* su8 = reinterpret_cast<uint8_t*>(ctx.raw((b * in_f + 3) / 4));
    simd::spikes_to_u8(b * in_f, x.data(), su8);
    simd::gemm_s8_sxw(b, out_f, in_f, su8, op.plane.int8_data(),
                      op.plane.scales().data(), out.data());
    if (bias != nullptr) linear_add_bias(b, out_f, bias, out.data());
    return out;
  }
  const float* wf;
  if (planed) {  // bf16: dequant once, then the identical f32 kernel
    float* wbuf = ctx.raw(op.plane.numel());
    simd::dequant_bf16(op.plane.numel(), op.plane.bf16_data(), wbuf);
    wf = wbuf;
  } else {
    wf = op.weight.data();
  }
  linear_forward_into(b, in_f, out_f, x.data(), wf, bias, out.data());
  return out;
}

/// Residual join: copy + axpy, the same kernel sequence as ops.h add()
/// (clone then axpy_), so the bits agree. When the destination aliases x
/// (the planned in-place path) the copy is skipped.
Tensor run_add(const Tensor& x, const Tensor& x2, PlannedCtx& ctx) {
  TTSNN_CHECK(x.same_shape(x2), "elementwise shape mismatch "
                                    << shape_str(x.shape()) << " vs "
                                    << shape_str(x2.shape()));
  Tensor out = ctx.out(x.shape());
  if (out.data() != x.data()) {
    std::copy(x.data(), x.data() + x.numel(), out.data());
  }
  out.axpy_(1.0F, x2);
  return out;
}

/// Fused residual join + LIF step: one image (the numel / (T*N) floats of
/// one (t, n)) at a time, t ascending, run_add's copy + axpy(1, x2) and then
/// kLif's lif_step_eval over the image in place — the unfused plan's kernels
/// in its order, so the bits match. The output may alias x (the copy is
/// then skipped), never x2 — the analysis keeps in2's storage group
/// separate from the in-place group.
Tensor run_add_lif(const Op& op, const Tensor& x, const Tensor& x2,
                   PlannedCtx& ctx) {
  TTSNN_CHECK(x.same_shape(x2), "elementwise shape mismatch "
                                    << shape_str(x.shape()) << " vs "
                                    << shape_str(x2.shape()));
  TTSNN_CHECK(x.dim() >= 2,
              "infer add+lif expects [T, N, ...], got " << shape_str(x.shape()));
  Tensor out = ctx.out(x.shape());
  const int64_t t_steps = x.size(0);
  const int64_t n = x.size(1);
  const int64_t m = x.numel() / t_steps;
  const int64_t image = m / n;
  float* u_post = ctx.raw(m);
  std::fill(u_post, u_post + m, 0.0F);
  const bool in_place = out.data() == x.data();
  for (int64_t i = 0; i < t_steps * n; ++i) {
    const float* a = x.data() + i * image;
    float* y = out.data() + i * image;
    if (!in_place) std::copy(a, a + image, y);
    simd::axpy(image, 1.0F, x2.data() + i * image, y);
    simd::lif_step_eval(image, op.lif.tau, op.lif.v_th,
                        op.lif.reset == ResetMode::kZero, y,
                        u_post + (i % n) * image, y);
  }
  return out;
}

Tensor exec_op(const Op& op, const Tensor& x, const Tensor& x2,
               PlannedCtx& ctx) {
  switch (op.kind) {
    case Op::Kind::kConv:
    case Op::Kind::kConvLif:
      return run_conv(op, x, ctx);
    case Op::Kind::kTTExact:
      return run_tt_exact(op, x, ctx);
    case Op::Kind::kAffine:
    case Op::Kind::kAffineLif:
    case Op::Kind::kAffineAdd:
      return run_affine(op, x, x2, ctx);
    case Op::Kind::kLif:
      return run_lif(op, x, ctx);
    case Op::Kind::kAvgPool:
      return run_avg_pool(x, op.pool_kernel, ctx);
    case Op::Kind::kGlobalPool:
      return run_global_pool(x, ctx);
    case Op::Kind::kFlatten:
      return x.reshape({x.size(0), x.size(1), -1});
    case Op::Kind::kLinear:
      return run_linear(op, x, ctx);
    case Op::Kind::kAdd:
      return run_add(x, x2, ctx);
    case Op::Kind::kAddLif:
      return run_add_lif(op, x, x2, ctx);
  }
  TTSNN_CHECK(false, "unreachable");
  return {};
}

}  // namespace

const char* op_kind_name(Op::Kind k) {
  switch (k) {
    case Op::Kind::kConv:
      return "conv";
    case Op::Kind::kTTExact:
      return "tt";
    case Op::Kind::kAffine:
      return "affine";
    case Op::Kind::kLif:
      return "lif";
    case Op::Kind::kAvgPool:
      return "pool";
    case Op::Kind::kGlobalPool:
      return "gpool";
    case Op::Kind::kFlatten:
      return "flatten";
    case Op::Kind::kLinear:
      return "linear";
    case Op::Kind::kAdd:
      return "add";
    case Op::Kind::kConvLif:
      return "conv+lif";
    case Op::Kind::kAffineLif:
      return "affine+lif";
    case Op::Kind::kAddLif:
      return "add+lif";
    case Op::Kind::kAffineAdd:
      return "affine+add";
  }
  return "?";
}

Tensor Engine::run(const Tensor& x) const {
  Tensor workspace;
  return run(x, workspace);
}

std::shared_ptr<const CompiledProgram> Engine::program(
    const Shape& input) const {
  TTSNN_CHECK(analysis_ && programs_,
              "infer::Engine::program on an unsealed engine");
  return programs_->get(ops_, *analysis_, input);
}

std::shared_ptr<const MemoryPlan> Engine::memory_plan(
    const Shape& input) const {
  // The aliasing constructor keeps the whole program alive through the
  // layout handle, so layout-only callers cannot dangle after an eviction.
  std::shared_ptr<const CompiledProgram> prog = program(input);
  return {prog, prog->layout.get()};
}

ProgramCacheStats Engine::cache_stats() const {
  TTSNN_CHECK(programs_, "infer::Engine::cache_stats on an unsealed engine");
  return programs_->stats();
}

Shape Engine::input_signature() const {
  TTSNN_CHECK(analysis_, "infer::Engine::input_signature on an unsealed engine");
  return analysis_->sym_shape[0];
}

Tensor Engine::run(const Tensor& x, Tensor& workspace) const {
  TTSNN_FAILPOINT("engine.run");
  TTSNN_CHECK(!ops_.empty(), "infer::Engine::run on an empty plan");
  TTSNN_CHECK(x.dim() == 5, "infer::Engine::run expects [T, N, C, H, W], got "
                                << shape_str(x.shape()));
  // One cache lookup per call resolves EVERYTHING shape-dependent: the packed
  // layout and each op's destination. The op loop below only follows the
  // precomputed records.
  const std::shared_ptr<const CompiledProgram> prog = program(x.shape());
  const MemoryPlan* plan = prog->layout.get();
  if (plan->total_floats > 0 &&
      (!workspace.defined() || workspace.numel() < plan->total_floats)) {
    workspace = Tensor::empty({plan->total_floats});
  }
  std::vector<Tensor> regs(static_cast<size_t>(num_regs_));
  regs[0] = x;
  for (size_t i = 0; i < ops_.size(); ++i) {
    const Op& op = ops_[i];
    const OpExec& ex = prog->exec[i];
    const size_t out = static_cast<size_t>(op.out);
    Tensor& a = regs[static_cast<size_t>(op.in)];
    TTSNN_CHECK(a.defined(), "infer: op " << i << " reads an undefined register");
    if (ex.dest == OpExec::Dest::kAlias) {
      // kFlatten view — no kernel, no memory: reshare the input buffer.
      regs[out] = a.reshape(ex.out_shape);
      continue;
    }
    if (ex.dest == OpExec::Dest::kMaterialize) {
      // Flatten INTO the result register: the caller must not receive a view
      // of the recycled workspace (or of its own input), so materialize.
      Tensor y = Tensor::empty(ex.out_shape);
      std::copy(a.data(), a.data() + a.numel(), y.data());
      regs[out] = std::move(y);
      continue;
    }
    PlannedCtx ctx;
    ctx.plan = plan;
    ctx.ws = &workspace;
    ctx.op_index = i;
    switch (ex.dest) {
      case OpExec::Dest::kResult:
        ctx.dest = Tensor::empty(ex.out_shape);  // the caller owns this
        break;
      case OpExec::Dest::kInPlace:
        ctx.dest = a.reshape(ex.out_shape);  // write over the dying input
        break;
      default:
        ctx.dest = workspace.view(ex.offset, ex.out_shape);
        break;
    }
    static const Tensor kNone;
    const Tensor& b = op.in2 >= 0 ? regs[static_cast<size_t>(op.in2)] : kNone;
    regs[out] = exec_op(op, a, b, ctx);
  }
  return regs[static_cast<size_t>(result_reg_)];
}

void Engine::seal() {
  analysis_ = std::make_shared<const PlanAnalysis>(
      analyze_plan(ops_, num_regs_, result_reg_));
  programs_ = std::make_shared<ProgramCache>(opts_.plan_cache_bytes);
}

std::string Engine::summary() const {
  std::ostringstream oss;
  for (size_t i = 0; i < ops_.size(); ++i) {
    const Op& op = ops_[i];
    oss << i << ": " << op_kind_name(op.kind);
    if (!op.label.empty()) oss << " " << op.label;
    oss << " (r" << op.in;
    if (op.in2 >= 0) oss << ", r" << op.in2;
    oss << " -> r" << op.out << ")";
    if (analysis_) {
      const size_t out = static_cast<size_t>(op.out);
      const int last = analysis_->live[out].last_use;
      oss << " live [" << i << ", ";
      if (op.out == result_reg_ || last < 0) {
        oss << "end";
      } else {
        oss << last;
      }
      oss << "]";
      if (analysis_->is_alias[i]) oss << " alias";
      if (analysis_->is_inplace[i]) oss << " in-place";
    }
    oss << "\n";
  }
  // Always printed (even at 0) so ttsnn_plan_lint can assert fusion happened.
  int fused_total = 0;
  int fused_counts[4] = {0, 0, 0, 0};
  for (const Op& op : ops_) {
    switch (op.kind) {
      case Op::Kind::kConvLif:
        ++fused_counts[0];
        ++fused_total;
        break;
      case Op::Kind::kAffineLif:
        ++fused_counts[1];
        ++fused_total;
        break;
      case Op::Kind::kAddLif:
        ++fused_counts[2];
        ++fused_total;
        break;
      case Op::Kind::kAffineAdd:
        ++fused_counts[3];
        ++fused_total;
        break;
      default:
        break;
    }
  }
  oss << "fused ops: " << fused_total;
  if (fused_total > 0) {
    static const char* const kFusedNames[4] = {"conv+lif", "affine+lif",
                                               "add+lif", "affine+add"};
    const char* sep = " (";
    for (int k = 0; k < 4; ++k) {
      if (fused_counts[k] == 0) continue;
      oss << sep << kFusedNames[k] << " x" << fused_counts[k];
      sep = ", ";
    }
    oss << ")";
  }
  oss << "\n";
  // Quantization census: which weight-bearing ops the pass lowered to the
  // requested dtype and which fell back (and why). Only printed for plans
  // actually compiled with a narrow dtype — f32 plans keep today's summary.
  if (opts_.weight_dtype != WeightDtype::kF32) {
    int quantized = 0;
    int fell_back = 0;
    for (const Op& op : ops_) {
      if (op.quant_note.empty()) continue;
      if (op.plane.quantized()) {
        ++quantized;
      } else {
        ++fell_back;
      }
    }
    oss << "weight dtype: " << weight_dtype_name(opts_.weight_dtype) << " — "
        << quantized << " op(s) quantized, " << fell_back
        << " kept f32\nquantization census:\n";
    for (size_t i = 0; i < ops_.size(); ++i) {
      const Op& op = ops_[i];
      if (op.quant_note.empty()) continue;
      oss << "  " << i << ": " << op_kind_name(op.kind);
      if (!op.label.empty()) oss << " " << op.label;
      oss << " -> " << op.quant_note << "\n";
    }
  }
  if (programs_) {
    const ProgramCacheStats s = programs_->stats();
    oss << "plan cache: " << s.entries << " shape(s), " << s.bytes << " / ";
    if (s.budget_bytes > 0) {
      oss << s.budget_bytes;
    } else {
      oss << "unbounded";
    }
    oss << " bytes, " << s.hits << " hits, " << s.misses << " misses, "
        << s.evictions << " evictions\n";
    oss << "weights: " << weight_footprint_.total() << " bytes (f32 "
        << weight_footprint_.f32_bytes << ", bf16 "
        << weight_footprint_.bf16_bytes << ", int8+scales "
        << weight_footprint_.int8_bytes
        << "), shared across all cached shapes and engine copies\n";
  }
  return oss.str();
}

std::string Engine::summary(const Shape& input) const {
  TTSNN_CHECK(analysis_, "infer::Engine::summary on an unsealed engine");
  return summary() + memory_plan_report(ops_, *analysis_, input);
}

}  // namespace ttsnn::infer
