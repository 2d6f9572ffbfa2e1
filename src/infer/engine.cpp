#include "infer/engine.h"

#include <algorithm>
#include <map>
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
/// program: raw buffers bump through the plan's scratch region, col is the
/// plan's fixed column block. The bump cursor is checked against the scratch
/// budget op_footprint() (analysis.cpp) computed — any drift between the
/// analysis and the kernels is a hard error, not a corruption.
struct PlannedCtx {
  const MemoryPlan* plan = nullptr;
  Tensor* ws = nullptr;
  size_t op_index = 0;
  int64_t cursor = 0;

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

/// The one per-image epilogue of every conv, affine and add op. It runs on
/// each image (`image` floats: the C x H x W of one (t, n)) right after the
/// op's own kernel wrote it, in ascending image order, which for the
/// [T, N, ...] layout is the LIF membrane recurrence order. Each armed stage
/// is the kernel of the unfused op it stands for, in the unfused plan's
/// order: the conv's bias per channel plane, then the join's axpy(1, x2),
/// then kLif's lif_step_eval on sample (i % n)'s membrane plane. So fusion
/// moves no bit; the join's bits do not depend on which operand the op's
/// kernel produced, because IEEE-754 addition is commutative. Every stage
/// reads an element before writing it, so the image may alias the op's
/// input — never x2, whose storage group the analysis keeps apart.
struct Epilogue {
  const float* bias = nullptr;              ///< [image / hw], or null
  const float* x2 = nullptr;                ///< the join's other operand
  const LIFNeuron::Options* lif = nullptr;  ///< the LIF step, or null
  float* u_post = nullptr;  ///< [n, image] membrane planes (LIF only)
  int64_t n = 1;            ///< samples per timestep
  int64_t image = 0;        ///< floats per image
  int64_t hw = 1;           ///< floats per channel plane (bias only)

  void operator()(int64_t i, float* y) const {
    if (bias != nullptr) {
      for (int64_t c = 0; c < image / hw; ++c) {
        float* plane = y + c * hw;
        const float bv = bias[c];
        for (int64_t k = 0; k < hw; ++k) plane[k] += bv;
      }
    }
    if (x2 != nullptr) simd::axpy(image, 1.0F, x2 + i * image, y);
    if (lif != nullptr) {
      simd::lif_step_eval(image, lif->tau, lif->v_th,
                          lif->reset == ResetMode::kZero, y,
                          u_post + (i % n) * image, y);
    }
  }

  /// As conv_forward's per-tile hook (ConvEpilogue, tensor/im2col.h); no
  /// hook when no stage is armed.
  ConvEpilogue on_tile() {
    if (bias == nullptr && x2 == nullptr && lif == nullptr) return {};
    return {.fn = [](void* e, int64_t i, float* tile) {
              (*static_cast<const Epilogue*>(e))(i, tile);
            },
            .ctx = this};
  }
};

/// Arms op's Epilogue over its output `out`, whose images are `image` floats
/// each: the op's bias when it carries one, x2 for a kind that reads in2,
/// and for a kind ending in a LIF step its options and a zeroed [n, image]
/// membrane plane, which is the op's first scratch buffer.
Epilogue arm_epilogue(const Op& op, const Tensor& x2, const Tensor& out,
                      int64_t image, PlannedCtx& ctx) {
  Epilogue e{.bias = op.bias.defined() ? op.bias.data() : nullptr,
             .x2 = reads_in2(op.kind) ? x2.data() : nullptr,
             .n = out.size(1),
             .image = image,
             .hw = out.size(-2) * out.size(-1)};
  if (ends_in_lif(op.kind)) {
    e.lif = &op.lif;
    e.u_post = ctx.raw(e.n * image);
    std::fill(e.u_post, e.u_post + e.n * image, 0.0F);
  }
  return e;
}

/// One conv kernel resolved into the operands conv_forward (tensor/im2col.h)
/// reads at x's spatial size. An f32 kernel is read in place; a quantized
/// `plane` takes its scratch here, in op_footprint's order: bf16 dequantizes
/// into scratch once per op call and runs the identical f32 GEMM; int8 runs
/// the integer spike-GEMM with per-channel rescale through the caller's u8
/// tile buffer `tile` (int8_tile_bytes long, analysis.h).
struct ConvKernel {
  ConvGeometry g;
  ConvWeights w;
  float* col = nullptr;   ///< the plan's column block; null when pointwise
  uint8_t* u8 = nullptr;  ///< int8 only
};

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
/// from the plan, and the Epilogue (bias, LIF step) runs on each output
/// tile. A merged HTT conv (non-empty op.tt.full_step) runs the N images of
/// each timestep — contiguous in [T, N, C, H, W] — straight from x into out
/// with the kernel the step's schedule entry picks; each step numbers its
/// images from 0, which the epilogue reads only modulo N. Every image gets
/// its own GEMM, so the bits are those of gathering each class of steps,
/// convolving it and scattering the results back.
void run_conv(const Op& op, const Tensor& x, Tensor& out, PlannedCtx& ctx) {
  const int64_t hw = out.size(-2) * out.size(-1);
  Epilogue epi = arm_epilogue(op, Tensor(), out, out.size(-3) * hw, ctx);
  // After the membrane plane: the u8 tile the int8 kernels share, then the
  // full kernel's bf16 buffer, then the half kernel's.
  const int64_t tile_bytes = int8_tile_bytes(op, x.size(-2), x.size(-1));
  uint8_t* tile = tile_bytes == 0 ? nullptr
                                  : reinterpret_cast<uint8_t*>(
                                        ctx.raw((tile_bytes + 3) / 4));
  const ConvKernel full =
      resolve_kernel(op.weight, op.plane, op.conv, x, ctx, tile);
  const std::vector<bool>& schedule = op.tt.full_step;
  if (schedule.empty()) {
    conv_forward(full.g, x.numel() / (x.size(-3) * x.size(-2) * x.size(-1)),
                 x.data(), full.w, full.col, full.u8, out.data(),
                 epi.on_tile());
    return;
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
                 out.data() + t * out_step, epi.on_tile());
  }
}

/// Unmerged TT layer: TTConv2d::forward's pipeline, tt_forward, so exact
/// plans match it by construction, over the scratch and column block that
/// plan_tt sized for op_footprint; the strips run serially.
void run_tt_exact(const Op& op, const Tensor& x, Tensor& out,
                  PlannedCtx& ctx) {
  const TTPlan p = plan_tt(op.tt, x.shape(), /*step_strips=*/true);
  const TTBuffers b{.o1 = ctx.raw(p.o1), .o2 = ctx.raw(p.o2),
                    .o3 = ctx.raw(p.o3), .col = {ctx.col(p.col)}};
  tt_forward(op.tt, p,
             {.w1 = op.w1.data(), .w2 = op.w2.data(), .w3 = op.w3.data(),
              .w4 = op.w4.data()},
             x.data(), b, /*parallel=*/false, out.data());
}

/// Inference BatchNorm: BatchNorm's eval kernel, batchnorm_eval_image, on
/// each image (the C x H x W of one (t, n)), t ascending, then the Epilogue
/// on that image — nothing for kAffine, the join for kAffineAdd, the LIF
/// step for kAffineLif. The kernel reads each element of x before writing
/// that position, so the output may alias x (the in-place path).
void run_affine(const Op& op, const Tensor& x, const Tensor& x2, Tensor& out,
                PlannedCtx& ctx) {
  const int64_t n = x.size(1);
  const int64_t c = x.size(2);
  const int64_t hw = x.size(3) * x.size(4);
  const Epilogue epi = arm_epilogue(op, x2, out, c * hw, ctx);
  const bool tebn = op.bn_mode == BatchNorm::Mode::kTebn;
  for (int64_t t = 0; t < x.size(0); ++t) {
    const float step = tebn ? op.bn_step_scale[t] : 1.0F;
    for (int64_t b = 0; b < n; ++b) {
      const int64_t i = t * n + b;
      float* y = out.data() + i * c * hw;
      batchnorm_eval_image(c, hw, op.bn_gamma.data(), op.bn_beta.data(),
                           op.bn_mean.data(), op.bn_inv_std.data(),
                           op.bn_alpha_vth, step, x.data() + i * c * hw, y);
      epi(i, y);
    }
  }
}

/// LIF spikes via the stateless eval kernel; the membrane plane comes from
/// ctx scratch. lif_step_eval is read-before-write per element, so the
/// output may alias the input.
void run_lif(const Op& op, const Tensor& x, Tensor& out, PlannedCtx& ctx) {
  lif_forward_eval_into(op.lif, x, out, ctx.raw(x.numel() / x.size(0)));
}

/// Non-overlapping average pool: AvgPool2d's kernel, avg_pool_forward_into.
void run_avg_pool(const Op& op, const Tensor& x, Tensor& out) {
  const int64_t h = x.size(-2);
  const int64_t w = x.size(-1);
  avg_pool_forward_into(x.numel() / (h * w), h, w, op.pool_kernel, x.data(),
                        out.data());
}

/// Global average pool [T,N,C,H,W] -> [T,N,C]: GlobalAvgPool's kernel,
/// global_avg_pool_forward_into.
void run_global_pool(const Tensor& x, Tensor& out) {
  global_avg_pool_forward_into(out.numel(), x.size(-2) * x.size(-1),
                               x.data(), out.data());
}

/// Dense head (weight [out, in]): Linear's kernel, linear_forward_into.
/// Quantized planes follow the run_conv pattern: bf16 dequantizes into
/// scratch then runs the identical f32 kernel; int8 converts the spike rows
/// to u8, runs the integer GEMM in its linear (trans_b) orientation and then
/// Linear's bias pass, linear_add_bias. Both GEMMs write every element.
void run_linear(const Op& op, const Tensor& x, Tensor& out, PlannedCtx& ctx) {
  const int64_t in_f = x.size(-1);
  const int64_t out_f = out.size(-1);
  const int64_t b = out.numel() / out_f;
  const float* bias = op.bias.defined() ? op.bias.data() : nullptr;
  if (op.plane.dtype() == WeightDtype::kInt8) {
    uint8_t* su8 = reinterpret_cast<uint8_t*>(ctx.raw((b * in_f + 3) / 4));
    simd::spikes_to_u8(b * in_f, x.data(), su8);
    simd::gemm_s8_sxw(b, out_f, in_f, su8, op.plane.int8_data(),
                      op.plane.scales().data(), out.data());
    if (bias != nullptr) linear_add_bias(b, out_f, bias, out.data());
    return;
  }
  const float* wf;
  if (op.plane.quantized()) {  // bf16: dequant once, then the f32 kernel
    float* wbuf = ctx.raw(op.plane.numel());
    simd::dequant_bf16(op.plane.numel(), op.plane.bf16_data(), wbuf);
    wf = wbuf;
  } else {
    wf = op.weight.data();
  }
  linear_forward_into(b, in_f, out_f, x.data(), wf, bias, out.data());
}

/// Residual join, alone (kAdd) or feeding a LIF step (kAddLif), one image
/// (the numel / (T * N) floats of one (t, n)) at a time: x's image is copied
/// into the output, which is skipped when the output aliases x (the planned
/// in-place path), then the Epilogue adds x2 and steps the LIF. ops.h add()
/// is a clone then axpy_, so the bits agree.
void run_add(const Op& op, const Tensor& x, const Tensor& x2, Tensor& out,
             PlannedCtx& ctx) {
  const int64_t images = out.size(0) * out.size(1);
  const int64_t image = out.numel() / images;
  const Epilogue epi = arm_epilogue(op, x2, out, image, ctx);
  const bool in_place = out.data() == x.data();
  for (int64_t i = 0; i < images; ++i) {
    float* y = out.data() + i * image;
    if (!in_place) {
      std::copy(x.data() + i * image, x.data() + (i + 1) * image, y);
    }
    epi(i, y);
  }
}

/// Runs op's kernel from x (and x2) into out, the destination the plan laid
/// out; every shape and input check ran when the program was compiled.
void exec_op(const Op& op, const Tensor& x, const Tensor& x2, Tensor& out,
             PlannedCtx& ctx) {
  switch (op.kind) {
    case Op::Kind::kConv:
    case Op::Kind::kConvLif:
      return run_conv(op, x, out, ctx);
    case Op::Kind::kTTExact:
      return run_tt_exact(op, x, out, ctx);
    case Op::Kind::kAffine:
    case Op::Kind::kAffineLif:
    case Op::Kind::kAffineAdd:
      return run_affine(op, x, x2, out, ctx);
    case Op::Kind::kLif:
      return run_lif(op, x, out, ctx);
    case Op::Kind::kAvgPool:
      return run_avg_pool(op, x, out);
    case Op::Kind::kGlobalPool:
      return run_global_pool(x, out);
    case Op::Kind::kLinear:
      return run_linear(op, x, out, ctx);
    case Op::Kind::kAdd:
    case Op::Kind::kAddLif:
      return run_add(op, x, x2, out, ctx);
    case Op::Kind::kFlatten:
      break;  // an alias or a materialize destination: no kernel
  }
  TTSNN_CHECK(false, "unreachable");
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

bool is_fused(Op::Kind k) {
  return k == Op::Kind::kConvLif || k == Op::Kind::kAffineLif ||
         k == Op::Kind::kAddLif || k == Op::Kind::kAffineAdd;
}

bool ends_in_lif(Op::Kind k) {
  return k == Op::Kind::kLif || k == Op::Kind::kConvLif ||
         k == Op::Kind::kAffineLif || k == Op::Kind::kAddLif;
}

bool reads_in2(Op::Kind k) {
  return k == Op::Kind::kAdd || k == Op::Kind::kAddLif ||
         k == Op::Kind::kAffineAdd;
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
    const Tensor& a = regs[static_cast<size_t>(op.in)];
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
    Tensor dest;
    switch (ex.dest) {
      case OpExec::Dest::kResult:
        dest = Tensor::empty(ex.out_shape);  // the caller owns this
        break;
      case OpExec::Dest::kInPlace:
        dest = a.reshape(ex.out_shape);  // write over the dying input
        break;
      default:
        dest = workspace.view(ex.offset, ex.out_shape);
        break;
    }
    static const Tensor kNone;
    const Tensor& b = op.in2 >= 0 ? regs[static_cast<size_t>(op.in2)] : kNone;
    PlannedCtx ctx{.plan = plan, .ws = &workspace, .op_index = i};
    exec_op(op, a, b, dest, ctx);
    regs[out] = std::move(dest);
  }
  return regs[static_cast<size_t>(result_reg_)];
}

void Engine::seal() {
  analysis_ = std::make_shared<const PlanAnalysis>(
      analyze_plan(ops_, num_regs_, result_reg_));
  programs_ = std::make_shared<ProgramCache>(kProgramCacheBytes);
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
  // Always printed (even at 0) so ttsnn_plan_lint can assert fusion
  // happened; the per-kind counts follow the kinds' declaration order.
  std::map<Op::Kind, int> fused;
  int fused_total = 0;
  for (const Op& op : ops_) {
    if (!is_fused(op.kind)) continue;
    ++fused[op.kind];
    ++fused_total;
  }
  oss << "fused ops: " << fused_total;
  const char* sep = " (";
  for (const auto& [kind, count] : fused) {
    oss << sep << op_kind_name(kind) << " x" << count;
    sep = ", ";
  }
  if (!fused.empty()) oss << ")";
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
    oss << "plan cache: " << s.entries << " shape(s), " << s.bytes << " / "
        << s.budget_bytes << " bytes, " << s.hits << " hits, " << s.misses
        << " misses, " << s.evictions << " evictions\n";
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
