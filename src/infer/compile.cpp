#include <cmath>
#include <set>
#include <sstream>

#include "infer/analysis.h"
#include "infer/engine.h"
#include "nn/containers.h"
#include "nn/linear.h"
#include "nn/pooling.h"
#include "snn/serialize.h"

namespace ttsnn::infer {

namespace {

/// Mutable state of one compile() call. Registers are assigned fresh per op
/// output; BN folding mutates the most recent op in place instead of
/// emitting a new one.
struct Builder {
  const CompileOptions& opts;
  std::vector<Op> ops;
  int num_regs = 1;  // register 0 is the network input
  /// Registers with more than one consumer (a Residual's input feeds both
  /// branches); folding must never rewrite the op that produced one.
  std::set<int> pinned;

  int fresh_reg() { return num_regs++; }

  int emit(Op op) {
    ops.push_back(std::move(op));
    return ops.back().out;
  }
};

int lower(const Module& m, int in_reg, Builder& b);

std::string conv_label(const Conv2d::Options& o) {
  std::ostringstream oss;
  oss << o.in_channels << "->" << o.out_channels << " " << o.kernel_h << "x"
      << o.kernel_w;
  if (o.resolved_stride_h() != 1 || o.resolved_stride_w() != 1) {
    oss << " s" << o.resolved_stride_h() << "," << o.resolved_stride_w();
  }
  return oss.str();
}

int lower_conv(const Conv2d& conv, int in_reg, Builder& b) {
  Op op;
  op.kind = Op::Kind::kConv;
  op.in = in_reg;
  op.out = b.fresh_reg();
  op.conv = conv.options();
  op.weight = conv.weight().value.clone();
  op.label = conv_label(op.conv);
  return b.emit(std::move(op));
}

int lower_ttconv(const TTConv2d& tt, int in_reg, Builder& b) {
  const TTConv2d::Options& o = tt.options();
  if (b.opts.merge_tt) {
    // Algorithm 1 lines 20-22: one dense kernel — full K x K for STT,
    // cross-shaped for PTT and HTT full steps. An HTT layer with a schedule
    // also carries the merged pointwise kernel its half steps run; an empty
    // schedule runs every step full, like PTT.
    Op op;
    op.kind = Op::Kind::kConv;
    op.in = in_reg;
    op.out = b.fresh_reg();
    op.conv = tt_dense_options(o);
    op.weight = tt.merged_kernel();
    if (o.mode == TTMode::kHTT && !o.full_step.empty()) {
      op.tt = o;
      op.half_conv = Conv2d::Options{.in_channels = o.in_channels,
                                     .out_channels = o.out_channels,
                                     .kernel_h = 1,
                                     .kernel_w = 1,
                                     .stride = o.stride};
      op.half_kernel = tt.merged_half_kernel();
    }
    op.label = "merged-" + tt_mode_name(o.mode) + " " + conv_label(op.conv);
    return b.emit(std::move(op));
  }

  // Exact mode: the four cores, run by the pipeline training runs
  // (tt_forward), for bit-identity with eval-mode Module::forward.
  Op op;
  op.kind = Op::Kind::kTTExact;
  op.in = in_reg;
  op.out = b.fresh_reg();
  op.tt = o;
  op.w1 = tt.w1().value.clone();
  op.w2 = tt.w2().value.clone();
  op.w3 = tt.w3().value.clone();
  op.w4 = tt.w4().value.clone();
  {
    std::ostringstream oss;
    oss << tt_mode_name(o.mode) << " r" << o.rank << " " << o.in_channels
        << "->" << o.out_channels;
    op.label = oss.str();
  }
  return b.emit(std::move(op));
}

/// Per-channel inverse std, computed with the exact expression BatchNorm's
/// eval forward uses so standalone affine ops stay bit-identical.
Tensor bn_inv_std(const BatchNorm& bn) {
  const Tensor& var = bn.running_var();
  Tensor inv_std(var.shape());
  for (int64_t c = 0; c < var.numel(); ++c) {
    const double v = var[c];
    inv_std[c] =
        1.0F / std::sqrt(static_cast<float>(v) + bn.options().eps);
  }
  return inv_std;
}

int lower_bn(const BatchNorm& bn, int in_reg, Builder& b) {
  const BatchNorm::Options& o = bn.options();
  Tensor inv_std = bn_inv_std(bn);

  // Peephole fold: inference BN is y = s[c] * conv(x) + (beta - s * mean)
  // with s = gamma * alpha_vth * inv_std, time-invariant for every mode but
  // TEBN — scale the producing conv's output channels and attach the shift
  // as its bias. Only valid when the previous op is the conv that feeds us
  // AND we are its sole consumer: a pinned register (a Residual input, read
  // again by the other branch) must keep its raw conv output.
  if (b.opts.fold_batchnorm && o.mode != BatchNorm::Mode::kTebn &&
      !b.ops.empty() && b.pinned.count(in_reg) == 0) {
    Op& prev = b.ops.back();
    if (prev.out == in_reg && prev.kind == Op::Kind::kConv) {
      const int64_t out_c = prev.conv.out_channels;
      TTSNN_CHECK(out_c == o.channels,
                  "infer: BN channels " << o.channels
                                        << " do not match producing conv "
                                        << out_c);
      Tensor bias(Shape{out_c});
      const Tensor& gamma = bn.gamma().value;
      const Tensor& beta = bn.beta().value;
      const Tensor& mean = bn.running_mean();
      auto scale_rows = [&](Tensor& w) {
        const int64_t row = w.numel() / out_c;
        for (int64_t oc = 0; oc < out_c; ++oc) {
          const float s = gamma[oc] * o.alpha_vth * inv_std[oc];
          float* wr = w.data() + oc * row;
          for (int64_t i = 0; i < row; ++i) wr[i] *= s;
        }
      };
      for (int64_t oc = 0; oc < out_c; ++oc) {
        const float s = gamma[oc] * o.alpha_vth * inv_std[oc];
        const float b0 = prev.bias.defined() ? prev.bias[oc] : 0.0F;
        bias[oc] = s * b0 + beta[oc] - s * mean[oc];
      }
      scale_rows(prev.weight);
      if (prev.half_kernel.defined()) scale_rows(prev.half_kernel);
      prev.bias = std::move(bias);
      prev.label += " +bn";
      return in_reg;
    }
  }

  Op op;
  op.kind = Op::Kind::kAffine;
  op.in = in_reg;
  op.out = b.fresh_reg();
  op.bn_mode = o.mode;
  op.bn_alpha_vth = o.alpha_vth;
  op.bn_timesteps = o.mode == BatchNorm::Mode::kTebn ? o.timesteps : 0;
  op.bn_gamma = bn.gamma().value.clone();
  op.bn_beta = bn.beta().value.clone();
  op.bn_mean = bn.running_mean().clone();
  op.bn_inv_std = std::move(inv_std);
  if (o.mode == BatchNorm::Mode::kTebn) {
    op.bn_step_scale = bn.step_scale().value.clone();
  }
  {
    std::ostringstream oss;
    oss << "c" << o.channels;
    op.label = oss.str();
  }
  return b.emit(std::move(op));
}

int lower_residual(const Residual& res, int in_reg, Builder& b) {
  // The input register feeds the body AND the shortcut (or the Add itself):
  // no branch may fold state into the op that produced it.
  b.pinned.insert(in_reg);
  const int body_out = lower(res.body(), in_reg, b);
  const int skip_out =
      res.shortcut() != nullptr ? lower(*res.shortcut(), in_reg, b) : in_reg;
  Op op;
  op.kind = Op::Kind::kAdd;
  op.in = body_out;
  op.in2 = skip_out;
  op.out = b.fresh_reg();
  return b.emit(std::move(op));
}

int lower(const Module& m, int in_reg, Builder& b) {
  if (const auto* seq = dynamic_cast<const Sequential*>(&m)) {
    int reg = in_reg;
    for (size_t i = 0; i < seq->size(); ++i) reg = lower(seq->at(i), reg, b);
    return reg;
  }
  if (const auto* res = dynamic_cast<const Residual*>(&m)) {
    return lower_residual(*res, in_reg, b);
  }
  if (const auto* tt = dynamic_cast<const TTConv2d*>(&m)) {
    return lower_ttconv(*tt, in_reg, b);
  }
  if (const auto* conv = dynamic_cast<const Conv2d*>(&m)) {
    return lower_conv(*conv, in_reg, b);
  }
  if (const auto* bn = dynamic_cast<const BatchNorm*>(&m)) {
    return lower_bn(*bn, in_reg, b);
  }
  if (const auto* lif = dynamic_cast<const LIFNeuron*>(&m)) {
    Op op;
    op.kind = Op::Kind::kLif;
    op.in = in_reg;
    op.out = b.fresh_reg();
    op.lif = lif->options();
    return b.emit(std::move(op));
  }
  if (const auto* pool = dynamic_cast<const AvgPool2d*>(&m)) {
    Op op;
    op.kind = Op::Kind::kAvgPool;
    op.in = in_reg;
    op.out = b.fresh_reg();
    op.pool_kernel = pool->kernel();
    return b.emit(std::move(op));
  }
  if (dynamic_cast<const GlobalAvgPool*>(&m) != nullptr) {
    Op op;
    op.kind = Op::Kind::kGlobalPool;
    op.in = in_reg;
    op.out = b.fresh_reg();
    return b.emit(std::move(op));
  }
  if (dynamic_cast<const Flatten*>(&m) != nullptr) {
    Op op;
    op.kind = Op::Kind::kFlatten;
    op.in = in_reg;
    op.out = b.fresh_reg();
    return b.emit(std::move(op));
  }
  if (const auto* lin = dynamic_cast<const Linear*>(&m)) {
    Op op;
    op.kind = Op::Kind::kLinear;
    op.in = in_reg;
    op.out = b.fresh_reg();
    op.weight = lin->weight().value.clone();
    if (lin->has_bias()) op.bias = lin->bias().value.clone();
    {
      std::ostringstream oss;
      oss << lin->in_features() << "->" << lin->out_features();
      op.label = oss.str();
    }
    return b.emit(std::move(op));
  }
  TTSNN_CHECK(false, "infer::compile: unsupported module type '" << m.name()
                                                                 << "'");
  return -1;
}

/// Greedy elementwise fusion over the lowered plan, gated on
/// CompileOptions::fuse_elementwise. Two rewrites over ONE pre-fusion
/// analysis: (A) a kLif whose producer output has exactly one consumer
/// collapses into kConvLif / kAffineLif / kAddLif at the LIF's index; (B) a
/// surviving kAdd absorbs a single-consumer kAffine operand into kAffineAdd.
/// Pass A leaves every surviving register's read count unchanged — the fused
/// op re-reads exactly what its dead producer read — so the one analysis
/// serves both passes. Placing the fused op at the CONSUMER's index is safe
/// even when producer and consumer are not adjacent: the plan is SSA over
/// pure ops, so the producer's inputs still hold their values there, and
/// re-running analyze_plan afterwards re-derives alias/in-place facts for the
/// rewritten plan. Dead producers are dropped and registers renumbered.
void fuse_elementwise(std::vector<Op>& ops, int& num_regs, int& result_reg) {
  if (ops.empty()) return;
  const PlanAnalysis a = analyze_plan(ops, num_regs, result_reg);
  std::vector<bool> dead(ops.size(), false);

  auto producer = [&](int reg) {
    const int d = a.live[static_cast<size_t>(reg)].def;
    return d >= 0 && !dead[static_cast<size_t>(d)] ? d : -1;
  };

  // Pass A: LIF epilogues.
  for (size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].kind != Op::Kind::kLif) continue;
    if (!fusion_candidate(a, ops[i].in)) continue;
    const int d = producer(ops[i].in);
    if (d < 0) continue;
    Op& prod = ops[static_cast<size_t>(d)];
    Op::Kind fused_kind = Op::Kind::kLif;
    switch (prod.kind) {
      case Op::Kind::kConv:
        // The per-tile epilogue needs the [T, N, C, H, W] batch layout.
        if (a.sym_shape[static_cast<size_t>(prod.in)].size() != 5) continue;
        fused_kind = Op::Kind::kConvLif;
        break;
      case Op::Kind::kAffine:
        fused_kind = Op::Kind::kAffineLif;
        break;
      case Op::Kind::kAdd:
        fused_kind = Op::Kind::kAddLif;
        break;
      default:
        continue;
    }
    Op fused = std::move(prod);
    fused.kind = fused_kind;
    fused.lif = ops[i].lif;
    fused.out = ops[i].out;
    ops[i] = std::move(fused);
    dead[static_cast<size_t>(d)] = true;
  }

  // Pass B: affine operands of the residual joins pass A left plain.
  for (size_t i = 0; i < ops.size(); ++i) {
    if (dead[i] || ops[i].kind != Op::Kind::kAdd) continue;
    for (int slot = 0; slot < 2; ++slot) {
      const int reg = slot == 0 ? ops[i].in : ops[i].in2;
      if (!fusion_candidate(a, reg)) continue;
      const int d = producer(reg);
      if (d < 0 || ops[static_cast<size_t>(d)].kind != Op::Kind::kAffine) {
        continue;
      }
      Op fused = std::move(ops[static_cast<size_t>(d)]);
      fused.kind = Op::Kind::kAffineAdd;
      fused.in2 = slot == 0 ? ops[i].in2 : ops[i].in;
      fused.out = ops[i].out;
      ops[i] = std::move(fused);
      dead[static_cast<size_t>(d)] = true;
      break;
    }
  }

  // Drop dead producers and renumber registers densely in first-def order.
  std::vector<Op> kept;
  kept.reserve(ops.size());
  for (size_t i = 0; i < ops.size(); ++i) {
    if (!dead[i]) kept.push_back(std::move(ops[i]));
  }
  std::vector<int> remap(static_cast<size_t>(num_regs), -1);
  remap[0] = 0;
  int next = 1;
  for (Op& op : kept) {
    TTSNN_CHECK(remap[static_cast<size_t>(op.in)] >= 0,
                "infer fuse: operand register lost in compaction");
    op.in = remap[static_cast<size_t>(op.in)];
    if (op.in2 >= 0) {
      TTSNN_CHECK(remap[static_cast<size_t>(op.in2)] >= 0,
                  "infer fuse: operand register lost in compaction");
      op.in2 = remap[static_cast<size_t>(op.in2)];
    }
    remap[static_cast<size_t>(op.out)] = next;
    op.out = next++;
  }
  TTSNN_CHECK(remap[static_cast<size_t>(result_reg)] >= 0,
              "infer fuse: result register lost in compaction");
  result_reg = remap[static_cast<size_t>(result_reg)];
  num_regs = next;
  ops = std::move(kept);
}

// ---- weight quantization pass ----------------------------------------------

/// True when register `reg` provably holds binary {0,1} spikes: its defining
/// op is a LIF step (standalone or fused epilogue), possibly viewed through
/// kFlatten. Register 0 (the raw encoded input) and every arithmetic output
/// (pools, affines, TT pipelines) are not binary, so int8 consumers of those
/// registers fall back to f32.
bool provably_binary(const std::vector<Op>& ops, const std::vector<int>& def_op,
                     int reg) {
  while (true) {
    if (reg <= 0 || reg >= static_cast<int>(def_op.size())) return false;
    const int d = def_op[static_cast<size_t>(reg)];
    if (d < 0) return false;
    const Op& op = ops[static_cast<size_t>(d)];
    switch (op.kind) {
      case Op::Kind::kLif:
      case Op::Kind::kConvLif:
      case Op::Kind::kAffineLif:
      case Op::Kind::kAddLif:
        return true;
      case Op::Kind::kFlatten:
        reg = op.in;
        continue;
      default:
        return false;
    }
  }
}

/// Rewrites eligible weight matrices to typed planes per the requested dtype.
/// Runs after BN folding and elementwise fusion, so the scales are calibrated
/// on the BN-folded weights (the checkpoint's running stats are already
/// multiplied in) and the census maps 1:1 onto the final op list. Every op
/// that keeps f32 records why in quant_note. Biases, BN vectors and the
/// exact-mode TT cores always stay f32.
void quantize_weights(std::vector<Op>& ops, int num_regs, WeightDtype dtype) {
  std::vector<int> def_op(static_cast<size_t>(num_regs), -1);
  for (size_t i = 0; i < ops.size(); ++i) {
    def_op[static_cast<size_t>(ops[i].out)] = static_cast<int>(i);
  }
  auto encode = [dtype](const Tensor& w) {
    return dtype == WeightDtype::kInt8 ? WeightPlane::int8_from(w)
                                       : WeightPlane::bf16_from(w);
  };
  for (Op& op : ops) {
    switch (op.kind) {
      case Op::Kind::kConv:
      case Op::Kind::kConvLif:
      case Op::Kind::kLinear: {
        if (dtype == WeightDtype::kInt8 && !provably_binary(ops, def_op, op.in)) {
          op.quant_note = "f32 (input not provably binary spikes)";
          break;
        }
        // The planes own the only remaining copies.
        op.plane = encode(op.weight);
        op.weight = Tensor();
        if (op.half_kernel.defined()) {
          op.half_plane = encode(op.half_kernel);
          op.half_kernel = Tensor();
        }
        op.quant_note = weight_dtype_name(dtype);
        break;
      }
      case Op::Kind::kTTExact:
        op.quant_note = "f32 (exact-mode TT cores stay f32)";
        break;
      default:
        break;  // no weight matrix to quantize
    }
  }
}

/// Bytes of read-only weight storage the plan references, split by dtype and
/// counting each unique buffer once: Engine copies (Router replicas) and
/// every cached per-shape program share these tensors and planes by refcount,
/// so this is the process-wide weight footprint no matter how many shapes are
/// resident.
WeightFootprint unique_weight_bytes(const std::vector<Op>& ops) {
  std::set<const void*> seen;
  WeightFootprint fp;
  auto add = [&](const Tensor& t) {
    if (!t.defined()) return;
    if (seen.insert(t.data()).second) {
      fp.f32_bytes += t.numel() * static_cast<int64_t>(sizeof(float));
    }
  };
  auto add_plane = [&](const WeightPlane& p) {
    if (!p.quantized()) return;
    if (!seen.insert(p.storage_key()).second) return;
    if (p.dtype() == WeightDtype::kBf16) {
      fp.bf16_bytes += p.payload_bytes();
    } else {
      fp.int8_bytes += p.payload_bytes();  // packed data + f32 scales
    }
  };
  for (const Op& op : ops) {
    for (const Tensor* t :
         {&op.weight, &op.bias, &op.w1, &op.w2, &op.w3, &op.w4,
          &op.half_kernel, &op.bn_gamma, &op.bn_beta, &op.bn_mean,
          &op.bn_inv_std, &op.bn_step_scale}) {
      add(*t);
    }
    add_plane(op.plane);
    add_plane(op.half_plane);
  }
  return fp;
}

}  // namespace

Engine compile(const Module& root, const CompileOptions& opts) {
  Builder b{.opts = opts};
  int result = lower(root, 0, b);
  TTSNN_CHECK(!b.ops.empty(), "infer::compile: module tree lowered to no ops");
  if (opts.fuse_elementwise) fuse_elementwise(b.ops, b.num_regs, result);
  if (opts.weight_dtype != WeightDtype::kF32) {
    quantize_weights(b.ops, b.num_regs, opts.weight_dtype);
  }
  Engine e;
  e.opts_ = opts;
  e.ops_ = std::move(b.ops);
  e.num_regs_ = b.num_regs;
  e.result_reg_ = result;
  e.weight_footprint_ = unique_weight_bytes(e.ops_);
  e.seal();
  return e;
}

Engine compile_checkpoint(Module& root, const std::string& checkpoint_path,
                          const CompileOptions& opts) {
  load_parameters(root, checkpoint_path);
  return compile(root, opts);
}

}  // namespace ttsnn::infer
