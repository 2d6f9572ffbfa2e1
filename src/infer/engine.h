#pragma once

/// \file engine.h
/// Compiled inference engine — the serving half of the train/infer split.
///
/// The training Module API is the wrong execution model for serving: forward()
/// is non-const, caches activations for BPTT, and mutates per-layer state, so
/// one model instance cannot run two requests concurrently. infer::compile()
/// walks a trained module tree once and lowers it into an immutable Engine —
/// a flat, register-addressed plan of ops over read-only weight tensors.
///
/// Every compile() runs the static-analysis pipeline of infer/analysis.h over
/// the lowered plan: a verifier (malformed plans throw at compile time, not
/// mid-run), symbolic shape inference, and liveness + alias analysis. run()
/// executes a per-shape CompiledProgram — packed workspace layout plus per-op
/// execution records — compiled on first miss and memoized in a shape-keyed,
/// LRU-bounded ProgramCache (plan_cache.h) shared by every copy of the
/// engine: one allocation per call (zero when the caller re-submits a
/// workspace tensor).
///
/// Lowering follows Algorithm 1 lines 20-22: with CompileOptions::merge_tt
/// (the default), every TTConv2d collapses into a single dense convolution —
/// the full K x K merged kernel for STT, the cross-shaped kernel for PTT —
/// and an HTT layer into one convolution whose kernel its schedule picks per
/// timestep (cross on full steps, merged pointwise on half steps). With
/// merge_tt off, the four TT cores are
/// lowered as-is; the engine then reproduces eval-mode Module::forward
/// bit-for-bit, which is what the equivalence tests pin. fold_batchnorm
/// additionally folds inference-mode BN (an affine per channel) into the
/// preceding convolution's weights wherever the scale is time-invariant
/// (i.e. everything except TEBN).

#include <memory>
#include <string>
#include <vector>

#include "core/ttconv.h"
#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/lif.h"
#include "tensor/weight_plane.h"

namespace ttsnn::infer {

struct PlanAnalysis;
struct MemoryPlan;
struct CompiledProgram;
struct ProgramCacheStats;
class ProgramCache;

struct CompileOptions {
  /// Lower each TTConv2d to its merged dense kernel(s) (Algorithm 1 lines
  /// 20-22). Off: lower the four sub-convolutions exactly as the training
  /// forward runs them — bit-identical to eval-mode Module::forward.
  bool merge_tt = true;
  /// Fold inference-mode BatchNorm into the preceding conv where the BN scale
  /// is time-invariant (all modes except TEBN). Off: keep a standalone affine
  /// op, which runs BatchNorm's own eval kernel (batchnorm_eval_image), so it
  /// matches eval forward by construction.
  bool fold_batchnorm = true;
  /// Greedily fuse elementwise chains (conv/affine/add feeding a LIF step,
  /// affine feeding a residual add) into single fused ops, wherever the
  /// liveness analysis proves the intermediate has exactly one consumer. A
  /// fused op runs its first part's kernel, then the rest as the engine's
  /// one per-image epilogue (the join's axpy, then the LIF step), so the
  /// intermediate never leaves the op's own output and the outputs are
  /// bit-identical with fusion on or off; off keeps the one-op-per-module
  /// reference lowering.
  bool fuse_elementwise = true;
  /// Storage dtype requested for conv/linear weight matrices (including the
  /// fused conv+LIF ops and merged HTT kernel pairs). kF32 — the default
  /// — is a complete no-op and stays bit-identical to today's engine. kBf16
  /// re-encodes every eligible weight with the round-to-nearest-even codec
  /// (dequantized into plan scratch before the unchanged f32 GEMM). kInt8
  /// additionally requires the op's input to be provably binary spikes (a LIF
  /// output, possibly through kFlatten) and runs the integer spike-GEMM
  /// kernels with one float rescale per output channel. Ineligible weights
  /// fall back to f32 bit-identically; biases and BN tensors always stay f32.
  WeightDtype weight_dtype = WeightDtype::kF32;
};

/// One instruction of the flat plan. Ops read register `in` (and `in2` for
/// the kinds reads_in2() names) and write register `out`; register 0 is the
/// network input. Which field group is meaningful depends on `kind`. An op
/// carries no shapes: analysis.h derives every output shape, scratch size
/// and input check from the op and the input shape, once per shape.
struct Op {
  enum class Kind {
    kConv,        ///< dense conv: weight [O,C,kh,kw], optional bias [O]
    kTTExact,     ///< unmerged TT pipeline (STT/PTT/HTT) from four cores
    kAffine,      ///< inference BatchNorm (running stats, per-(t,c) scale)
    kLif,         ///< leaky integrate-and-fire over [T, N, ...]
    kAvgPool,     ///< non-overlapping average pool
    kGlobalPool,  ///< [T,N,C,H,W] -> [T,N,C]
    kFlatten,     ///< [T,N,...] -> [T,N,F]
    kLinear,      ///< dense classifier head
    kAdd,         ///< residual join: regs[out] = regs[in] + regs[in2]
    // Fused elementwise chains (compile.cpp's fusion pass; never lowered
    // directly from modules). Each reuses the field groups of its parts: the
    // first part's kernel runs, then the engine's per-image epilogue runs
    // the rest on each image (C x H x W of one (t, n)) it wrote.
    kConvLif,     ///< conv whose LIF step runs on each output tile
    kAffineLif,   ///< inference-BN affine feeding a LIF step
    kAddLif,      ///< residual join feeding a LIF step
    kAffineAdd,   ///< inference-BN affine feeding a residual join (in2 is
                  ///< the join's other operand, whichever slot it held)
  };

  Kind kind = Kind::kConv;
  int in = -1;
  int in2 = -1;
  int out = -1;

  // kConv / kConvLif (kLinear stores weight/bias only)
  Conv2d::Options conv;
  Tensor weight;
  Tensor bias;  ///< undefined when absent (BN folding or Linear bias)

  // Merged HTT: a kConv / kConvLif whose tt.full_step is non-empty runs
  // `weight` on full steps and this pointwise kernel on half steps.
  Tensor half_kernel;         ///< merged pointwise kernel [O,I,1,1]
  Conv2d::Options half_conv;  ///< half-step geometry (1x1, stride s)

  // kTTExact (merged HTT reads only tt.full_step): the layer's options,
  // which give every core's geometry (tt_core_options, core/ttconv.h).
  TTConv2d::Options tt;
  Tensor w1, w2, w3, w4;        ///< kTTExact: cloned cores

  // kAffine
  BatchNorm::Mode bn_mode = BatchNorm::Mode::kPerStep;
  float bn_alpha_vth = 1.0F;
  int64_t bn_timesteps = 0;     ///< TEBN: required T; 0 means any
  Tensor bn_gamma, bn_beta, bn_mean, bn_inv_std, bn_step_scale;

  // kLif
  LIFNeuron::Options lif;

  // kAvgPool
  int64_t pool_kernel = 2;

  // Typed weight planes (compile.cpp's quantization pass; weight_dtype !=
  // kF32 only). When `plane` is quantized it REPLACES the f32 `weight` it was
  // encoded from (a merged HTT conv's `half_kernel` moves to `half_plane`);
  // the f32 tensor is dropped so the plan's weight bytes actually shrink. Ops
  // the pass skips keep their f32 tensors and record why in `quant_note`.
  WeightPlane plane;
  WeightPlane half_plane;
  std::string quant_note;  ///< census entry: dtype name or fallback reason

  std::string label;  ///< human-readable op description for summary()
};

/// Short lowercase mnemonic for an op kind ("conv", "tt", ...), shared by
/// Engine::summary() and every analysis diagnostic.
const char* op_kind_name(Op::Kind kind);

/// The fusion pass's kinds: conv+lif, affine+lif, add+lif and affine+add.
bool is_fused(Op::Kind kind);

/// Kinds whose output is a LIF step's spikes: kLif and the *Lif fusions.
bool ends_in_lif(Op::Kind kind);

/// Kinds that read `in2`: the residual join, alone or fused.
bool reads_in2(Op::Kind kind);

/// Unique read-only weight storage of one plan, split by storage dtype.
/// Each shared buffer is counted once (PR-7 semantics): Engine copies,
/// Router replicas and all cached programs reference this same storage.
struct WeightFootprint {
  int64_t f32_bytes = 0;   ///< float tensors (incl. biases and BN vectors)
  int64_t bf16_bytes = 0;  ///< bf16 plane payloads
  int64_t int8_bytes = 0;  ///< int8 plane payloads + per-channel f32 scales
  int64_t total() const { return f32_bytes + bf16_bytes + int8_bytes; }
};

/// Immutable compiled plan. Copyable (ops share read-only weight storage,
/// copies share the analysis and the per-shape plan cache); run() is const
/// and thread-safe.
class Engine {
 public:
  /// Executes the plan on x: [T, N, C, H, W]. Thread-safe. Registers, the
  /// im2col buffer and composite-op scratch live at planner-assigned offsets
  /// of ONE workspace buffer, so the call allocates exactly that buffer plus
  /// the owning result tensor.
  Tensor run(const Tensor& x) const;

  /// As run(x), but places the packed workspace in `workspace`, (re)allocating
  /// it only when too small — zero workspace allocations in steady state for
  /// a caller (e.g. a Router dispatcher thread) that re-submits the same
  /// tensor every call.
  Tensor run(const Tensor& x, Tensor& workspace) const;

  size_t num_ops() const { return ops_.size(); }
  const std::vector<Op>& ops() const { return ops_; }
  int num_regs() const { return num_regs_; }
  int result_reg() const { return result_reg_; }
  const CompileOptions& options() const { return opts_; }

  /// Verifier + liveness/alias result computed at compile time. Valid for
  /// any Engine produced by compile().
  const PlanAnalysis& analysis() const { return *analysis_; }

  /// Fully compiled program for one input signature [T, N, C, H, W],
  /// memoized (single-flight, LRU by byte budget) in the ProgramCache shared
  /// by every copy of this Engine — Router replicas compile each shape once,
  /// process-wide. Throws ttsnn::Error if the plan cannot run at this shape.
  std::shared_ptr<const CompiledProgram> program(const Shape& input) const;

  /// Concrete memory layout for one input shape; the layout half of
  /// program(input). Kept for layout-only callers (reports, benches).
  std::shared_ptr<const MemoryPlan> memory_plan(const Shape& input) const;

  /// Residency and hit/miss/eviction counters of the shared program cache.
  ProgramCacheStats cache_stats() const;

  /// Symbolic input signature [T, N, C, H, W] from shape inference:
  /// concrete where the plan pins an extent (the channel count always;
  /// T for TEBN-pinned plans), kDimUnknown where any extent serves. The
  /// Router validates submissions against this before queueing.
  Shape input_signature() const;

  /// Bytes of read-only weight storage the plan references, counting each
  /// shared buffer once. Engine copies and all cached programs reference
  /// this same storage — it is never duplicated per shape or per replica.
  int64_t weight_bytes() const { return weight_footprint_.total(); }

  /// weight_bytes() split by storage dtype (f32 / bf16 / int8+scales), for
  /// mixed-dtype fleet inspection (summary(), RouterStats, benches).
  const WeightFootprint& weight_footprint() const { return weight_footprint_; }

  /// One line per op: kind, label, register dataflow, live range and
  /// alias/in-place flags from the analysis — plus the program-cache
  /// residency (shapes cached, bytes vs budget, hit/miss/eviction counts).
  std::string summary() const;
  /// summary() plus the concrete memory-plan report (byte offsets, workspace
  /// totals, packing vs allocating every register) for one input shape.
  std::string summary(const Shape& input) const;

 private:
  friend Engine compile(const Module& root, const CompileOptions& opts);

  std::vector<Op> ops_;
  int num_regs_ = 1;               ///< register 0 is the input
  int result_reg_ = 0;             ///< register holding the network output
  WeightFootprint weight_footprint_;  ///< unique weight bytes, per dtype
  CompileOptions opts_;
  std::shared_ptr<const PlanAnalysis> analysis_;  ///< set by seal()
  std::shared_ptr<ProgramCache> programs_;        ///< shared across copies

  void seal();  ///< runs analyze_plan() once the op list is final
};

/// Lowers a trained module tree into an Engine. The tree is read through
/// const accessors only and can keep training afterwards: all weights are
/// cloned at compile time, so later optimizer steps do not alias the plan.
/// Throws ttsnn::Error on module types the lowering does not know — and, via
/// the verifier that seals every compile, on any malformed lowering.
Engine compile(const Module& root, const CompileOptions& opts = {});

/// Checkpoint-to-serving pipeline: loads `checkpoint_path` (written by
/// save_parameters) into `root` — which must be architecturally identical to
/// the saved model — then compiles it.
Engine compile_checkpoint(Module& root, const std::string& checkpoint_path,
                          const CompileOptions& opts = {});

}  // namespace ttsnn::infer
