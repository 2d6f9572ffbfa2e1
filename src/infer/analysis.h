#pragma once

/// \file analysis.h
/// Static-analysis pass pipeline over the compiled plan IR (the flat
/// register-addressed `std::vector<Op>` an Engine executes).
///
/// Three passes, run in order by analyze_plan() inside every compile():
///
///   1. Verifier — structural checks: every register is defined before it is
///      read, in/in2/out indices are in range, each register has exactly one
///      writer, every op output is consumed (or is the result), the result
///      register is reachable, and each op kind carries its complete field
///      group (a merged HTT conv has its half-step kernel, a kAffine op has
///      all BN tensors, ...). Malformed plans throw ttsnn::Error naming the
///      offending op instead of crashing mid-run.
///
///   2. Symbolic shape inference — the input is [T, N, C, H, W] with unknown
///      extents (kDimUnknown); every op's shape-transfer function propagates
///      what it can (channel counts are concrete from the weights) and
///      *unifies* constraints back onto still-unknown dims, so a channel
///      mismatch between a producer and a consumer — or two TEBN ops pinned
///      to different T — is a compile-time diagnostic. The same transfer
///      functions run again with the concrete input shape when a plan is laid
///      out, where the remaining geometry (pool divisibility, empty conv
///      outputs, an HTT schedule shorter than T) becomes checkable.
///
///   3. Liveness + alias analysis — exact live ranges per register (the
///      memory planner packs storage groups by them), kFlatten lowered to a
///      pure alias of its input buffer, and in-place-safe ops (kLif, kAffine,
///      kAdd and their fused forms over their last-read input) merged into
///      their input's storage group.
///
/// plan_memory() then turns the analysis plus a concrete input shape into a
/// MemoryPlan: greedy best-fit offset assignment of every storage group, the
/// composite-op scratch region, and the im2col scratch into ONE workspace
/// buffer, so Engine::run() performs a single workspace allocation (or none,
/// when the caller re-submits a workspace tensor) instead of a Tensor::empty
/// per register. Per-shape layouts are memoized inside the CompiledProgram
/// entries of the shape-keyed ProgramCache (plan_cache.h) that Engine
/// replicas share (see router.h).

#include <memory>
#include <string>
#include <vector>

#include "infer/engine.h"

namespace ttsnn::infer {

/// Extent marker for dimensions unknown until run time (T, N, H, W at
/// compile time; everything is concrete once run() sees the input).
constexpr int64_t kDimUnknown = -1;

/// Workspace regions are aligned to 16 floats (one 64-byte cache line) so
/// adjacent registers never share a line. The planner sizes regions with
/// plan_align_up and the planned executor bumps its scratch cursor by the
/// same amount, keeping the two in lockstep.
constexpr int64_t kPlanAlignFloats = 16;
constexpr int64_t plan_align_up(int64_t n) {
  return (n + kPlanAlignFloats - 1) / kPlanAlignFloats * kPlanAlignFloats;
}

/// Live range of one register, in op indices: `def` is the op that writes it
/// (-1 for the input register 0), `last_use` the last op that reads it (-1
/// when never read — only legal for the result register).
struct LiveRange {
  int def = -1;
  int last_use = -1;
};

/// Result of the verifier + liveness/alias passes. Structural only — no
/// concrete shapes — so one analysis serves every input shape the plan runs.
struct PlanAnalysis {
  int num_regs = 0;
  int result_reg = 0;

  /// Per register.
  std::vector<LiveRange> live;
  /// Per register: number of operand slots reading it across the whole plan
  /// (an op reading the same register through in and in2 counts twice). The
  /// fusion pass derives its single-consumer facts from this.
  std::vector<int> reads;
  /// Per register: representative of its storage group. Registers created by
  /// kFlatten aliases or in-place ops share their input's group; everyone
  /// else roots itself. root[r] always points at the group's first register.
  std::vector<int> root;

  /// Per op: true when the op is a pure view (kFlatten) — no kernel runs,
  /// the output register aliases the input buffer.
  std::vector<bool> is_alias;
  /// Per op: true when the op writes its output over its own input buffer
  /// (kLif / kAffine / kAdd whose input dies at this op).
  std::vector<bool> is_inplace;

  /// Per register: symbolic shape after inference (kDimUnknown entries for
  /// extents only the concrete input determines).
  std::vector<Shape> sym_shape;
};

/// Runs the full pipeline: verifier, symbolic shape inference, liveness +
/// alias analysis. Throws ttsnn::Error naming the offending op on any
/// malformed plan. compile() calls this on every lowering; tests feed it
/// hand-built op vectors directly.
PlanAnalysis analyze_plan(const std::vector<Op>& ops, int num_regs,
                          int result_reg);

/// Fusion legality of one producer output: true when `reg` may vanish into
/// its consumer — it is read by exactly one operand slot in the whole plan
/// and is not the plan's result. SSA purity makes the fact positional-free:
/// the producer's own inputs still hold their values at the consumer's index,
/// so the fused op can re-read them there.
bool fusion_candidate(const PlanAnalysis& analysis, int reg);

/// Concrete memory layout of one (plan, input shape) pair: every storage
/// group, the composite-op scratch region, and the im2col scratch packed
/// into a single buffer of total_floats.
struct MemoryPlan {
  /// Per register: concrete shape for this input.
  std::vector<Shape> shape;
  /// Per register: float offset of its storage group in the workspace; -1
  /// for the input register (caller memory) and the result register (owning
  /// output tensor).
  std::vector<int64_t> offset;
  /// Per register: numel (cached from shape).
  std::vector<int64_t> floats;

  int64_t scratch_offset = 0;  ///< composite-op temporaries (bump region)
  int64_t scratch_floats = 0;  ///< max over ops of their temp-sum
  int64_t col_offset = 0;      ///< shared im2col column buffer
  int64_t col_floats = 0;      ///< max over every conv lowering in the plan
  int64_t total_floats = 0;    ///< workspace size (one allocation per call)

  /// Sum of every op output, composite temp and the col buffer as if each
  /// got its own allocation — the baseline the packing is reported against.
  int64_t unplanned_floats = 0;
  /// Widest simultaneously-live set of planned storage groups — the lower
  /// bound on the register part of the workspace.
  int64_t peak_live_floats = 0;
};

/// Lays out the plan for one concrete input shape. Runs the shape-transfer
/// functions with every extent known, so residual geometry errors (pool
/// divisibility, empty conv outputs, a TEBN plan run at the wrong T) throw
/// labeled ttsnn::Error here — before any kernel runs.
MemoryPlan plan_memory(const std::vector<Op>& ops, const PlanAnalysis& analysis,
                       const Shape& input);

/// Human-readable memory-plan report for one input shape: one row per
/// register (live range, shape, bytes, offset, alias/in-place flags) plus
/// the workspace / scratch / col totals and the unplanned and peak-live
/// baselines. The ttsnn_plan_lint CLI prints this per TT mode.
std::string memory_plan_report(const std::vector<Op>& ops,
                               const PlanAnalysis& analysis,
                               const Shape& input);

}  // namespace ttsnn::infer
