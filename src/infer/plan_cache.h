#pragma once

/// \file plan_cache.h
/// Shape-keyed cache of fully compiled programs — the piece that makes the
/// serving stack shape-general ("any user, any input shape, no warm-up").
///
/// An Engine's op list is lowered once per model, but everything the planned
/// executor needs beyond the ops is a function of the concrete input
/// signature [T, N, C, H, W]: the packed workspace layout and each op's
/// destination (workspace view / in-place alias / owning result). An HTT
/// op's schedule needs nothing per shape: its kernels pick each timestep's
/// path from the op itself. CompiledProgram bundles all of that for one
/// signature; ProgramCache memoizes CompiledPrograms behind Engine::run so
/// the first request of a new shape pays one compile and every later request
/// of that shape executes with zero per-call planning (the pattern of
/// tt-metal's op program cache).
///
/// Cache contract:
///  - Thread-safe, compile-on-first-miss. Concurrent first misses on the
///    SAME shape are single-flight: exactly one thread compiles, the rest
///    wait on the entry's shared future — a cold shape never compiles twice,
///    and a cold shape's compile never blocks other shapes (the lock is
///    dropped while compiling).
///  - LRU eviction by a byte budget (kProgramCacheBytes for every Engine)
///    over the per-entry plan metadata. Weights are NOT in the entries:
///    programs reference the engine's op list, whose tensors share
///    refcounted read-only storage, so N cached shapes cost N layouts —
///    never N copies of the parameters.
///  - Engine copies (Router shard replicas) share one ProgramCache via
///    shared_ptr, so a shape compiled on any shard is warm on all of them.
///  - A cache-served program is bitwise-identical to a freshly compiled one:
///    compilation is deterministic (plan_memory plus each op's destination),
///    and eviction only forgets the layout, never the weights.

#include <cstdint>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <vector>

#include "infer/analysis.h"
#include "infer/engine.h"

namespace ttsnn::infer {

/// Byte budget of every Engine's ProgramCache: plan metadata only, since
/// weights are refcounted once outside the cache.
constexpr int64_t kProgramCacheBytes = 8LL << 20;

/// Per-op execution record of a compiled program: where this op's output
/// lives at this input signature.
struct OpExec {
  enum class Dest {
    kAlias,        ///< pure view of the input register (mid-plan kFlatten)
    kMaterialize,  ///< kFlatten into the result: fresh tensor + copy
    kResult,       ///< fresh owning tensor handed to the caller
    kInPlace,      ///< overwrite the dying input register's buffer
    kWorkspace,    ///< workspace view at the planner-assigned `offset`
  };
  Dest dest = Dest::kWorkspace;
  Shape out_shape;     ///< concrete output shape (layout->shape[op.out])
  int64_t offset = 0;  ///< workspace float offset (kWorkspace only)
};

/// A fully compiled program: everything Engine::run needs for ONE input
/// signature beyond the (shared) op list. Immutable once built.
struct CompiledProgram {
  Shape input;                                  ///< the cache key
  std::shared_ptr<const MemoryPlan> layout;     ///< packed workspace layout
  std::vector<OpExec> exec;                     ///< parallel to the op list
  int64_t bytes = 0;  ///< metadata footprint, the LRU accounting unit
};

/// Residency and traffic counters of one ProgramCache.
struct ProgramCacheStats {
  int64_t entries = 0;       ///< shapes currently cached (compiled)
  int64_t bytes = 0;         ///< plan metadata bytes held
  int64_t budget_bytes = 0;  ///< the LRU byte budget
  int64_t hits = 0;          ///< lookups served from (or joined onto) an entry
  int64_t misses = 0;        ///< lookups that triggered a compile
  int64_t evictions = 0;     ///< entries dropped by the LRU budget
};

/// Compiles one program outside any cache: lays out the memory plan for
/// `input` (throwing labeled ttsnn::Error on shapes the plan cannot run) and
/// resolves every op's destination. Deterministic — the cache's
/// bit-identity guarantee reduces to this function being a pure function of
/// (ops, analysis, input).
CompiledProgram compile_program(const std::vector<Op>& ops,
                                const PlanAnalysis& analysis,
                                const Shape& input);

/// Thread-safe, shape-keyed, LRU-bounded cache of CompiledPrograms. One
/// instance is created per compile() and shared by every copy of that Engine
/// (Router shard replicas), so each input signature is compiled once per
/// model, process-wide.
class ProgramCache {
 public:
  /// budget_bytes bounds the summed CompiledProgram::bytes. The most
  /// recently inserted entry is always retained, so a budget smaller than
  /// one program still serves (it just never keeps a second shape warm).
  explicit ProgramCache(int64_t budget_bytes) : budget_(budget_bytes) {}

  /// Returns the program for `input`, compiling on first miss
  /// (single-flight). Throws what compile_program throws; a failed compile
  /// is not cached, so a later identical request retries.
  std::shared_ptr<const CompiledProgram> get(const std::vector<Op>& ops,
                                             const PlanAnalysis& analysis,
                                             const Shape& input);

  ProgramCacheStats stats() const;

 private:
  using Future = std::shared_future<std::shared_ptr<const CompiledProgram>>;
  struct Entry {
    Shape shape;
    Future ready;       ///< waiters join here while the miss compiles
    bool done = false;  ///< bytes accounted; eligible for eviction
    int64_t bytes = 0;
  };

  /// Drops least-recently-used DONE entries (never `keep`, never an
  /// in-flight compile) until the budget holds. Call with mu_ held.
  void evict_locked(const Shape& keep);

  mutable std::mutex mu_;
  std::list<Entry> lru_;  ///< front = most recently used
  int64_t budget_ = 0;
  int64_t bytes_ = 0;
  int64_t hits_ = 0;
  int64_t misses_ = 0;
  int64_t evictions_ = 0;
};

}  // namespace ttsnn::infer
