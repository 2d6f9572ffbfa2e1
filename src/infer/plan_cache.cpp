#include "infer/plan_cache.h"

#include <algorithm>
#include <utility>

#include "util/failpoint.h"

namespace ttsnn::infer {

namespace {

int64_t shape_bytes(const Shape& s) {
  return static_cast<int64_t>(s.capacity() * sizeof(int64_t));
}

/// Honest metadata accounting for the LRU budget: the layout's per-register
/// vectors plus every exec record. Weights are deliberately absent — they
/// live in the engine's op list, refcounted once across all cached shapes.
int64_t program_bytes(const CompiledProgram& p) {
  int64_t b = static_cast<int64_t>(sizeof(CompiledProgram)) +
              shape_bytes(p.input) +
              static_cast<int64_t>(sizeof(MemoryPlan));
  const MemoryPlan& m = *p.layout;
  for (const Shape& s : m.shape) b += shape_bytes(s);
  b += static_cast<int64_t>((m.offset.capacity() + m.floats.capacity()) *
                            sizeof(int64_t));
  for (const OpExec& e : p.exec) {
    b += static_cast<int64_t>(sizeof(OpExec)) + shape_bytes(e.out_shape);
  }
  return b;
}

}  // namespace

CompiledProgram compile_program(const std::vector<Op>& ops,
                                const PlanAnalysis& analysis,
                                const Shape& input) {
  CompiledProgram p;
  p.input = input;
  // plan_memory re-runs every shape-transfer function with concrete extents,
  // so any shape the plan cannot serve (pool divisibility, TEBN T, a too-
  // short HTT schedule) throws a labeled error HERE — before the program
  // enters the cache or any kernel runs.
  p.layout =
      std::make_shared<const MemoryPlan>(plan_memory(ops, analysis, input));
  p.exec.reserve(ops.size());
  for (size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    OpExec e;
    e.out_shape = p.layout->shape[static_cast<size_t>(op.out)];
    if (analysis.is_alias[i]) {
      e.dest = OpExec::Dest::kAlias;
    } else if (op.kind == Op::Kind::kFlatten) {
      // Flatten INTO the result register: the caller must not receive a
      // view of the recycled workspace (or of its own input).
      e.dest = OpExec::Dest::kMaterialize;
    } else if (op.out == analysis.result_reg) {
      e.dest = OpExec::Dest::kResult;
    } else if (analysis.is_inplace[i]) {
      e.dest = OpExec::Dest::kInPlace;
    } else {
      e.dest = OpExec::Dest::kWorkspace;
      e.offset = p.layout->offset[static_cast<size_t>(op.out)];
    }
    p.exec.push_back(std::move(e));
  }
  p.bytes = program_bytes(p);
  return p;
}

std::shared_ptr<const CompiledProgram> ProgramCache::get(
    const std::vector<Op>& ops, const PlanAnalysis& analysis,
    const Shape& input) {
  std::promise<std::shared_ptr<const CompiledProgram>> compile_slot;
  Future ready;
  bool owner = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto it = lru_.begin(); it != lru_.end(); ++it) {
      if (it->shape == input) {
        ++hits_;
        lru_.splice(lru_.begin(), lru_, it);  // touch for LRU
        ready = it->ready;
        break;
      }
    }
    if (!ready.valid()) {
      ++misses_;
      owner = true;
      Entry e;
      e.shape = input;
      e.ready = compile_slot.get_future().share();
      ready = e.ready;
      lru_.push_front(std::move(e));
    }
  }

  if (!owner) return ready.get();  // warm hit, or join an in-flight compile

  // First miss: compile OUTSIDE the lock, so a cold shape never stalls
  // lookups (or compiles) of other shapes — only same-shape callers wait,
  // on the shared future above.
  std::shared_ptr<const CompiledProgram> prog;
  try {
    // Injected cold-compile fault: propagates to every waiter joined on this
    // shape's future and is NOT cached, like any organic compile failure.
    TTSNN_FAILPOINT("plan_cache.compile");
    prog = std::make_shared<const CompiledProgram>(
        compile_program(ops, analysis, input));
  } catch (...) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      lru_.remove_if([&input](const Entry& e) { return e.shape == input; });
    }
    // Waiters joined on the future observe the same error; the entry is
    // gone, so a later identical request retries instead of replaying a
    // cached exception forever.
    compile_slot.set_exception(std::current_exception());
    throw;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (Entry& e : lru_) {
      if (e.shape == input) {
        e.done = true;
        e.bytes = prog->bytes;
        bytes_ += prog->bytes;
        break;
      }
    }
    if (budget_ > 0) evict_locked(input);
  }
  compile_slot.set_value(prog);
  return prog;
}

void ProgramCache::evict_locked(const Shape& keep) {
  while (bytes_ > budget_ && lru_.size() > 1) {
    // Walk from the LRU end; skip in-flight compiles and the entry that just
    // landed (a budget smaller than one program must still serve).
    auto victim = lru_.end();
    for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
      if (it->done && !(it->shape == keep)) {
        victim = std::next(it).base();
        break;
      }
    }
    if (victim == lru_.end()) break;
    bytes_ -= victim->bytes;
    lru_.erase(victim);
    ++evictions_;
  }
}

ProgramCacheStats ProgramCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  ProgramCacheStats s;
  s.budget_bytes = budget_;
  s.bytes = bytes_;
  s.hits = hits_;
  s.misses = misses_;
  s.evictions = evictions_;
  for (const Entry& e : lru_) s.entries += e.done ? 1 : 0;
  return s;
}

}  // namespace ttsnn::infer
