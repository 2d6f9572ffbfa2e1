#pragma once

/// \file router.h
/// Sharded multi-replica serving layer — the scale-out front-end over
/// infer::Engine, with QoS (priority classes, admission control, idle-shard
/// work stealing) and a reliability layer (request deadlines + cancellation,
/// replica health quarantine with probe re-admission).
///
/// The PR-2 Server coalesced every request into ONE FIFO queue and popped a
/// same-shaped *prefix*, so a single odd-shaped request at the front
/// head-of-line-blocked every other shape group: mixed-scenario traffic
/// (image / event / gesture clips with different [T, C, H, W]) degraded to
/// batches of one, each paying the full `max_delay_ms` stall. The Router
/// fixes that structurally:
///
///   submit(x, {session, priority, deadline_ms})
///        │  validate against Engine::input_signature()
///        │  admission: shed (AdmissionError + retry_after_ms hint) if the
///        │  shard's queued bytes would exceed `queue_bytes`
///        │  shard = hash(shape, session) % num_shards
///        │  quarantined home shard? re-route to the next healthy one
///        ▼
///   ┌─ Shard 0 ──────────────┐  ┌─ Shard 1 ──────────────┐
///   │ groups: (shape, class) │  │ groups: (shape, class) │ ...
///   │ dispatcher thread(s)   │◄─┤  ← idle dispatchers    │
///   │ Engine replica 0       │  │    steal ready groups  │
///   │ health: fails/probe    │  └───────────┬────────────┘
///   └───────────┬────────────┘              │
///               └────────── shared ThreadPool ───────────┘
///               └──────── shared ProgramCache ───────────┘
///
///  - Every shard keeps one queue PER (SHAPE, PRIORITY CLASS) GROUP, each
///    carrying its own oldest-arrival deadline, so shape groups never block
///    each other and a full batch dispatches immediately even when an older,
///    not-yet-due group sits in front of it.
///  - Among ready groups of one shard, a higher priority class always
///    dispatches first; within a class the existing starvation-proof rule
///    holds (oldest front wins, and a flood's front stays fresh while a
///    starving group's front only ages).
///  - Admission control: when `queue_bytes > 0` and a shard's queued sample
///    bytes would exceed it, submit() sheds the request with a typed
///    AdmissionError carrying a queue-depth-derived retry_after_ms hint, so
///    clients back off proportionally to the actual overload.
///  - Request deadlines: a submit may carry `deadline_ms`; a request still
///    queued when its deadline expires is dropped BEFORE batching and its
///    future fails fast with a typed DeadlineError — the surviving batch is
///    exactly the batch that would have formed without it (bit-identical
///    outputs). cancel(session) resolves all in-queue futures of a session
///    with CancelledError without running them.
///  - Replica health: every batch's success/failure is accounted to the
///    replica that EXECUTED it. `quarantine_after` consecutive failures
///    quarantine the replica: new submits re-route to healthy shards, its
///    already-queued work drains on a healthy replica's engine (bit-identical
///    — replicas share weights and the program cache), and a periodic probe
///    (a synthetic run on the failed shape) re-admits it once it recovers.
///  - Work stealing: a dispatcher whose own shard is EMPTY polls the other
///    shards and pulls the oldest ready group from the most-loaded one, so a
///    skewed session hash cannot idle half the fleet.
///  - Fault injection (util/failpoint.h): every batch execution evaluates the
///    `router.dispatch` and `router.dispatch.<replica>` failpoints, so the
///    whole quarantine/re-admission machine is testable deterministically.
///
/// A single-replica deployment is `num_shards = 1` (work stealing then has
/// nowhere to steal from); `dispatchers_per_shard` still overlaps batches.

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "infer/engine.h"

namespace ttsnn::infer {

/// Request priority class. Among ready groups of a shard, higher classes
/// dispatch strictly first; within a class the oldest-front rule applies.
enum class Priority : int {
  kBatch = 0,        ///< offline backfill: runs when nothing else is ready
  kNormal = 1,       ///< the default
  kInteractive = 2,  ///< latency-sensitive: preempts everything ready
};
constexpr int kNumPriority = 3;
const char* priority_name(Priority cls);

/// Thrown by submit() when admission control sheds a request because the
/// target shard's queued bytes would exceed RouterOptions::queue_bytes.
/// Derives from ttsnn::Error so existing catch sites keep working; catching
/// this type specifically distinguishes "overloaded, back off" from a
/// malformed request or an engine failure. retry_after_ms() is a
/// queue-depth-derived backoff hint: roughly how long the shard needs to
/// drain enough of its current queue for a retry to be admitted.
class AdmissionError : public Error {
 public:
  explicit AdmissionError(const std::string& what, double retry_after_ms = 0.0)
      : Error(what), retry_after_ms_(retry_after_ms) {}
  double retry_after_ms() const { return retry_after_ms_; }

 private:
  double retry_after_ms_;
};

/// Fails the future of a request whose SubmitOptions::deadline_ms expired
/// while it was still queued. The request never reached an engine; the batch
/// it would have joined runs without it, bit-identically.
class DeadlineError : public Error {
 public:
  explicit DeadlineError(const std::string& what) : Error(what) {}
};

/// Fails the futures resolved by Router::cancel(session).
class CancelledError : public Error {
 public:
  explicit CancelledError(const std::string& what) : Error(what) {}
};

struct RouterOptions {
  /// Engine replicas, each with its own request queues and dispatchers.
  int num_shards = 2;
  /// Coalesce at most this many same-shaped requests into one Engine::run.
  int64_t max_batch = 8;
  /// Dispatch a partial batch once its group's oldest request is this old.
  double max_delay_ms = 2.0;
  /// Dispatcher threads per shard; each carries one batch at a time.
  int dispatchers_per_shard = 1;
  /// Admission budget: maximum queued sample bytes PER SHARD before submit()
  /// sheds with AdmissionError. 0 = unbounded (no admission control).
  int64_t queue_bytes = 0;
  /// Let a dispatcher whose shard is empty pull ready work from the
  /// most-loaded other shard. Only meaningful with num_shards > 1.
  bool work_stealing = true;
  /// How often an empty-shard dispatcher polls for stealable work while the
  /// router holds queued requests (it polls 20x slower when fully idle).
  double steal_poll_ms = 1.0;
  /// Consecutive batch failures on one replica before it is quarantined:
  /// new traffic re-routes to healthy shards and its queue drains on a
  /// healthy replica. 0 disables health tracking entirely.
  int quarantine_after = 3;
  /// Cadence of re-admission probes on a quarantined replica: a synthetic
  /// run of the shape that failed, on the quarantined engine; success
  /// re-admits the replica.
  double probe_interval_ms = 25.0;
};

struct RouterStats {
  int64_t requests = 0;   ///< samples accepted by submit()/infer()
  int64_t batches = 0;    ///< Engine::run calls issued across all shards
  int64_t max_batch = 0;  ///< largest coalesced batch observed anywhere
  int64_t shed = 0;       ///< submissions rejected by admission control
  int64_t steals = 0;     ///< batches a dispatcher pulled from another shard

  // Reliability layer.
  int64_t deadline_misses = 0;   ///< requests dropped with DeadlineError
  int64_t cancelled = 0;         ///< requests resolved by cancel(session)
  int64_t replica_failures = 0;  ///< batch executions that threw (any cause)
  int64_t quarantines = 0;       ///< healthy -> quarantined transitions
  int64_t readmissions = 0;      ///< quarantined -> healthy transitions
  int64_t probes = 0;            ///< re-admission probe attempts
  int64_t rerouted = 0;          ///< submits redirected off a quarantined home

  // Shared program cache (one per compiled model, all replicas).
  int64_t cache_hits = 0;       ///< program lookups served warm
  int64_t cache_misses = 0;     ///< first-miss compiles triggered
  int64_t cache_evictions = 0;  ///< programs dropped by the LRU budget
  int64_t cache_shapes = 0;     ///< input signatures currently resident
  int64_t cache_bytes = 0;      ///< plan metadata bytes resident

  // Weight storage of the served plan (unique bytes, shared by every
  // replica), split by dtype so mixed f32/bf16/int8 fleets are inspectable.
  const char* weight_dtype = "f32";  ///< CompileOptions::weight_dtype name
  int64_t weight_f32_bytes = 0;
  int64_t weight_bf16_bytes = 0;
  int64_t weight_int8_bytes = 0;  ///< packed int8 payloads + f32 scales

  std::vector<int64_t> shard_requests;  ///< per-shard accepted samples
  std::vector<int64_t> shard_batches;   ///< per-shard Engine::run calls
  std::vector<int64_t> shard_steals;    ///< per-shard batches stolen BY it
  /// Health gauge per shard: 1 = quarantined right now, 0 = healthy.
  std::vector<int64_t> shard_quarantined;
  /// Current queued samples per priority class (index = Priority value),
  /// summed over shards — a gauge, not a counter.
  std::vector<int64_t> class_depth;

  /// Shards currently healthy (num_shards minus quarantined) — a gauge.
  int64_t healthy_shards = 0;

  double mean_batch() const {
    return batches > 0 ? static_cast<double>(requests) /
                             static_cast<double>(batches)
                       : 0.0;
  }
};

/// Per-submit knobs beyond the sample itself. The two-argument submit()
/// overloads remain for callers without deadlines.
struct SubmitOptions {
  /// Coalescing/affinity key: same (shape, session) always lands on the same
  /// shard. Also the handle cancel(session) resolves by.
  uint64_t session = 0;
  Priority priority = Priority::kNormal;
  /// Fail the request with DeadlineError if it is still QUEUED this many ms
  /// after submit (measured to the moment a dispatcher would batch it).
  /// 0 = no deadline. A deadline never aborts a request already executing.
  double deadline_ms = 0.0;
};

class Router {
 public:
  /// Clones the compiled plan into one replica per shard (weight storage and
  /// the program cache are shared, so replicas cost a plan's worth of
  /// metadata, not a model copy) and starts the dispatchers. The engine
  /// argument itself only needs to live through the constructor.
  explicit Router(const Engine& engine, RouterOptions opts = {});
  /// Drains every shard queue, then joins the dispatchers.
  ~Router();

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Enqueues one sample [T, C, H, W] (all extents > 0) on the shard chosen
  /// by shard_for(x.shape(), session) — or the next healthy shard when that
  /// one is quarantined; the future resolves to the engine output for that
  /// sample with the batch axis removed (e.g. [T, classes]).
  ///
  /// Fails fast — synchronously, with a labeled ttsnn::Error — on any sample
  /// the compiled model can never serve (wrong rank, zero-sized or
  /// signature-mismatched extents, e.g. a channel count the weights don't
  /// have), instead of poisoning a future deep inside a dispatcher after the
  /// request waited out its deadline; and on submit after shutdown()/~Router
  /// (never a hang — the queues are gone). Throws AdmissionError when the
  /// shard's queue is over budget. Requests the engine rejects for per-shape
  /// reasons (pool divisibility, TEBN T) still fail only their own future.
  std::future<Tensor> submit(Tensor x, const SubmitOptions& sopts);
  std::future<Tensor> submit(Tensor x, uint64_t session = 0,
                             Priority cls = Priority::kNormal);

  /// Blocking convenience around submit().
  Tensor infer(Tensor x, const SubmitOptions& sopts);
  Tensor infer(Tensor x, uint64_t session = 0,
               Priority cls = Priority::kNormal);

  /// Resolves every request of `session` still queued (on any shard) with a
  /// typed CancelledError, without running them; returns how many were
  /// resolved. A request already popped into a batch is past cancellation
  /// and completes normally. Note the default session key is 0, so
  /// cancel(0) cancels all keyless queued requests.
  int64_t cancel(uint64_t session);

  /// Deterministic shard for a (shape, session) key. Same shape + same
  /// session always lands on the same shard (so its requests coalesce);
  /// distinct session keys spread one shape across replicas. This is the
  /// HOME shard — submit() may re-route when it is quarantined.
  int shard_for(const Shape& shape, uint64_t session = 0) const;

  int num_shards() const { return static_cast<int>(shards_.size()); }

  /// Aggregated over all shards, plus the per-shard breakdown and the shared
  /// program cache's residency/traffic counters.
  RouterStats stats() const;

  /// Stops accepting work, finishes every queued request (pending groups
  /// flush immediately, ignoring their deadlines), joins dispatchers.
  /// Idempotent; also called by the destructor.
  void shutdown();

 private:
  using TimePoint = std::chrono::steady_clock::time_point;

  struct Request {
    Tensor x;
    std::promise<Tensor> promise;
    std::chrono::steady_clock::time_point arrival;
    /// arrival + SubmitOptions::deadline_ms; TimePoint::max() = no deadline.
    std::chrono::steady_clock::time_point deadline;
    uint64_t session = 0;  ///< cancellation key
  };

  /// One (shape, priority) group: a FIFO of same-shaped requests. The flush
  /// deadline is always `reqs.front().arrival + max_delay_ms` — arrivals
  /// ride with the requests, so a group that waited while another flushed
  /// (or the tail left behind by a partial pop) keeps its original age
  /// instead of being re-armed with a fresh delay.
  struct Group {
    Shape shape;
    Priority cls = Priority::kNormal;
    std::deque<Request> reqs;
    /// Lower bound on the earliest request deadline queued here: exact after
    /// every prune scan, monotone-min on push (so possibly stale-low after a
    /// pop, costing at most one wasted scan). Stays TimePoint::max() — the
    /// common no-deadline case — which lets pop_ready_locked skip the
    /// per-request deadline scan entirely.
    TimePoint min_deadline = TimePoint::max();
  };

  struct Shard {
    Engine engine;  ///< cloned plan; weights + program cache shared
    int index = 0;  ///< position in shards_, for stats and failpoint names
    /// Per-replica failpoint site name ("router.dispatch.<index>"),
    /// precomputed so the hot path passes a stable c_str().
    std::string failpoint_name;
    Shard(const Engine& e, int i)
        : engine(e),
          index(i),
          failpoint_name("router.dispatch." + std::to_string(i)) {}

    mutable std::mutex mu;
    std::condition_variable cv;
    std::list<Group> groups;  ///< insertion-ordered; one per (shape, class)
    bool stop = false;
    int64_t requests = 0;
    int64_t batches = 0;
    int64_t max_batch = 0;
    int64_t queued_bytes = 0;  ///< sample bytes currently queued (admission)
    int64_t shed = 0;          ///< requests rejected by admission control
    int64_t steals = 0;        ///< batches THIS shard stole from others
    std::array<int64_t, kNumPriority> class_depth{};  ///< queued per class

    // Replica health. `quarantined` is atomic so submit() and executor
    // selection read it without the shard lock; every WRITE happens under mu
    // together with the bookkeeping counters below.
    std::atomic<bool> quarantined{false};
    int consecutive_failures = 0;
    TimePoint next_probe{};  ///< earliest time the next probe may run
    Shape probe_shape;       ///< batched input shape of the failing run
    int64_t deadline_misses = 0;
    int64_t cancelled = 0;
    int64_t failures = 0;      ///< batch executions on THIS replica that threw
    int64_t quarantines = 0;   ///< transitions into quarantine
    int64_t readmissions = 0;  ///< transitions out of quarantine
    int64_t probes = 0;        ///< probe attempts on this replica
    int64_t rerouted = 0;      ///< submits redirected AWAY from this home

    std::vector<std::thread> dispatchers;
  };

  void dispatcher_loop(Shard& shard);
  /// Blocks until this shard has a ready batch, a steal succeeds, a
  /// re-admission probe is due (returns empty, *stopped stays false), or
  /// shutdown drains the shard (returns empty, *stopped = true). Expired
  /// deadlines found while scanning are failed here. Batch/steal counters
  /// are updated at POP time on the dispatching shard (under quarantine the
  /// run itself may execute on another replica's engine).
  std::vector<Request> next_batch(Shard& shard, bool* stopped);
  /// Scans `shard`'s groups (mu held): first drops every request whose
  /// deadline expired into *expired (the caller fails them with
  /// DeadlineError), then pops the winning ready batch: highest priority
  /// class first, oldest front within a class; a group is ready when full or
  /// past its deadline (or unconditionally with `flush_any`, the shutdown
  /// drain). Returns empty when nothing is ready and sets *next_deadline to
  /// the earliest pending flush or request-deadline time.
  std::vector<Request> pop_ready_locked(
      Shard& shard, std::chrono::steady_clock::time_point now, bool flush_any,
      std::chrono::steady_clock::time_point* next_deadline,
      std::vector<Request>* expired);
  /// Steal attempt for an empty-shard dispatcher: snapshots the other
  /// shards' queue depths (one lock at a time — never two shard locks held),
  /// then pops a ready batch from the most-loaded one. Returns empty when
  /// nothing anywhere is ready.
  std::vector<Request> try_steal(Shard& thief);
  /// The replica every batch/probe execution goes through: evaluates the
  /// router.dispatch failpoints for `shard`, then runs its engine.
  Tensor run_replica(const Shard& shard, const Tensor& input,
                     Tensor& workspace) const;
  /// Stacks a same-shaped batch into [T, N, C, H, W], runs it on `exec`'s
  /// replica against the dispatcher's reusable workspace, splits the output
  /// back per sample, and settles every promise. Returns false when the run
  /// threw (the exception poisons the batch futures), so the caller can
  /// account the failure to `exec`'s health.
  bool run_batch(const Shard& exec, std::vector<Request>& batch,
                 Tensor& workspace) const;
  /// Health bookkeeping after a batch executed on `exec`: failures feed the
  /// consecutive counter and may quarantine; success resets it (and
  /// re-admits — evidence of health beats waiting for the next probe).
  void account_run(Shard& exec, bool ok, const Shape& batched_shape);
  /// If `shard` is quarantined and its probe is due, runs a synthetic
  /// request through its OWN engine; success re-admits it.
  void maybe_probe(Shard& shard, Tensor& workspace);
  /// Executor for a batch popped on `home`: home itself when healthy, else
  /// the first healthy shard, else home (all-quarantined degenerate case).
  Shard& choose_executor(Shard& home);
  /// Fails every request in `batch` with DeadlineError. Never throws.
  static void fail_expired(std::vector<Request>& expired);

  RouterOptions opts_;
  Shape signature_;  ///< Engine::input_signature(), validated per submit
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<int64_t> total_queued_{0};  ///< steal-poll cadence heuristic
  std::once_flag shutdown_once_;
};

}  // namespace ttsnn::infer
