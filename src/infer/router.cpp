#include "infer/router.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <sstream>

#include "infer/analysis.h"
#include "infer/plan_cache.h"
#include "util/failpoint.h"

namespace ttsnn::infer {

namespace {

using TimePoint = std::chrono::steady_clock::time_point;

/// How often a dispatcher whose shard is empty polls the other shards for
/// stealable work while the router holds queued requests; it polls
/// kIdleStealPollFactor times slower when the router is fully idle.
constexpr double kStealPollMs = 1.0;
constexpr double kIdleStealPollFactor = 20.0;

TimePoint group_deadline(const TimePoint& arrival, double max_delay_ms) {
  return arrival +
         std::chrono::duration_cast<std::chrono::steady_clock::duration>(
             std::chrono::duration<double, std::milli>(max_delay_ms));
}

std::chrono::steady_clock::duration ms_duration(double ms) {
  return std::chrono::duration_cast<std::chrono::steady_clock::duration>(
      std::chrono::duration<double, std::milli>(ms));
}

int64_t sample_bytes(const Tensor& x) {
  return x.numel() * static_cast<int64_t>(sizeof(float));
}

}  // namespace

const char* priority_name(Priority cls) {
  switch (cls) {
    case Priority::kBatch:
      return "batch";
    case Priority::kNormal:
      return "normal";
    case Priority::kInteractive:
      return "interactive";
  }
  return "?";
}

Router::Router(const Engine& engine, RouterOptions opts) : opts_(opts) {
  TTSNN_CHECK(opts_.num_shards >= 1, "Router needs >= 1 shard");
  TTSNN_CHECK(opts_.max_batch >= 1, "Router max_batch must be >= 1");
  TTSNN_CHECK(opts_.max_delay_ms >= 0.0, "Router max_delay_ms must be >= 0");
  TTSNN_CHECK(opts_.dispatchers_per_shard >= 1,
              "Router needs >= 1 dispatcher per shard");
  TTSNN_CHECK(opts_.queue_bytes >= 0, "Router queue_bytes must be >= 0");
  TTSNN_CHECK(opts_.quarantine_after >= 0,
              "Router quarantine_after must be >= 0 (0 disables)");
  TTSNN_CHECK(opts_.probe_interval_ms > 0.0,
              "Router probe_interval_ms must be > 0");
  signature_ = engine.input_signature();
  shards_.reserve(static_cast<size_t>(opts_.num_shards));
  for (int i = 0; i < opts_.num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>(engine, i));
  }
  // Dispatchers start only after every shard exists: a stealing dispatcher
  // walks shards_ itself, and shard_for must already be stable.
  for (auto& shard : shards_) {
    shard->dispatchers.reserve(
        static_cast<size_t>(opts_.dispatchers_per_shard));
    for (int d = 0; d < opts_.dispatchers_per_shard; ++d) {
      shard->dispatchers.emplace_back(
          [this, s = shard.get()] { dispatcher_loop(*s); });
    }
  }
}

Router::~Router() { shutdown(); }

void Router::shutdown() {
  // One caller does the stop + join; concurrent callers (e.g. the destructor
  // racing an explicit shutdown) BLOCK inside call_once until that caller
  // finishes, so everyone returning from shutdown() can rely on the
  // documented post-condition: queues drained, dispatchers joined.
  std::call_once(shutdown_once_, [this] {
    for (auto& shard : shards_) {
      {
        std::lock_guard<std::mutex> lock(shard->mu);
        shard->stop = true;
      }
      shard->cv.notify_all();
    }
    for (auto& shard : shards_) {
      for (std::thread& t : shard->dispatchers) {
        if (t.joinable()) t.join();
      }
      shard->dispatchers.clear();
    }
  });
}

int Router::shard_for(const Shape& shape, uint64_t session) const {
  // FNV-1a over the shape extents and the session key. Same (shape, session)
  // always hashes alike, so a client's same-shaped requests coalesce on one
  // shard; distinct sessions spread a hot shape across replicas.
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;
  };
  for (int64_t d : shape) mix(static_cast<uint64_t>(d));
  mix(session);
  return static_cast<int>(h % static_cast<uint64_t>(shards_.size()));
}

std::future<Tensor> Router::submit(Tensor x, const SubmitOptions& sopts) {
  TTSNN_CHECK(x.dim() == 4, "Router::submit expects one sample [T, C, H, W], "
                                << "got " << shape_str(x.shape()));
  // All extents must be positive: a zero-sized sample would reach the
  // dispatcher's numel()/t_steps stacking arithmetic as a divide by zero and
  // take the whole process down instead of failing one request.
  for (int64_t d = 0; d < 4; ++d) {
    TTSNN_CHECK(x.size(d) > 0, "Router::submit needs all dims > 0, got "
                                   << shape_str(x.shape()));
  }
  // Validate against the model's input signature NOW, at the submit call
  // site. A sample the compiled plan can never serve (a channel count the
  // weights don't have, a TEBN-pinned T) used to queue, wait out its
  // deadline, and fail deep inside a dispatcher with an engine-internal
  // message; it now throws synchronously with the caller's stack intact.
  // Signature layout is [T, N, C, H, W]; the sample is [T, C, H, W].
  static constexpr int kSigAxis[4] = {0, 2, 3, 4};
  for (int d = 0; d < 4; ++d) {
    const int64_t want = signature_[static_cast<size_t>(kSigAxis[d])];
    if (want != kDimUnknown && x.size(d) != want) {
      std::ostringstream oss;
      oss << "Router::submit: sample " << shape_str(x.shape())
          << " does not match the model input signature [T, N, C, H, W] = "
          << shape_str(signature_) << " (sample dim " << d << " is "
          << x.size(d) << ", the plan requires " << want << ")";
      throw Error(oss.str());
    }
  }
  const int ci = static_cast<int>(sopts.priority);
  TTSNN_CHECK(ci >= 0 && ci < kNumPriority,
              "Router::submit: invalid priority class " << ci);
  TTSNN_CHECK(sopts.deadline_ms >= 0.0,
              "Router::submit: deadline_ms must be >= 0 (0 = none)");

  Request req;
  req.x = std::move(x);
  req.arrival = std::chrono::steady_clock::now();
  req.deadline = sopts.deadline_ms > 0.0
                     ? req.arrival + ms_duration(sopts.deadline_ms)
                     : TimePoint::max();
  req.session = sopts.session;
  std::future<Tensor> fut = req.promise.get_future();
  const int64_t bytes = sample_bytes(req.x);

  // Home shard first; a quarantined home re-routes to the next healthy shard
  // (scanning in index order keeps the choice deterministic), so new traffic
  // never queues behind a failing replica. With every shard quarantined the
  // home keeps the request — its queue still drains via choose_executor.
  Shard* target =
      shards_[static_cast<size_t>(shard_for(req.x.shape(), sopts.session))]
          .get();
  if (opts_.quarantine_after > 0 &&
      target->quarantined.load(std::memory_order_acquire)) {
    for (size_t k = 1; k < shards_.size(); ++k) {
      Shard& cand = *shards_[(static_cast<size_t>(target->index) + k) %
                             shards_.size()];
      if (!cand.quarantined.load(std::memory_order_acquire)) {
        {
          std::lock_guard<std::mutex> lock(target->mu);
          ++target->rerouted;
        }
        target = &cand;
        break;
      }
    }
  }
  Shard& shard = *target;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    TTSNN_CHECK(!shard.stop, "Router::submit after shutdown");
    if (opts_.queue_bytes > 0 &&
        shard.queued_bytes + bytes > opts_.queue_bytes) {
      ++shard.shed;
      // Backoff hint: the queue ahead needs ~queued/max_batch dispatches to
      // drain, each worth up to max_delay_ms of coalescing; +1 batch of
      // headroom, capped so a deeply flooded shard never tells a client to
      // go away for more than a second.
      int64_t queued = 0;
      for (int64_t d : shard.class_depth) queued += d;
      const double per_batch = std::max(opts_.max_delay_ms, 1.0);
      const double retry_ms = std::min(
          (std::ceil(static_cast<double>(queued) /
                     static_cast<double>(opts_.max_batch)) +
           1.0) *
              per_batch,
          1000.0);
      std::ostringstream oss;
      oss << "Router::submit: admission control shed a " << bytes
          << "-byte sample (" << priority_name(sopts.priority)
          << "): shard holds " << shard.queued_bytes << " of "
          << opts_.queue_bytes << " queued bytes; retry after " << retry_ms
          << " ms";
      throw AdmissionError(oss.str(), retry_ms);
    }
    Group* group = nullptr;
    for (Group& g : shard.groups) {
      if (g.cls == sopts.priority && g.shape == req.x.shape()) {
        group = &g;
        break;
      }
    }
    if (group == nullptr) {
      shard.groups.emplace_back();
      group = &shard.groups.back();
      group->shape = req.x.shape();
      group->cls = sopts.priority;
    }
    group->min_deadline = std::min(group->min_deadline, req.deadline);
    group->reqs.push_back(std::move(req));
    ++shard.requests;
    shard.queued_bytes += bytes;
    ++shard.class_depth[static_cast<size_t>(ci)];
  }
  total_queued_.fetch_add(1, std::memory_order_relaxed);
  shard.cv.notify_one();
  return fut;
}

std::future<Tensor> Router::submit(Tensor x, uint64_t session, Priority cls) {
  SubmitOptions sopts;
  sopts.session = session;
  sopts.priority = cls;
  return submit(std::move(x), sopts);
}

Tensor Router::infer(Tensor x, const SubmitOptions& sopts) {
  return submit(std::move(x), sopts).get();
}

Tensor Router::infer(Tensor x, uint64_t session, Priority cls) {
  return submit(std::move(x), session, cls).get();
}

int64_t Router::cancel(uint64_t session) {
  // Collect matching requests under each shard's lock, settle their promises
  // AFTER every lock is released: a future continuation must never run with
  // a shard lock held.
  std::vector<Request> cancelled;
  for (auto& sp : shards_) {
    Shard& shard = *sp;
    const size_t before = cancelled.size();
    std::lock_guard<std::mutex> lock(shard.mu);
    for (auto it = shard.groups.begin(); it != shard.groups.end();) {
      Group& g = *it;
      for (auto rit = g.reqs.begin(); rit != g.reqs.end();) {
        if (rit->session == session) {
          shard.queued_bytes -= sample_bytes(rit->x);
          --shard.class_depth[static_cast<size_t>(g.cls)];
          total_queued_.fetch_sub(1, std::memory_order_relaxed);
          cancelled.push_back(std::move(*rit));
          rit = g.reqs.erase(rit);
        } else {
          ++rit;
        }
      }
      it = g.reqs.empty() ? shard.groups.erase(it) : std::next(it);
    }
    shard.cancelled += static_cast<int64_t>(cancelled.size() - before);
  }
  for (Request& r : cancelled) {
    std::ostringstream oss;
    oss << "Router: request cancelled (session " << session << ", sample "
        << shape_str(r.x.shape()) << ")";
    r.promise.set_exception(std::make_exception_ptr(CancelledError(oss.str())));
  }
  return static_cast<int64_t>(cancelled.size());
}

RouterStats Router::stats() const {
  RouterStats s;
  s.shard_requests.reserve(shards_.size());
  s.shard_batches.reserve(shards_.size());
  s.shard_steals.reserve(shards_.size());
  s.shard_quarantined.reserve(shards_.size());
  s.class_depth.assign(kNumPriority, 0);
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    s.requests += shard->requests;
    s.batches += shard->batches;
    s.max_batch = std::max(s.max_batch, shard->max_batch);
    s.shed += shard->shed;
    s.steals += shard->steals;
    s.deadline_misses += shard->deadline_misses;
    s.cancelled += shard->cancelled;
    s.replica_failures += shard->failures;
    s.quarantines += shard->quarantines;
    s.readmissions += shard->readmissions;
    s.probes += shard->probes;
    s.rerouted += shard->rerouted;
    s.shard_requests.push_back(shard->requests);
    s.shard_batches.push_back(shard->batches);
    s.shard_steals.push_back(shard->steals);
    const bool quarantined =
        shard->quarantined.load(std::memory_order_relaxed);
    s.shard_quarantined.push_back(quarantined ? 1 : 0);
    if (!quarantined) ++s.healthy_shards;
    for (int c = 0; c < kNumPriority; ++c) {
      s.class_depth[static_cast<size_t>(c)] +=
          shard->class_depth[static_cast<size_t>(c)];
    }
  }
  // One cache serves every replica, so read it once (shard 0's handle).
  const ProgramCacheStats cache = shards_[0]->engine.cache_stats();
  s.cache_hits = cache.hits;
  s.cache_misses = cache.misses;
  s.cache_evictions = cache.evictions;
  s.cache_shapes = cache.entries;
  s.cache_bytes = cache.bytes;
  // Weight storage is likewise shared by every replica: per-dtype unique
  // bytes from shard 0's engine, labeled with the compiled weight dtype.
  const WeightFootprint& wf = shards_[0]->engine.weight_footprint();
  s.weight_dtype = weight_dtype_name(shards_[0]->engine.options().weight_dtype);
  s.weight_f32_bytes = wf.f32_bytes;
  s.weight_bf16_bytes = wf.bf16_bytes;
  s.weight_int8_bytes = wf.int8_bytes;
  return s;
}

void Router::fail_expired(std::vector<Request>& expired) {
  for (Request& r : expired) {
    std::ostringstream oss;
    oss << "Router: request deadline expired while queued (sample "
        << shape_str(r.x.shape()) << ", session " << r.session << ")";
    r.promise.set_exception(std::make_exception_ptr(DeadlineError(oss.str())));
  }
  expired.clear();
}

std::vector<Router::Request> Router::pop_ready_locked(
    Shard& shard, TimePoint now, bool flush_any, TimePoint* next_deadline,
    std::vector<Request>* expired) {
  *next_deadline = TimePoint::max();

  // Deadline prune FIRST, so the batch formed below is exactly the batch
  // that would have formed had the expired requests never been queued — the
  // survivors' outputs stay bit-identical. Groups whose min_deadline bound
  // is still in the future (including the no-deadline common case,
  // TimePoint::max()) are skipped without touching their requests. The
  // shutdown drain (flush_any) skips pruning entirely: shutdown() promises
  // every queued request finishes.
  if (!flush_any) {
    for (auto it = shard.groups.begin(); it != shard.groups.end();) {
      Group& g = *it;
      if (g.min_deadline <= now) {
        TimePoint min_left = TimePoint::max();
        for (auto rit = g.reqs.begin(); rit != g.reqs.end();) {
          if (rit->deadline <= now) {
            shard.queued_bytes -= sample_bytes(rit->x);
            --shard.class_depth[static_cast<size_t>(g.cls)];
            ++shard.deadline_misses;
            total_queued_.fetch_sub(1, std::memory_order_relaxed);
            expired->push_back(std::move(*rit));
            rit = g.reqs.erase(rit);
          } else {
            min_left = std::min(min_left, rit->deadline);
            ++rit;
          }
        }
        g.min_deadline = min_left;  // exact again after a full scan
      }
      it = g.reqs.empty() ? shard.groups.erase(it) : std::next(it);
    }
  }

  // Scan the live groups for ready ones: a group is ready when it is FULL
  // (dispatches immediately regardless of age — the PR-2 server would sit
  // on a full batch while an older, not-yet-due request held the queue
  // front) or when its deadline — always derived from its own oldest
  // request's arrival — has expired. Among ready groups a higher priority
  // class wins outright; within a class, serve the one whose front request
  // has waited longest: full still beats not-yet-due, but a sustained flood
  // that keeps one group permanently full cannot starve an expired group OF
  // ITS CLASS, because the flood's front stays fresh (it keeps being
  // consumed) while the starving group's front only ages. Groups that are
  // neither feed the earliest pending flush — or request deadline — back to
  // the caller's sleep.
  auto ready = shard.groups.end();
  for (auto it = shard.groups.begin(); it != shard.groups.end(); ++it) {
    const bool full = static_cast<int64_t>(it->reqs.size()) >= opts_.max_batch;
    const TimePoint deadline =
        group_deadline(it->reqs.front().arrival, opts_.max_delay_ms);
    if (full || deadline <= now) {
      if (ready == shard.groups.end() || it->cls > ready->cls ||
          (it->cls == ready->cls &&
           it->reqs.front().arrival < ready->reqs.front().arrival)) {
        ready = it;
      }
    } else {
      *next_deadline =
          std::min({*next_deadline, deadline, it->min_deadline});
    }
  }
  if (ready == shard.groups.end()) {
    if (!flush_any || shard.groups.empty()) return {};
    ready = shard.groups.begin();  // drain: flush without waiting out ages
  }

  std::vector<Request> batch;
  batch.reserve(static_cast<size_t>(std::min<int64_t>(
      opts_.max_batch, static_cast<int64_t>(ready->reqs.size()))));
  while (!ready->reqs.empty() &&
         static_cast<int64_t>(batch.size()) < opts_.max_batch) {
    shard.queued_bytes -= sample_bytes(ready->reqs.front().x);
    batch.push_back(std::move(ready->reqs.front()));
    ready->reqs.pop_front();
  }
  shard.class_depth[static_cast<size_t>(ready->cls)] -=
      static_cast<int64_t>(batch.size());
  total_queued_.fetch_sub(static_cast<int64_t>(batch.size()),
                          std::memory_order_relaxed);
  // A partially drained group keeps its remaining requests AND their
  // arrival stamps, so the tail's deadline stays anchored to when those
  // requests actually arrived.
  if (ready->reqs.empty()) shard.groups.erase(ready);
  return batch;
}

std::vector<Router::Request> Router::try_steal(Shard& thief) {
  // Snapshot the other shards' loads one lock at a time — this function
  // NEVER holds two shard locks, so it cannot deadlock against another
  // dispatcher stealing in the opposite direction.
  struct Load {
    Shard* shard;
    int64_t queued;
  };
  std::vector<Load> loads;
  loads.reserve(shards_.size());
  for (auto& sp : shards_) {
    Shard* s = sp.get();
    if (s == &thief) continue;
    int64_t queued = 0;
    {
      std::lock_guard<std::mutex> lock(s->mu);
      for (const Group& g : s->groups) {
        queued += static_cast<int64_t>(g.reqs.size());
      }
    }
    if (queued > 0) loads.push_back({s, queued});
  }
  std::sort(loads.begin(), loads.end(),
            [](const Load& a, const Load& b) { return a.queued > b.queued; });

  const TimePoint now = std::chrono::steady_clock::now();
  for (const Load& load : loads) {
    std::vector<Request> batch;
    std::vector<Request> expired;
    {
      std::lock_guard<std::mutex> lock(load.shard->mu);
      TimePoint ignored;
      // Only READY groups are stealable: a group still coalescing toward a
      // full batch keeps coalescing on its home shard.
      batch = pop_ready_locked(*load.shard, now, /*flush_any=*/false, &ignored,
                               &expired);
    }
    fail_expired(expired);  // victim's lock released; settle its misses
    if (!batch.empty()) {
      {
        std::lock_guard<std::mutex> lock(thief.mu);
        ++thief.steals;
        ++thief.batches;  // the batch executes HERE, on the thief's replica
        thief.max_batch =
            std::max(thief.max_batch, static_cast<int64_t>(batch.size()));
      }
      return batch;
    }
  }
  return {};
}

std::vector<Router::Request> Router::next_batch(Shard& shard, bool* stopped) {
  *stopped = false;
  const bool can_steal = shards_.size() > 1;
  const bool health_on = opts_.quarantine_after > 0;
  std::unique_lock<std::mutex> lock(shard.mu);
  for (;;) {
    if (shard.stop && shard.groups.empty()) {
      *stopped = true;
      return {};
    }
    const TimePoint now = std::chrono::steady_clock::now();
    TimePoint next_deadline = TimePoint::max();
    std::vector<Request> expired;
    std::vector<Request> batch = pop_ready_locked(
        shard, now, /*flush_any=*/shard.stop, &next_deadline, &expired);
    if (!batch.empty() || !expired.empty()) {
      if (!batch.empty()) {
        // Counted at POP time, not completion: stats().batches is the
        // "dispatcher picked this up" signal tests and probes key on.
        ++shard.batches;
        shard.max_batch =
            std::max(shard.max_batch, static_cast<int64_t>(batch.size()));
      }
      // Settle outside the lock: a waiter's continuation may re-enter the
      // router (submit a retry) the instant its future resolves.
      lock.unlock();
      fail_expired(expired);
      if (!batch.empty()) return batch;
      lock.lock();
      continue;  // the queue may have changed while unlocked; rescan
    }
    if (shard.stop) continue;  // re-check: drain emptied the shard

    const bool quarantined =
        health_on && shard.quarantined.load(std::memory_order_relaxed);
    if (quarantined) {
      // A quarantined replica's dispatcher owes its queue a drain (handled
      // above — choose_executor runs those batches elsewhere) and its
      // replica a probe; it does NOT take on stolen work.
      if (now >= shard.next_probe) return {};  // probe due; caller probes
      next_deadline = std::min(next_deadline, shard.next_probe);
      shard.cv.wait_until(lock, next_deadline);
      continue;
    }

    if (!shard.groups.empty()) {
      // Own work pending but not yet due: sleep to the earliest deadline
      // (a fill, a new group, or shutdown wakes us sooner).
      shard.cv.wait_until(lock, next_deadline);
      continue;
    }
    if (!can_steal) {
      shard.cv.wait(lock,
                    [&shard] { return shard.stop || !shard.groups.empty(); });
      continue;
    }
    // Empty shard, stealing enabled: poll the rest of the fleet. Fast
    // cadence while the router holds queued work anywhere (that work may go
    // ready any moment), 20x slower when fully idle.
    lock.unlock();
    std::vector<Request> stolen = try_steal(shard);
    if (!stolen.empty()) return stolen;
    const double poll_ms = total_queued_.load(std::memory_order_relaxed) > 0
                               ? kStealPollMs
                               : kStealPollMs * kIdleStealPollFactor;
    lock.lock();
    shard.cv.wait_for(lock, ms_duration(poll_ms), [&shard] {
      return shard.stop || !shard.groups.empty();
    });
  }
}

Tensor Router::run_replica(const Shard& shard, const Tensor& input,
                           Tensor& workspace) const {
  // Both failpoints sit in front of the engine so an injected fault takes
  // the exact path an engine fault would: the anonymous site for "any
  // replica", the named one to fail replica `shard.index` specifically
  // (which is how tests and fault drills quarantine one replica).
  TTSNN_FAILPOINT("router.dispatch");
  TTSNN_FAILPOINT(shard.failpoint_name.c_str());
  return shard.engine.run(input, workspace);
}

bool Router::run_batch(const Shard& exec, std::vector<Request>& batch,
                       Tensor& workspace) const {
  // Promises fulfilled so far; the catch below must only touch the rest —
  // set_exception on an already-satisfied promise throws future_error.
  size_t fulfilled = 0;
  try {
    // Stack [T, C, H, W] samples into [T, N, C, H, W]: sample n's step t
    // lands at row (t * N + n).
    const Shape& s0 = batch[0].x.shape();
    const int64_t n = static_cast<int64_t>(batch.size());
    const int64_t t_steps = s0[0];
    const int64_t chw = batch[0].x.numel() / t_steps;
    Shape in_shape{t_steps, n, s0[1], s0[2], s0[3]};
    Tensor input(in_shape);
    for (int64_t j = 0; j < n; ++j) {
      TTSNN_CHECK(batch[static_cast<size_t>(j)].x.shape() == s0,
                  "Router: a batch must share one shape, got "
                      << shape_str(batch[static_cast<size_t>(j)].x.shape())
                      << " vs " << shape_str(s0));
      const float* src = batch[static_cast<size_t>(j)].x.data();
      for (int64_t t = 0; t < t_steps; ++t) {
        std::copy(src + t * chw, src + (t + 1) * chw,
                  input.data() + (t * n + j) * chw);
      }
    }

    Tensor out = run_replica(exec, input, workspace);

    // Split [T, N, ...] back into per-sample [T, ...] tensors.
    TTSNN_CHECK(out.dim() >= 2 && out.size(0) == t_steps && out.size(1) == n,
                "Router: engine output shape " << shape_str(out.shape())
                                               << " lost the batch layout");
    const int64_t row = out.numel() / (t_steps * n);
    Shape sample_shape;
    sample_shape.push_back(t_steps);
    for (int64_t d = 2; d < out.dim(); ++d) sample_shape.push_back(out.size(d));
    for (int64_t j = 0; j < n; ++j) {
      Tensor sample(sample_shape);
      for (int64_t t = 0; t < t_steps; ++t) {
        std::copy(out.data() + (t * n + j) * row,
                  out.data() + (t * n + j + 1) * row,
                  sample.data() + t * row);
      }
      batch[static_cast<size_t>(j)].promise.set_value(std::move(sample));
      ++fulfilled;
    }
    return true;
  } catch (...) {
    // A failed run poisons the not-yet-fulfilled futures of its batch (all
    // same-shaped, per next_batch), never the router itself.
    for (size_t j = fulfilled; j < batch.size(); ++j) {
      batch[j].promise.set_exception(std::current_exception());
    }
    return false;
  }
}

Router::Shard& Router::choose_executor(Shard& home) {
  if (opts_.quarantine_after <= 0 ||
      !home.quarantined.load(std::memory_order_acquire)) {
    return home;
  }
  // Replicas share weights and the program cache, so a batch runs
  // bit-identically on any of them; index-order scan keeps it deterministic.
  for (size_t k = 1; k < shards_.size(); ++k) {
    Shard& cand =
        *shards_[(static_cast<size_t>(home.index) + k) % shards_.size()];
    if (!cand.quarantined.load(std::memory_order_acquire)) return cand;
  }
  return home;  // every replica quarantined: home is no worse than any other
}

void Router::account_run(Shard& exec, bool ok, const Shape& batched_shape) {
  bool went_quarantined = false;
  {
    std::lock_guard<std::mutex> lock(exec.mu);
    if (ok) {
      exec.consecutive_failures = 0;
      if (exec.quarantined.load(std::memory_order_relaxed)) {
        // Evidence of health beats waiting for the next probe (this path is
        // the all-quarantined fallback recovering on its own).
        exec.quarantined.store(false, std::memory_order_release);
        ++exec.readmissions;
      }
      return;
    }
    ++exec.failures;
    if (opts_.quarantine_after == 0) return;
    ++exec.consecutive_failures;
    exec.probe_shape = batched_shape;  // what the probe will re-try
    if (exec.consecutive_failures >= opts_.quarantine_after &&
        !exec.quarantined.load(std::memory_order_relaxed)) {
      exec.quarantined.store(true, std::memory_order_release);
      ++exec.quarantines;
      exec.next_probe =
          std::chrono::steady_clock::now() + ms_duration(opts_.probe_interval_ms);
      went_quarantined = true;
    }
  }
  // Wake the shard's dispatchers: their wait must now track next_probe.
  if (went_quarantined) exec.cv.notify_all();
}

void Router::maybe_probe(Shard& shard, Tensor& workspace) {
  Shape probe_shape;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    if (!shard.quarantined.load(std::memory_order_relaxed)) return;
    if (std::chrono::steady_clock::now() < shard.next_probe) return;
    ++shard.probes;
    // Pre-schedule the next attempt; a successful probe makes it moot.
    shard.next_probe =
        std::chrono::steady_clock::now() + ms_duration(opts_.probe_interval_ms);
    probe_shape = shard.probe_shape;
  }
  if (probe_shape.size() != 5) return;  // quarantined without a recorded run
  try {
    // A synthetic zeros batch of the exact shape that failed, on the
    // quarantined replica's OWN engine — through run_replica, so a still-
    // armed per-replica failpoint (or a still-broken replica) keeps it
    // quarantined. No client future is ever attached to a probe.
    Tensor zeros(probe_shape);
    (void)run_replica(shard, zeros, workspace);
  } catch (...) {
    return;  // still failing: stay quarantined until the next probe
  }
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.quarantined.store(false, std::memory_order_release);
    shard.consecutive_failures = 0;
    ++shard.readmissions;
  }
}

void Router::dispatcher_loop(Shard& shard) {
  // One workspace per dispatcher thread, handed to every run: after the first
  // batch of each shape (growing it to the largest layout seen), the planned
  // engine makes zero workspace allocations per call.
  Tensor workspace;
  for (;;) {
    bool stopped = false;
    std::vector<Request> batch = next_batch(shard, &stopped);
    if (stopped) return;
    if (batch.empty()) {
      // next_batch returned early because a re-admission probe is due.
      maybe_probe(shard, workspace);
      continue;
    }
    // A healthy shard executes its own batch; a quarantined one drains onto
    // the first healthy replica (bit-identical — shared weights + cache).
    Shard& exec = choose_executor(shard);
    const Shape& s0 = batch[0].x.shape();
    const Shape batched{s0[0], static_cast<int64_t>(batch.size()), s0[1],
                        s0[2], s0[3]};
    const bool ok = run_batch(exec, batch, workspace);
    account_run(exec, ok, batched);
  }
}

}  // namespace ttsnn::infer
