// Workload serve_int8_batch: the HTT model is briefly trained, checkpointed,
// loaded into a fresh module tree, compiled merged with int8 weights and
// served behind a default Router (2 shards, max_batch 8, max_delay 2 ms). One
// thread drives it closed-loop, keeping 16 single-sample requests outstanding
// under rotating session keys, so both shards run full int8 spike-GEMM
// batches.
//
// Every served output is compared bit-for-bit with a direct Engine::run of
// the same clip on the same engine.

#include <chrono>
#include <cstring>
#include <deque>
#include <filesystem>
#include <future>

#include "bench.h"
#include "infer/analysis.h"
#include "infer/router.h"
#include "probe.h"
#include "recipe.h"
#include "snn/loss.h"
#include "snn/profile.h"
#include "snn/serialize.h"
#include "trace.h"

namespace perfbench {

using namespace ttsnn;

namespace {

constexpr int kSetups = 3;
/// Brief training before the checkpoint: one epoch of 40 clips (2 steps),
/// enough to move the spike densities that pick the GEMM tier off init. Its
/// data seed is fixed: every --seed serves the same model, and the seed
/// varies the traffic only (clips and their order).
constexpr int64_t kBriefPerClass = 4;
constexpr uint64_t kServedModelSeed = 7;
constexpr int64_t kPoolClips = 64;    ///< distinct request clips
constexpr int64_t kOutstanding = 16;  ///< closed-loop window
constexpr int64_t kDirectBatch = 8;   ///< batch of the direct Engine::run phase
/// The measured window is cut into kSlices slices; each spends kDirectShare
/// of its time on direct Engine::run calls after its router traffic.
constexpr int kSlices = 6;
constexpr double kDirectShare = 0.25;
constexpr int kMinDirectRuns = 3;  ///< per slice
/// Collector poll while the oldest request is unresolved: bounds how late a
/// resolution other than the oldest one is observed.
constexpr auto kPoll = std::chrono::microseconds(200);

infer::CompileOptions served_options() {
  infer::CompileOptions o;
  o.merge_tt = true;
  o.weight_dtype = WeightDtype::kInt8;
  return o;
}

/// Every shape the router can batch: one to max_batch clips.
std::vector<Shape> warm_shapes(const Recipe& r) {
  std::vector<Shape> shapes;
  for (int64_t n = 1; n <= infer::RouterOptions{}.max_batch; ++n) {
    shapes.push_back({r.timesteps, n, 2, r.size, r.size});
  }
  return shapes;
}

/// One set-up, start to finish, and its parts.
struct Served {
  std::unique_ptr<infer::Engine> engine;
  Setup trained;  ///< the briefly trained model and its data
  double setup_s = 0.0, factorize_ms = 0.0, save_ms = 0.0, load_ms = 0.0,
         compile_ms = 0.0, program_ms = 0.0;
};

Served set_up(const Recipe& r, const std::string& ckpt) {
  Served s;
  const double t0 = now_s();
  Recipe brief = r;
  brief.train_per_class = kBriefPerClass;
  s.trained = make_setup(brief, kServedModelSeed);
  s.factorize_ms = 1e3 * s.trained.factorize_s;
  Trainer(*s.trained.model, *s.trained.train, *s.trained.test,
          train_config(brief, kServedModelSeed))
      .run_epoch(0);

  double t = now_s();
  save_parameters(*s.trained.model, ckpt);
  s.save_ms = 1e3 * (now_s() - t);
  ModulePtr served = make_skeleton(r);
  t = now_s();
  load_parameters(*served, ckpt);
  s.load_ms = 1e3 * (now_s() - t);
  t = now_s();
  s.engine = std::make_unique<infer::Engine>(infer::compile(*served, served_options()));
  s.compile_ms = 1e3 * (now_s() - t);
  t = now_s();
  const std::vector<Shape> shapes = warm_shapes(r);
  for (const Shape& shape : shapes) s.engine->program(shape);
  s.program_ms = 1e3 * (now_s() - t) / static_cast<double>(shapes.size());
  s.setup_s = now_s() - t0;
  return s;
}

/// The request inputs: seeded clips and their reference outputs, one direct
/// batch-1 Engine::run per clip, flattened.
struct Pool {
  std::vector<Tensor> clips;
  std::vector<Tensor> refs;
  std::vector<int64_t> labels;
};

Tensor flat(const Tensor& t) { return t.reshape({t.numel()}); }

Pool make_pool(const Recipe& r, const infer::Engine& engine, uint64_t seed) {
  Pool p;
  p.clips = make_clips(make_events(r, kPoolClips / r.classes + 1, r.size,
                                   derive_seed(seed, kServeClips)),
                       kPoolClips, r.timesteps, &p.labels);
  for (const Tensor& clip : p.clips) {
    const Shape& s = clip.shape();
    p.refs.push_back(flat(engine.run(clip.reshape({s[0], 1, s[1], s[2], s[3]}))));
  }
  return p;
}

/// Everything one measured window saw: router slices and direct-run slices.
struct Window {
  std::vector<double> latency_ms;  ///< resolved minus sent
  std::vector<double> submit_us;   ///< time inside Router::submit
  std::vector<double> direct_ms;   ///< direct runs at kDirectBatch
  std::vector<double> b1_ms, b8_ms;  ///< traced window: direct runs at 1 and 8
  int64_t sent = 0, served = 0, failed = 0;  ///< router requests
  int64_t direct_failed = 0;                  ///< direct runs with wrong rows
  double router_s = 0.0;  ///< wall time of the router slices
  double cpu_per_wall = 0.0, steal = 0.0;
  std::vector<double> host_ms;  ///< host_probe_ms() before every slice
  infer::RouterStats before, after;
};

struct InFlight {
  std::future<Tensor> fut;
  size_t clip = 0;
  double sent = 0.0;
  int64_t id = 0;
};

/// Settles every resolved request in `pending` (all of them once `drain`):
/// records latency, checks the output bits against the clip's reference.
void settle(std::deque<InFlight>& pending, const Pool& pool, bool drain,
            Window& win, Result& res) {
  for (auto it = pending.begin(); it != pending.end();) {
    if (!drain && it->fut.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
      ++it;
      continue;
    }
    try {
      const Tensor out = it->fut.get();
      const double resolved = now_s();
      win.latency_ms.push_back(1e3 * (resolved - it->sent));
      if (Tracer* tracer = Tracer::current()) {
        tracer->record("bench.request", it->sent, resolved, it->id);
      }
      if (!bit_equal(flat(out), pool.refs[it->clip])) {
        ++win.failed;
        res.fail("request " + std::to_string(it->id) +
                 ": routed output differs from direct Engine::run");
      } else {
        ++win.served;
      }
    } catch (const std::exception& e) {
      ++win.failed;
      res.fail("request " + std::to_string(it->id) + " failed: " + e.what());
    }
    it = pending.erase(it);
  }
}

/// Router::submit under a rotating session key, so one shape spreads over
/// both shards.
std::future<Tensor> submit(infer::Router& router, const Pool& pool, size_t clip,
                           int64_t id, Window& win) {
  const double t0 = now_s();
  std::future<Tensor> fut;
  {
    ScopedSpan span("infer.router.submit", id);
    fut = router.submit(pool.clips[clip],
                        {.session = static_cast<uint64_t>(id % kOutstanding)});
  }
  win.submit_us.push_back(1e6 * (now_s() - t0));
  return fut;
}

/// Closed loop: one thread keeps kOutstanding requests in flight for
/// `seconds`, then drains. `next` walks `order` across slices.
void closed_loop(infer::Router& router, const Pool& pool,
                 const std::vector<size_t>& order, double seconds, int64_t& next,
                 Window& win, Result& res) {
  std::deque<InFlight> pending;
  const double t0 = now_s();
  while (now_s() - t0 < seconds) {
    while (static_cast<int64_t>(pending.size()) < kOutstanding) {
      const int64_t id = next++;
      const size_t clip = order[static_cast<size_t>(id) % order.size()];
      ++win.sent;
      try {
        const double sent = now_s();
        pending.push_back({submit(router, pool, clip, id, win), clip, sent, id});
      } catch (const std::exception& e) {
        ++win.failed;
        res.fail("submit " + std::to_string(id) + " threw: " + e.what());
        break;
      }
    }
    if (pending.empty()) continue;
    pending.front().fut.wait_for(kPoll);
    settle(pending, pool, /*drain=*/false, win, res);
  }
  settle(pending, pool, /*drain=*/true, win, res);
  win.router_s += now_s() - t0;
}

/// Direct Engine::run at `batch` on seeded pool clips for `seconds` (at least
/// kMinDirectRuns runs), appended to `ms`; checks every output row's bits and
/// counts the runs that differ in `failed`.
void direct_runs(const infer::Engine& engine, const Pool& pool, int64_t batch,
                 double seconds, Rng& rng, std::vector<double>& ms, int64_t& failed,
                 Result& res) {
  const double start = now_s();
  for (int runs = 0; runs < kMinDirectRuns || now_s() - start < seconds; ++runs) {
    std::vector<size_t> which;
    for (int64_t b = 0; b < batch; ++b) {
      which.push_back(static_cast<size_t>(rng.index(static_cast<int64_t>(pool.clips.size()))));
    }
    const Tensor x = stack_clips(pool.clips, which);
    Tensor out;
    const double t0 = now_s();
    {
      ScopedSpan span(batch == 1 ? "infer.engine.run_b1" : "infer.engine.run_b8");
      out = engine.run(x);
    }
    ms.push_back(1e3 * (now_s() - t0));
    ++res.attempted;
    // out: [T, batch, classes]; row b of every timestep is one sample.
    const Shape& os = out.shape();
    const int64_t row = os[2];
    bool ok = true;
    for (int64_t b = 0; b < batch && ok; ++b) {
      const float* ref = pool.refs[which[static_cast<size_t>(b)]].data();
      for (int64_t t = 0; t < os[0] && ok; ++t) {
        ok = std::memcmp(out.data() + (t * batch + b) * row, ref + t * row,
                         sizeof(float) * static_cast<size_t>(row)) == 0;
      }
    }
    if (!ok) {
      ++failed;
      res.fail("direct batch-" + std::to_string(batch) + " run differs from batch-1 runs");
    }
  }
}

/// One measured window of `seconds`, cut into kSlices slices so that slow
/// swings of host speed land on every metric alike. Each slice is router
/// traffic followed by direct Engine::run calls (at kDirectBatch; at batches
/// 1 and 8 when traced). `salt` keeps two windows of one run on different
/// request streams.
Window measure(infer::Router& router, const infer::Engine& engine, const Pool& pool,
               uint64_t seed, uint64_t salt, double seconds, bool traced, Result& res) {
  Window win;
  win.before = router.stats();
  const double slice = seconds / kSlices;
  const double direct = kDirectShare * slice;
  const std::vector<size_t> order =
      make_request_order(derive_seed(seed, salt), 4096, kPoolClips);
  Rng direct_rng(derive_seed(seed, salt + 1));
  int64_t next_id = 0;
  PhaseClock clock;
  for (int k = 0; k < kSlices; ++k) {
    win.host_ms.push_back(host_probe_ms());
    closed_loop(router, pool, order, slice - direct, next_id, win, res);
    if (traced) {
      direct_runs(engine, pool, 1, direct / 2, direct_rng, win.b1_ms, win.direct_failed, res);
      direct_runs(engine, pool, 8, direct / 2, direct_rng, win.b8_ms, win.direct_failed, res);
    } else {
      direct_runs(engine, pool, kDirectBatch, direct, direct_rng, win.direct_ms,
                  win.direct_failed, res);
    }
  }
  win.cpu_per_wall = clock.cpu_per_wall();
  win.steal = clock.steal();
  win.after = router.stats();
  res.attempted += win.sent;
  return win;
}

void print_window(const char* label, const Window& win) {
  const Tail tail = supported_tail(win.latency_ms);
  std::printf("%s: sent %lld, served %lld, failed %lld in %.2f s of router slices "
              "(%.1f samples/s); latency %.3f ms (p50 %.3f)",
              label, static_cast<long long>(win.sent), static_cast<long long>(win.served),
              static_cast<long long>(win.failed), win.router_s,
              static_cast<double>(win.served) / win.router_s,
              trimmed_mean(win.latency_ms), median(win.latency_ms));
  if (tail.q > 0) {
    std::printf(", p%g %.3f ms (%lld beyond)", 100 * tail.q, tail.value,
                static_cast<long long>(tail.beyond));
  }
  std::printf("; cpu/wall %.2f, steal %.3f, host probe %.3f ms\n", win.cpu_per_wall,
              win.steal, median(win.host_ms));
  if (!win.direct_ms.empty()) {
    std::printf("%s: direct Engine::run at batch %lld: %.3f ms (quartiles "
                "%.3f-%.3f) over %zu runs, failed %lld\n",
                label, static_cast<long long>(kDirectBatch), trimmed_mean(win.direct_ms),
                percentile(win.direct_ms, 0.25), percentile(win.direct_ms, 0.75),
                win.direct_ms.size(), static_cast<long long>(win.direct_failed));
  } else {
    std::printf("%s: direct Engine::run at batches 1 and 8: %zu and %zu runs, failed %lld\n",
                label, win.b1_ms.size(), win.b8_ms.size(),
                static_cast<long long>(win.direct_failed));
  }
}

double served_loss(const Pool& pool, int64_t timesteps) {
  // Reference outputs are bitwise the served ones (checked per request).
  const int64_t classes = pool.refs[0].numel() / timesteps;
  const int64_t n = static_cast<int64_t>(pool.clips.size());
  Tensor logits = Tensor::empty({timesteps, n, classes});
  for (int64_t b = 0; b < n; ++b) {
    for (int64_t t = 0; t < timesteps; ++t) {
      std::memcpy(logits.data() + (t * n + b) * classes,
                  pool.refs[static_cast<size_t>(b)].data() + t * classes,
                  sizeof(float) * static_cast<size_t>(classes));
    }
  }
  return cross_entropy_sum_loss(logits, pool.labels).value;
}

}  // namespace

Result run_serve(const Args& args) {
  const Recipe r;
  Result res;
  const std::string ckpt = args.out_dir + "/ckpt-" + args.workload + "-" +
                           std::to_string(args.seed) + ".bin";

  std::vector<double> setup_s, factorize_ms, save_ms, load_ms, compile_ms, program_ms;
  Served s;
  for (int i = 0; i < kSetups; ++i) {
    s = {};  // one set-up alive at a time, so peak_rss_mb counts one
    release_freed_memory();
    s = set_up(r, ckpt);
    setup_s.push_back(s.setup_s);
    factorize_ms.push_back(s.factorize_ms);
    save_ms.push_back(s.save_ms);
    load_ms.push_back(s.load_ms);
    compile_ms.push_back(s.compile_ms);
    program_ms.push_back(s.program_ms);
  }
  std::printf("setup: median %.3f s of %d (factorize %.1f ms, save %.2f ms, "
              "load %.2f ms, compile %.1f ms, program %.3f ms x %lld shapes)\n",
              median(setup_s), kSetups, median(factorize_ms), median(save_ms),
              median(load_ms), median(compile_ms), median(program_ms),
              static_cast<long long>(infer::RouterOptions{}.max_batch));

  const infer::Engine& engine = *s.engine;
  const Pool pool = make_pool(r, engine, args.seed);
  Module& trained = *s.trained.model;
  trained.set_training(false);
  {
    // The checkpoint round trip serves the model that was trained: the exact
    // f32 plan of the loaded tree reproduces eval Module::forward bitwise.
    // One batch of kDirectBatch clips, so that the check does not set the
    // run's peak_rss_mb.
    ModulePtr loaded = make_skeleton(r);
    load_parameters(*loaded, ckpt);
    infer::CompileOptions exact;
    exact.merge_tt = false;
    const Tensor batch = stack_clips(pool.clips, first_n(kDirectBatch));
    ++res.attempted;
    if (!bit_equal(trained.forward(batch), infer::compile(*loaded, exact).run(batch))) {
      res.fail("the loaded checkpoint differs from the trained model it was saved from");
    }
  }
  std::filesystem::remove(ckpt);
  const std::vector<Tensor> held = make_clips(*s.trained.test, r.batch, r.timesteps, nullptr);
  const SpikeProfile profile = profile_spikes(trained, stack_clips(held, first_n(held.size())));

  infer::Router router(engine);
  {
    // Warm the dispatchers and the batch shapes the closed loop forms. Its
    // requests are checked and counted like every other.
    Window warm;
    int64_t next = 0;
    closed_loop(router, pool, make_request_order(derive_seed(args.seed, 99), 64, kPoolClips),
                0.2, next, warm, res);
    res.attempted += warm.sent;
    std::printf("warm-up: sent %lld, served %lld, failed %lld\n",
                static_cast<long long>(warm.sent), static_cast<long long>(warm.served),
                static_cast<long long>(warm.failed));
  }

  // A traced run measures half its window untraced (the overhead reference)
  // and half traced; an untraced run measures the whole window.
  const double seconds = args.trace ? args.seconds / 2 : args.seconds;
  const Window plain = measure(router, engine, pool, args.seed, 1000, seconds,
                               /*traced=*/false, res);
  print_window("plain", plain);
  const double latency = trimmed_mean(plain.latency_ms);

  if (!args.trace) {
    res.add("setup_s", "s", median(setup_s));
    res.add("peak_rss_mb", "MB", peak_rss_mb());
    res.add("latency_ms", "ms", latency);
    res.add("batch_time_ms", "ms", trimmed_mean(plain.direct_ms));
    res.add("loss", "nats", served_loss(pool, r.timesteps));
    return res;
  }

  Tracer tracer;
  tracer.install();
  const Window traced = measure(router, engine, pool, args.seed, 2000, seconds,
                                /*traced=*/true, res);
  Tracer::uninstall();
  print_window("traced", traced);

  const double run_b1 = trimmed_mean(traced.b1_ms), run_b8 = trimmed_mean(traced.b8_ms);
  const infer::RouterStats& a = plain.after;
  const infer::RouterStats& b = plain.before;
  const double batches = static_cast<double>(a.batches - b.batches);
  const double mean_batch =
      batches > 0 ? static_cast<double>(a.requests - b.requests) / batches : 0.0;
  // Engine::run time at the observed mean batch, linear between 1 and 8.
  const double run_at_mean = run_b1 + (run_b8 - run_b1) * (mean_batch - 1.0) / 7.0;
  int64_t fused = 0, quantized = 0;
  for (const infer::Op& op : engine.ops()) {
    using K = infer::Op::Kind;
    fused += op.kind == K::kConvLif || op.kind == K::kAffineLif ||
             op.kind == K::kAddLif || op.kind == K::kAffineAdd;
    quantized += op.plane.quantized() || op.half_plane.quantized();
  }
  const Shape main_shape = {r.timesteps, kDirectBatch, 2, r.size, r.size};
  const Tail tail = supported_tail(plain.latency_ms);
  std::printf("router: mean batch %.2f; Engine::run b1 %.3f ms, b8 %.3f ms, at the "
              "mean batch %.3f ms; submit median %.1f us\n",
              mean_batch, run_b1, run_b8, run_at_mean, median(traced.submit_us));

  res.add("snn.checkpoint_save_ms", "ms", median(save_ms));
  res.add("snn.checkpoint_load_ms", "ms", median(load_ms));
  res.add("nn.spike_density", "fraction", profile.mean_density);
  res.add("core.synops_per_sample", "ops",
          inference_synops(s.trained.stats, profile.lif_densities, r.timesteps).total());
  res.add("tt.factorize_ms", "ms", median(factorize_ms));
  res.add("util.cpu_per_wall", "cores", plain.cpu_per_wall);
  res.add("infer.compile_ms", "ms", median(compile_ms));
  res.add("infer.program_ms", "ms", median(program_ms));
  res.add("infer.engine.run_b1_ms", "ms", run_b1);
  res.add("infer.engine.run_b8_ms", "ms", run_b8);
  res.add("infer.router.submit_us", "us", median(traced.submit_us));
  res.add("infer.router.mean_batch", "samples", mean_batch);
  res.add("infer.router.batch_fill", "fraction",
          mean_batch / static_cast<double>(infer::RouterOptions{}.max_batch));
  res.add("infer.router.queue_ms", "ms", latency - run_at_mean);
  res.add("infer.router.steals", "count", static_cast<double>(a.steals - b.steals));
  res.add("infer.router.failures", "count",
          static_cast<double>((a.shed - b.shed) + (a.deadline_misses - b.deadline_misses) +
                              (a.cancelled - b.cancelled) +
                              (a.replica_failures - b.replica_failures)));
  res.add("infer.ops", "count", static_cast<double>(engine.num_ops()));
  res.add("infer.fused_ops", "count", static_cast<double>(fused));
  res.add("infer.quantized_ops", "count", static_cast<double>(quantized));
  res.add("infer.weight_bytes", "bytes", static_cast<double>(engine.weight_bytes()));
  res.add("infer.workspace_bytes", "bytes",
          4.0 * static_cast<double>(engine.memory_plan(main_shape)->total_floats));
  res.add("bench.tail_ms", "ms", tail.value);
  res.add("bench.tail_pct", "%", 100.0 * tail.q);
  res.add("bench.tail_beyond", "count", static_cast<double>(tail.beyond));
  res.add("bench.steal_frac", "fraction", plain.steal);
  res.add("bench.host_probe_ms", "ms", median(plain.host_ms));
  res.add("bench.trace_overhead", "ratio", trimmed_mean(traced.latency_ms) / latency);
  add_model_metrics(res, s.trained.dense_stats, s.trained.stats, r.timesteps);
  write_trace(tracer, args);
  return res;
}

}  // namespace perfbench
