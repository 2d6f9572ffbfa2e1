// Tests for the sharded serving router: routed outputs must be bit-identical
// to direct Engine::run, sharded or on one shard; a burst must coalesce into
// batches; shape groups must never head-of-line-block each other (a full
// batch dispatches past an older, not-yet-due foreign group, and a shape-A
// flood cannot inflate shape-B latency when the shapes live on different
// shards); flush deadlines must ride with each group's own oldest
// arrival rather than being re-armed by other groups' flushes; and submit
// must reject zero-sized samples up front instead of letting the stacking
// arithmetic divide by zero in a dispatcher. The QoS layer rides the same
// suite: signature-mismatched samples fail at submit (synchronously, typed),
// admission control sheds over-budget submissions with AdmissionError,
// higher priority classes dispatch strictly before lower ones among ready
// groups, and an idle shard steals ready work bit-identically.

#include <atomic>
#include <chrono>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/factorize.h"
#include "core/models.h"
#include "infer/engine.h"
#include "infer/router.h"
#include "tensor/ops.h"
#include "util/failpoint.h"

namespace ttsnn {
namespace {

using std::chrono::steady_clock;

// The wall-clock-bounded tests below assert ordering through timing; under
// ThreadSanitizer (the CI tsan job) every Engine::run is several times
// slower, so the coalescing delays — and with them every derived bound —
// scale up to keep the margins about instrumentation-independent.
#if defined(__SANITIZE_THREAD__)
constexpr double kTimeScale = 4.0;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
constexpr double kTimeScale = 4.0;
#else
constexpr double kTimeScale = 1.0;
#endif
#else
constexpr double kTimeScale = 1.0;
#endif

double ms_since(const steady_clock::time_point& t0) {
  return std::chrono::duration<double, std::milli>(steady_clock::now() - t0)
      .count();
}

/// One engine for the whole suite: a small factorized MS-ResNet18 with real
/// BN statistics, compiled once (Engine is copyable; the router clones it per
/// shard anyway).
const infer::Engine& test_engine() {
  static const infer::Engine engine = [] {
    Rng rng(31);
    ModelConfig cfg;
    cfg.in_channels = 3;
    cfg.num_classes = 4;
    cfg.base_width = 8;
    cfg.timesteps = 4;
    ModulePtr net = make_ms_resnet18(cfg, rng);
    FactorizeOptions fopts;
    fopts.mode = TTMode::kPTT;
    fopts.use_vbmf = false;
    fopts.rank_fraction = 0.5;
    factorize_network(*net, fopts, rng);
    net->set_training(true);
    for (int i = 0; i < 2; ++i) {
      net->forward(Tensor::uniform({4, 2, 3, 8, 8}, rng));
    }
    net->clear_cache();
    net->set_training(false);
    return infer::compile(*net);
  }();
  return engine;
}

/// Session key that lands `shape` on shard `want` — the hash is deterministic,
/// so a short scan always finds one for any realistic shard count.
uint64_t session_on_shard(const infer::Router& router, const Shape& shape,
                          int want) {
  for (uint64_t s = 0; s < 1024; ++s) {
    if (router.shard_for(shape, s) == want) return s;
  }
  ADD_FAILURE() << "no session maps " << shape_str(shape) << " to shard "
                << want;
  return 0;
}

// Sharded, and the single-replica deployment with two dispatchers
// overlapping batches on one shard.
TEST(RouterTest, RoutedOutputsBitIdenticalToDirectEngineRuns) {
  const infer::Engine& engine = test_engine();
  for (const infer::RouterOptions& opts :
       {infer::RouterOptions{.num_shards = 3, .max_batch = 4,
                             .max_delay_ms = 5.0},
        infer::RouterOptions{.num_shards = 1, .max_batch = 4,
                             .max_delay_ms = 5.0,
                             .dispatchers_per_shard = 2}}) {
    SCOPED_TRACE("num_shards=" + std::to_string(opts.num_shards));
    infer::Router router(engine, opts);

    Rng rng(41);
    const std::vector<Shape> shapes = {{4, 3, 8, 8}, {4, 3, 12, 12},
                                       {4, 3, 10, 10}};
    std::vector<Tensor> samples;
    std::vector<std::future<Tensor>> futures;
    for (int i = 0; i < 18; ++i) {
      samples.push_back(
          Tensor::uniform(shapes[static_cast<size_t>(i) % 3], rng));
      futures.push_back(
          router.submit(samples.back(), /*session=*/static_cast<uint64_t>(i)));
    }
    for (size_t i = 0; i < futures.size(); ++i) {
      Tensor got = futures[i].get();
      const Shape& s = samples[i].shape();
      Tensor want = engine.run(samples[i].reshape({s[0], 1, s[1], s[2], s[3]}));
      Tensor want_flat = want.reshape({want.size(0), -1});
      Tensor got_flat = got.reshape({got.size(0), -1});
      ASSERT_EQ(got_flat.shape(), want_flat.shape());
      EXPECT_EQ(max_abs_diff(got_flat, want_flat), 0.0) << "request " << i;
    }
    infer::RouterStats stats = router.stats();
    EXPECT_EQ(stats.requests, 18);
    EXPECT_GE(stats.batches, 3);  // three shape groups can never share a batch
  }
}

TEST(RouterTest, CoalescesBurstsIntoBatches) {
  const infer::Engine& engine = test_engine();
  // A generous deadline: the dispatcher should fill whole batches from a
  // burst instead of dribbling out one request at a time.
  infer::Router router(engine, {.num_shards = 1, .max_batch = 4,
                                .max_delay_ms = 200.0});

  Rng rng(20);
  std::vector<std::future<Tensor>> futures;
  for (int i = 0; i < 8; ++i) {
    futures.push_back(router.submit(Tensor::uniform({4, 3, 8, 8}, rng)));
  }
  for (auto& f : futures) f.get();
  const infer::RouterStats stats = router.stats();
  EXPECT_EQ(stats.requests, 8);
  EXPECT_LE(stats.batches, 4);  // mean batch >= 2: coalescing happened
  EXPECT_GE(stats.max_batch, 2);
}

// Regression for the stacking divide-by-zero: a [0, C, H, W] (or any
// zero-extent) sample used to pass the dim()==4 check, reach the dispatcher,
// and crash the whole process at `numel / t_steps`. It must now fail the one
// submit call, and the server must keep serving.
TEST(RouterTest, SubmitRejectsZeroSizedDims) {
  const infer::Engine& engine = test_engine();
  infer::Router router(engine, {.num_shards = 2});

  EXPECT_THROW(router.submit(Tensor(Shape{0, 3, 8, 8})), Error);
  EXPECT_THROW(router.submit(Tensor(Shape{4, 0, 8, 8})), Error);
  EXPECT_THROW(router.submit(Tensor(Shape{4, 3, 0, 8})), Error);
  EXPECT_THROW(router.submit(Tensor(Shape{4, 3, 8, 0})), Error);
  EXPECT_THROW(router.submit(Tensor(Shape{4, 3, 8})), Error);

  Rng rng(43);
  Tensor ok = router.infer(Tensor::uniform({4, 3, 8, 8}, rng));
  EXPECT_EQ(ok.size(0), 4);
  EXPECT_EQ(router.stats().requests, 1);  // rejected submits never counted
}

// The PR-2 batch-stacking hazard: the single-queue server slept on the FRONT
// request's deadline, so a full batch of another shape sat ready behind a
// lone, not-yet-due request. Groups are now independent: the full group
// dispatches immediately; the lone request still flushes on ITS deadline —
// carried from its own arrival, not re-armed when the other group flushes.
TEST(RouterTest, FullGroupDispatchesPastAnOlderWaitingGroup) {
  const infer::Engine& engine = test_engine();
  const double kDelayMs = 250.0 * kTimeScale;
  infer::Router router(engine, {.num_shards = 1, .max_batch = 4,
                                .max_delay_ms = kDelayMs});

  Rng rng(44);
  const auto t0 = steady_clock::now();
  // The older group first: one request that cannot fill a batch.
  std::future<Tensor> lone = router.submit(Tensor::uniform({4, 3, 8, 8}, rng));
  // Then a burst that fills a whole batch of a different shape.
  std::vector<std::future<Tensor>> burst;
  for (int i = 0; i < 4; ++i) {
    burst.push_back(router.submit(Tensor::uniform({4, 3, 12, 12}, rng)));
  }
  for (auto& f : burst) f.get();
  const double burst_ms = ms_since(t0);
  lone.get();
  const double lone_ms = ms_since(t0);

  // The full batch must not wait out the lone request's quarter second.
  EXPECT_LT(burst_ms, kDelayMs / 2.0) << "full batch waited on a foreign group";
  // The lone request flushes on its own original deadline: after it, but
  // well before a second, re-armed delay would have expired.
  EXPECT_GE(lone_ms, 0.8 * kDelayMs);
  EXPECT_LT(lone_ms, 1.9 * kDelayMs) << "group deadline was re-armed";
}

// A partial pop leaves the tail of a group behind; the tail's deadline must
// stay anchored to the tail requests' own arrivals.
TEST(RouterTest, PartialPopKeepsTailArrivals) {
  const infer::Engine& engine = test_engine();
  const double kDelayMs = 200.0 * kTimeScale;
  infer::Router router(engine, {.num_shards = 1, .max_batch = 2,
                                .max_delay_ms = kDelayMs});

  Rng rng(45);
  const auto t0 = steady_clock::now();
  std::vector<std::future<Tensor>> futures;
  for (int i = 0; i < 3; ++i) {
    futures.push_back(router.submit(Tensor::uniform({4, 3, 8, 8}, rng)));
  }
  futures[0].get();
  futures[1].get();
  const double full_ms = ms_since(t0);
  futures[2].get();
  const double tail_ms = ms_since(t0);

  EXPECT_LT(full_ms, kDelayMs / 2.0);  // the full pair never waits
  // The tail request arrived at ~t0, so it flushes around ONE delay after
  // t0 — not one delay after the first batch's flush plus another.
  EXPECT_GE(tail_ms, 0.8 * kDelayMs);
  EXPECT_LT(tail_ms, 1.9 * kDelayMs) << "tail deadline was re-armed";
  EXPECT_EQ(router.stats().batches, 2);
}

// The acceptance scenario: a flood of shape-A requests on one shard must not
// inflate shape-B latency on another — the old single-queue server serialized
// every shape behind the front group's deadline and engine run.
TEST(RouterTest, ShapeFloodDoesNotBlockOtherShapesAcrossShards) {
  const infer::Engine& engine = test_engine();
  const double kDelayMs = 40.0 * kTimeScale;
  constexpr int kProbes = 10;
  const Shape shape_a{4, 3, 16, 16};
  const Shape shape_b{4, 3, 8, 8};

  infer::Router router(engine, {.num_shards = 2, .max_batch = 8,
                                .max_delay_ms = kDelayMs,
                                .dispatchers_per_shard = 1});
  const uint64_t session_a = session_on_shard(router, shape_a, 0);
  const uint64_t session_b = session_on_shard(router, shape_b, 1);

  Rng rng(46);
  Tensor probe = Tensor::uniform(shape_b, rng);
  Tensor probe_ref =
      engine.run(probe.reshape({4, 1, shape_b[1], shape_b[2], shape_b[3]}));

  // Isolated: sequential probes, each riding out the full coalescing delay.
  auto probe_p99 = [&] {
    std::vector<double> lat;
    for (int i = 0; i < kProbes; ++i) {
      const auto t0 = steady_clock::now();
      Tensor out = router.infer(probe, session_b);
      lat.push_back(ms_since(t0));
      EXPECT_EQ(max_abs_diff(out.reshape({4, -1}), probe_ref.reshape({4, -1})),
                0.0);
    }
    std::sort(lat.begin(), lat.end());
    return lat[lat.size() - 1];  // max: n < 100, so nearest-rank p99 is max
  };
  const double isolated_p99 = probe_p99();

  // Flood shard 0 with shape-A traffic from closed-loop clients while the
  // probes repeat on shard 1.
  std::atomic<bool> stop_flood{false};
  std::atomic<int64_t> flooded{0};
  std::vector<std::thread> flood;
  for (int c = 0; c < 6; ++c) {
    flood.emplace_back([&, c] {
      Rng crng(100 + static_cast<uint64_t>(c));
      Tensor x = Tensor::uniform(shape_a, crng);
      while (!stop_flood.load(std::memory_order_relaxed)) {
        router.infer(x, session_a);
        flooded.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  const double flooded_p99 = probe_p99();
  stop_flood.store(true);
  for (std::thread& t : flood) t.join();

  EXPECT_GT(flooded.load(), 0) << "flood never ran";
  // The sharded router keeps B's latency at its own coalescing delay; the
  // old single-queue server serialized B behind every A batch.
  EXPECT_LT(flooded_p99, 2.0 * isolated_p99)
      << "isolated p99 " << isolated_p99 << " ms, flooded p99 " << flooded_p99
      << " ms";
}

// A sustained flood that keeps one shape group permanently full must not
// starve an expired group on the SAME shard: among ready groups the
// dispatcher serves the one whose front request has waited longest, and the
// flood's front stays fresh (it keeps being consumed) while the lone
// request's front only ages.
TEST(RouterTest, ExpiredGroupNotStarvedByFullGroupFlood) {
  const infer::Engine& engine = test_engine();
  const double kDelayMs = 50.0 * kTimeScale;
  infer::Router router(engine, {.num_shards = 1, .max_batch = 2,
                                .max_delay_ms = kDelayMs,
                                .dispatchers_per_shard = 1});

  Rng rng(49);
  const Shape flood_shape{4, 3, 8, 8};
  // Enough closed-loop clients that the flood group refills to max_batch
  // before each dispatch completes, staying "full" on every scan.
  std::atomic<bool> stop_flood{false};
  std::vector<std::thread> flood;
  for (int c = 0; c < 6; ++c) {
    flood.emplace_back([&, c] {
      Rng crng(200 + static_cast<uint64_t>(c));
      Tensor x = Tensor::uniform(flood_shape, crng);
      while (!stop_flood.load(std::memory_order_relaxed)) {
        router.infer(x);
      }
    });
  }
  // Let the flood reach steady state, then probe with a different shape
  // whose batch can never fill.
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
      2.0 * kDelayMs));
  const auto t0 = steady_clock::now();
  Tensor probe_out = router.infer(Tensor::uniform({4, 3, 12, 12}, rng));
  const double probe_ms = ms_since(t0);
  stop_flood.store(true);
  for (std::thread& t : flood) t.join();

  EXPECT_EQ(probe_out.size(0), 4);
  // The probe flushes soon after ITS deadline; starvation would hold it
  // until the flood stops.
  EXPECT_LT(probe_ms, 6.0 * kDelayMs)
      << "lone request starved behind a full-group flood";
}

TEST(RouterTest, SessionKeysSpreadAHotShapeAcrossShards) {
  const infer::Engine& engine = test_engine();
  infer::Router router(engine, {.num_shards = 4, .max_batch = 4,
                                .max_delay_ms = 2.0});
  const Shape shape{4, 3, 8, 8};

  // shard_for is deterministic and in range.
  for (uint64_t s = 0; s < 64; ++s) {
    const int shard = router.shard_for(shape, s);
    EXPECT_GE(shard, 0);
    EXPECT_LT(shard, router.num_shards());
    EXPECT_EQ(shard, router.shard_for(shape, s));
  }

  Rng rng(47);
  std::vector<std::future<Tensor>> futures;
  for (uint64_t s = 0; s < 32; ++s) {
    futures.push_back(router.submit(Tensor::uniform(shape, rng), s));
  }
  for (auto& f : futures) f.get();

  infer::RouterStats stats = router.stats();
  EXPECT_EQ(stats.requests, 32);
  ASSERT_EQ(stats.shard_requests.size(), 4U);
  ASSERT_EQ(stats.shard_batches.size(), 4U);
  int64_t sum_requests = 0;
  int64_t sum_batches = 0;
  int shards_hit = 0;
  for (size_t i = 0; i < 4; ++i) {
    sum_requests += stats.shard_requests[i];
    sum_batches += stats.shard_batches[i];
    if (stats.shard_requests[i] > 0) ++shards_hit;
  }
  EXPECT_EQ(sum_requests, stats.requests);
  EXPECT_EQ(sum_batches, stats.batches);
  EXPECT_GE(shards_hit, 2) << "32 sessions all hashed onto one shard";
}

// Regression: a sample the compiled model can NEVER serve (here a channel
// count the weights don't have) used to queue, wait out its deadline, and
// fail deep inside a dispatcher with an engine-internal message. It must now
// fail the submit call itself — synchronously, with a labeled error — and
// the router must keep serving.
TEST(RouterTest, SubmitRejectsSignatureMismatchSynchronously) {
  const infer::Engine& engine = test_engine();
  infer::Router router(engine, {.num_shards = 2});

  // The model takes 3 input channels; 5 can never run.
  try {
    router.submit(Tensor(Shape{4, 5, 8, 8}));
    FAIL() << "channel-mismatched sample was accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("signature"), std::string::npos)
        << e.what();
  }

  Rng rng(50);
  Tensor ok = router.infer(Tensor::uniform({4, 3, 8, 8}, rng));
  EXPECT_EQ(ok.size(0), 4);
  EXPECT_EQ(router.stats().requests, 1);  // rejected submits never counted
}

// Admission control: once a shard's queued bytes exceed the budget, submit
// sheds with a *typed* AdmissionError (so callers can distinguish "back off"
// from a real failure), the shed is counted, and the queued requests still
// complete. Deterministic: a huge deadline and a large max_batch keep the
// queued group un-ready until shutdown drains it.
TEST(RouterTest, AdmissionControlShedsOverBudgetAndTracksClassDepth) {
  const infer::Engine& engine = test_engine();
  const Shape shape{4, 3, 8, 8};
  const int64_t sample_bytes = 4 * 3 * 8 * 8 * static_cast<int64_t>(sizeof(float));
  std::vector<std::future<Tensor>> queued;
  {
    infer::Router router(engine,
                         {.num_shards = 1, .max_batch = 8,
                          .max_delay_ms = 60000.0,
                          .queue_bytes = 2 * sample_bytes});
    Rng rng(51);
    queued.push_back(router.submit(Tensor::uniform(shape, rng), 0,
                                   infer::Priority::kInteractive));
    queued.push_back(router.submit(Tensor::uniform(shape, rng), 0,
                                   infer::Priority::kBatch));

    // The gauge sees both queued samples, per class.
    infer::RouterStats mid = router.stats();
    ASSERT_EQ(mid.class_depth.size(), static_cast<size_t>(infer::kNumPriority));
    EXPECT_EQ(mid.class_depth[static_cast<size_t>(infer::Priority::kInteractive)], 1);
    EXPECT_EQ(mid.class_depth[static_cast<size_t>(infer::Priority::kBatch)], 1);
    EXPECT_EQ(mid.class_depth[static_cast<size_t>(infer::Priority::kNormal)], 0);

    // Third sample would exceed the budget: shed, typed, counted.
    EXPECT_THROW(router.submit(Tensor::uniform(shape, rng)),
                 infer::AdmissionError);
    infer::RouterStats after = router.stats();
    EXPECT_EQ(after.shed, 1);
    EXPECT_EQ(after.requests, 2);  // shed submissions are not accepted

    router.shutdown();  // drain flushes the un-ready groups immediately
    infer::RouterStats drained = router.stats();
    for (int64_t depth : drained.class_depth) EXPECT_EQ(depth, 0);
  }
  for (auto& f : queued) {
    Tensor out = f.get();  // shed never poisons ACCEPTED requests
    EXPECT_EQ(out.size(0), 4);
  }
}

// Strict priority among ready groups: while the single dispatcher is busy
// with a blocker batch, a kBatch and a kInteractive request queue up (both
// instantly "ready" — max_delay 0). The dispatcher must run the interactive
// group first, so by the time the low-priority future resolves, the
// interactive one must ALREADY be resolved.
TEST(RouterTest, InteractiveClassDispatchesBeforeBatchClass) {
  const infer::Engine& engine = test_engine();
  infer::Router router(engine, {.num_shards = 1, .max_batch = 1,
                                .max_delay_ms = 0.0,
                                .dispatchers_per_shard = 1});

  Rng rng(52);
  // A heavyweight blocker occupies the dispatcher; wait until it has been
  // POPPED (batches >= 1) so the two probes below queue behind it.
  std::future<Tensor> blocker =
      router.submit(Tensor::uniform({4, 3, 32, 32}, rng));
  while (router.stats().batches < 1) std::this_thread::yield();

  std::future<Tensor> low = router.submit(Tensor::uniform({4, 3, 12, 12}, rng),
                                          0, infer::Priority::kBatch);
  std::future<Tensor> high = router.submit(
      Tensor::uniform({4, 3, 10, 10}, rng), 0, infer::Priority::kInteractive);

  low.get();
  EXPECT_EQ(high.wait_for(std::chrono::seconds(0)), std::future_status::ready)
      << "a kBatch group dispatched before a ready kInteractive group";
  blocker.get();
}

// Work stealing: all traffic pins to shard 0 (by session key), saturating
// its single dispatcher; shard 1's idle dispatcher must pull ready groups
// over and execute them on ITS replica — bit-identically, since replicas
// share weights and the program cache.
TEST(RouterTest, IdleShardStealsReadyWorkBitIdentically) {
  const infer::Engine& engine = test_engine();
  const Shape shape{4, 3, 8, 8};
  infer::Router router(engine, {.num_shards = 2, .max_batch = 2,
                                .max_delay_ms = 1.0,
                                .dispatchers_per_shard = 1});
  const uint64_t session = session_on_shard(router, shape, 0);

  Rng rng(53);
  Tensor probe = Tensor::uniform(shape, rng);
  Tensor ref = engine.run(probe.reshape({4, 1, shape[1], shape[2], shape[3]}));
  // test_engine() is shared across the suite and the cache rides with the
  // engine's copies, so its counters are cumulative — assert on deltas.
  const int64_t misses_before = router.stats().cache_misses;

  std::atomic<bool> stop{false};
  std::atomic<int64_t> mismatches{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 8; ++c) {
    clients.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        Tensor out = router.infer(probe, session);
        if (max_abs_diff(out.reshape({4, -1}), ref.reshape({4, -1})) != 0.0) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  // Flood until at least one steal lands (bounded; typically milliseconds).
  const auto t0 = steady_clock::now();
  while (router.stats().steals == 0 && ms_since(t0) < 20000.0 * kTimeScale) {
    std::this_thread::yield();
  }
  stop.store(true);
  for (std::thread& t : clients) t.join();

  infer::RouterStats stats = router.stats();
  EXPECT_GT(stats.steals, 0) << "idle shard never stole from the loaded one";
  ASSERT_EQ(stats.shard_requests.size(), 2U);
  EXPECT_EQ(stats.shard_requests[1], 0) << "traffic was not pinned to shard 0";
  EXPECT_GT(stats.shard_batches[1], 0) << "stolen batches not counted on thief";
  EXPECT_EQ(stats.shard_steals[1], stats.steals);
  EXPECT_EQ(mismatches.load(), 0) << "a stolen batch diverged from direct run";
  // The whole flood touched at most two batch signatures ([4, 1, 3, 8, 8]
  // and [4, 2, 3, 8, 8]); the shared cache compiled each once, process-wide,
  // no matter which shard ran the batch.
  EXPECT_GT(stats.cache_hits, 0);
  EXPECT_LE(stats.cache_misses - misses_before, 2);
}

TEST(RouterTest, ShutdownDrainsPendingRequestsWithoutTheirDeadlines) {
  const infer::Engine& engine = test_engine();
  Rng rng(48);
  std::vector<std::future<Tensor>> futures;
  const auto t0 = steady_clock::now();
  {
    // A long deadline that drain must NOT ride out.
    infer::Router router(engine, {.num_shards = 2, .max_batch = 8,
                                  .max_delay_ms = 10000.0});
    futures.push_back(router.submit(Tensor::uniform({4, 3, 8, 8}, rng), 1));
    futures.push_back(router.submit(Tensor::uniform({4, 3, 12, 12}, rng), 2));
    futures.push_back(router.submit(Tensor::uniform({4, 3, 8, 8}, rng), 3));
    router.shutdown();
    EXPECT_THROW(router.submit(Tensor::uniform({4, 3, 8, 8}, rng)), Error);
  }
  for (auto& f : futures) {
    Tensor out = f.get();  // drained, not dropped
    EXPECT_EQ(out.size(0), 4);
  }
  EXPECT_LT(ms_since(t0), 5000.0) << "shutdown waited out the deadline";
}

// Regression: submit after shutdown must throw a LABELED error immediately
// (the shard queues are gone; anything else would hang a future forever).
TEST(RouterTest, SubmitAfterShutdownThrowsLabeledError) {
  const infer::Engine& engine = test_engine();
  infer::Router router(engine, {.num_shards = 1});
  router.shutdown();
  Rng rng(50);
  try {
    router.submit(Tensor::uniform({4, 3, 8, 8}, rng));
    FAIL() << "submit after shutdown did not throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("shutdown"), std::string::npos)
        << "error is not labeled with the cause: " << e.what();
  }
}

// cancel(session) resolves every queued future of that session with a typed
// CancelledError, without running them — and leaves OTHER sessions' requests
// in the same (shape, class) group untouched and servable.
TEST(RouterTest, CancelResolvesQueuedFuturesWithoutRunning) {
  const infer::Engine& engine = test_engine();
  // A delay long enough that everything below is still queued when cancel
  // lands; shutdown() then drains the survivor without riding it out.
  infer::Router router(engine, {.num_shards = 1, .max_batch = 8,
                                .max_delay_ms = 10000.0});
  Rng rng(51);
  constexpr uint64_t kDoomed = 5;
  constexpr uint64_t kKept = 6;
  std::vector<std::future<Tensor>> doomed;
  for (int i = 0; i < 3; ++i) {
    doomed.push_back(router.submit(Tensor::uniform({4, 3, 8, 8}, rng), kDoomed));
  }
  std::future<Tensor> kept =
      router.submit(Tensor::uniform({4, 3, 8, 8}, rng), kKept);

  EXPECT_EQ(router.cancel(kDoomed), 3);
  for (auto& f : doomed) {
    // Already resolved — no dispatcher ever saw these requests.
    ASSERT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready);
    EXPECT_THROW(f.get(), infer::CancelledError);
  }
  EXPECT_EQ(router.cancel(kDoomed), 0);  // idempotent: nothing left to cancel
  EXPECT_EQ(router.stats().cancelled, 3);

  router.shutdown();  // drain flushes the survivor immediately
  Tensor out = kept.get();
  EXPECT_EQ(out.size(0), 4);
}

// A request whose deadline expires while queued fails fast with a typed
// DeadlineError — pruned BEFORE batching, so the surviving batch is exactly
// the batch that would have formed without it and its outputs stay
// bit-identical to direct Engine::run.
TEST(RouterTest, DeadlineExpiryFailsFastAndSurvivorsStayBitIdentical) {
  const infer::Engine& engine = test_engine();
  const double kFlushMs = 400.0 * kTimeScale;
  const double kDeadlineMs = 40.0 * kTimeScale;
  // max_batch 4 > the 3 requests below: the group only flushes on its delay,
  // leaving a wide window in which the deadline must fire on its own.
  infer::Router router(engine, {.num_shards = 1, .max_batch = 4,
                                .max_delay_ms = kFlushMs});
  Rng rng(52);
  Tensor expiring = Tensor::uniform({4, 3, 8, 8}, rng);
  Tensor survivor_a = Tensor::uniform({4, 3, 8, 8}, rng);
  Tensor survivor_b = Tensor::uniform({4, 3, 8, 8}, rng);
  Tensor ref_a = engine.run(survivor_a.reshape({4, 1, 3, 8, 8}));
  Tensor ref_b = engine.run(survivor_b.reshape({4, 1, 3, 8, 8}));

  infer::SubmitOptions with_deadline;
  with_deadline.deadline_ms = kDeadlineMs;
  const auto t0 = steady_clock::now();
  std::future<Tensor> doomed = router.submit(expiring, with_deadline);
  std::future<Tensor> fa = router.submit(survivor_a);
  std::future<Tensor> fb = router.submit(survivor_b);

  // The miss resolves promptly after ITS deadline — typed — while the
  // survivors are still coalescing toward the (much later) flush.
  EXPECT_THROW(doomed.get(), infer::DeadlineError);
  const double miss_ms = ms_since(t0);
  EXPECT_GE(miss_ms, 0.8 * kDeadlineMs);
  EXPECT_LT(miss_ms, kFlushMs * 0.75) << "miss waited for the group flush";

  EXPECT_EQ(max_abs_diff(fa.get().reshape({4, -1}), ref_a.reshape({4, -1})),
            0.0);
  EXPECT_EQ(max_abs_diff(fb.get().reshape({4, -1}), ref_b.reshape({4, -1})),
            0.0);
  EXPECT_EQ(router.stats().deadline_misses, 1);
}

// AdmissionError carries a queue-depth-derived retry hint, so shed clients
// can back off proportionally to the actual overload.
TEST(RouterTest, AdmissionErrorCarriesRetryAfterHint) {
  const infer::Engine& engine = test_engine();
  const Shape shape{4, 3, 8, 8};
  const int64_t sample_bytes = shape_numel(shape) * sizeof(float);
  infer::Router router(engine, {.num_shards = 1, .max_batch = 8,
                                .max_delay_ms = 10000.0,
                                .queue_bytes = sample_bytes});
  Rng rng(53);
  std::future<Tensor> accepted = router.submit(Tensor::uniform(shape, rng));
  try {
    router.submit(Tensor::uniform(shape, rng));
    FAIL() << "over-budget submit was not shed";
  } catch (const infer::AdmissionError& e) {
    EXPECT_GT(e.retry_after_ms(), 0.0);
    EXPECT_LE(e.retry_after_ms(), 1000.0);  // capped: never "go away forever"
  }
  router.shutdown();
  EXPECT_EQ(accepted.get().size(0), 4);
}

// The full health drill, deterministic via failpoints: replica 0 fails every
// batch -> after quarantine_after consecutive failures it is quarantined
// (gauges flip), traffic whose home it was re-routes and serves on the
// survivor bit-identically, and once the fault clears a probe re-admits it.
TEST(RouterTest, QuarantineReroutesTrafficAndProbeReadmits) {
  const infer::Engine& engine = test_engine();
  failpoint::disarm_all();  // a clean slate no matter what ran before
  infer::Router router(engine, {.num_shards = 2, .max_batch = 4,
                                .max_delay_ms = 1.0 * kTimeScale,
                                .dispatchers_per_shard = 1,
                                .quarantine_after = 2,
                                .probe_interval_ms = 5.0 * kTimeScale});
  Rng rng(54);
  Tensor x = Tensor::uniform({4, 3, 8, 8}, rng);
  Tensor ref = engine.run(x.reshape({4, 1, 3, 8, 8}));
  const uint64_t hot = session_on_shard(router, x.shape(), 0);

  failpoint::arm("router.dispatch.0", "every:1");
  int64_t pre_errors = 0;
  for (int i = 0; i < 32 && router.stats().quarantines == 0; ++i) {
    try {
      router.infer(x, hot);
    } catch (const Error&) {
      ++pre_errors;
    }
  }
  infer::RouterStats down = router.stats();
  ASSERT_GE(down.quarantines, 1) << "failing replica never quarantined";
  EXPECT_EQ(pre_errors, 2);  // exactly quarantine_after batches failed
  ASSERT_EQ(down.shard_quarantined.size(), 2U);
  EXPECT_EQ(down.shard_quarantined[0], 1);
  EXPECT_EQ(down.shard_quarantined[1], 0);
  EXPECT_EQ(down.healthy_shards, 1);

  // 100% of post-quarantine traffic — including traffic HOMED on the dead
  // replica — serves on the survivor, bit-identically.
  std::vector<std::future<Tensor>> futs;
  for (int i = 0; i < 12; ++i) futs.push_back(router.submit(x, hot));
  for (auto& f : futs) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(60)), std::future_status::ready)
        << "a future did not resolve";
    EXPECT_EQ(max_abs_diff(f.get().reshape({4, -1}), ref.reshape({4, -1})),
              0.0);
  }
  EXPECT_GT(router.stats().rerouted, 0);

  // Fault clears -> a probe (synthetic run on the failed shape, no client
  // future attached) re-admits the replica.
  failpoint::disarm("router.dispatch.0");
  const auto t0 = steady_clock::now();
  while (router.stats().readmissions == 0 &&
         ms_since(t0) < 20000.0 * kTimeScale) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  infer::RouterStats up = router.stats();
  ASSERT_GE(up.readmissions, 1) << "probe never re-admitted the replica";
  EXPECT_GT(up.probes, 0);
  EXPECT_EQ(up.healthy_shards, 2);
  EXPECT_EQ(max_abs_diff(router.infer(x, hot).reshape({4, -1}),
                         ref.reshape({4, -1})),
            0.0);
}

}  // namespace
}  // namespace ttsnn
