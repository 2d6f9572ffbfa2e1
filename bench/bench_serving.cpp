// Serving bench: throughput and latency of the compiled inference stack.
//
// Single-engine configurations over the same factorized (PTT) MS-ResNet:
//   module      — looping eval-mode Module::forward, one request at a time
//                 (the only serving story before the train/infer split)
//   merged/1    — Engine with merged dense kernels (Algorithm 1 lines
//                 20-22). Reference only: merging trades more MACs for
//                 accumulate-only spike hardware, so on CPU it loses FLOPs
//   engine/1    — Engine::run on the exact (unmerged) TT plan, batch 1:
//                 same FLOPs as the module, minus caching/allocation
//                 overhead and with the pointwise-conv im2col skip
//   engine/B    — Engine::run over pre-batched requests (upper bound for
//                 the micro-batcher at batch size B)
//   server      — a one-shard infer::Router (two dispatchers) with
//                 concurrent clients; requests are coalesced into
//                 micro-batches under a latency deadline
//
// Router load sweep (the scale-out story): a closed-loop load generator —
// configurable client count (--clients), shape-mix ratio (--mix), optional
// per-run request budget (--requests) — drives infer::Router at shard counts
// 1 / 2 / 4, unpaced (saturation) and paced at target QPS fractions of the
// measured single-engine rate, so the shard count -> throughput / p99 knee
// lands in BENCH_serving.json. Paced latencies are measured from each
// request's *scheduled* send time, so queue build-up past the knee shows up
// in p99 instead of being hidden by coordinated omission.
//
// With --mixed-resolutions, a plan-cache cold-start sweep runs as well: a
// freshly compiled engine is flooded with many input resolutions, and the
// router_cache/* rows separate each shape's one-time first-miss compile
// latency from its warm p50/p99, compare mixed-warm p99 against a
// single-shape flood on the same router, and show a never-seen shape's
// compile not inflating concurrent warm traffic.
//
// With --weight-dtype=bf16|int8, a serving_dtype/* section compares the
// requested typed-weight-plane engine against the f32 merged plan on the
// same requests: batch-1 p50/p99 plus the per-dtype unique weight bytes
// (the compression the quantization pass actually delivered, not a model).
//
// Reports requests/s plus p50/p99 end-to-end latency per request.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "util/bench_json.h"
#include "core/factorize.h"
#include "core/models.h"
#include "infer/engine.h"
#include "infer/router.h"
#include "tensor/ops.h"
#include "util/common.h"
#include "util/failpoint.h"

namespace ttsnn {
namespace {

constexpr int64_t kTimesteps = 4;
constexpr int64_t kInputSize = 12;
constexpr int64_t kRequests = 96;
constexpr int64_t kBatch = 8;
// More clients than one batch so several batches are in flight at once.
constexpr int kDefaultClients = 16;

struct LatencyStats {
  double throughput = 0.0;  ///< requests / s
  double p50_ms = 0.0;
  double p99_ms = 0.0;
};

LatencyStats summarize(std::vector<double> latencies_s, double total_s) {
  LatencyStats s;
  const size_t n = latencies_s.size();
  if (n == 0) return s;  // an empty run reports zeros instead of faulting
  std::sort(latencies_s.begin(), latencies_s.end());
  s.throughput = static_cast<double>(n) / total_s;
  s.p50_ms = latencies_s[n / 2] * 1e3;
  s.p99_ms = latencies_s[bench::p99_index(n)] * 1e3;
  return s;
}

bench::Row& report(bench::Report& out, const std::string& name,
                   const LatencyStats& s) {
  std::printf("  %-22s %10.1f req/s   p50 %7.2f ms   p99 %7.2f ms\n",
              name.c_str(), s.throughput, s.p50_ms, s.p99_ms);
  return out.add(name)
      .num("req_per_s", s.throughput)
      .num("p50_ms", s.p50_ms)
      .num("p99_ms", s.p99_ms);
}

/// bench_serving's flags: the shared --out / --quick (bench::Args) plus the
/// load-generator knobs, hooked in through the shared parser.
struct ServingArgs {
  bench::Args base;
  int clients = kDefaultClients;
  double mix = 0.25;       ///< fraction of router requests using shape B
  int64_t requests = 0;    ///< per-run router request budget; 0 = auto
  /// Run the plan-cache cold-start sweep: a flood over many input
  /// resolutions against a freshly compiled engine, separating each shape's
  /// one-time compile latency from its warm p50/p99 (router_cache/* rows).
  bool mixed_resolutions = false;
  /// Run the fault-injection sweep (router_fault/* rows): a replica failing
  /// every batch must quarantine with traffic serving bit-identically on the
  /// survivors, deadline misses must fail fast with DeadlineError, and
  /// admission sheds must clear under client-side capped exponential
  /// backoff. Every drill proves every future resolves.
  bool fault = false;
  /// Non-empty: run the serving_dtype/* comparison of the f32 merged plan
  /// against this weight dtype ("bf16" or "int8"; "f32" compares the plan
  /// against itself, a sanity baseline).
  std::string weight_dtype;

  static ServingArgs parse(int argc, char** argv) {
    ServingArgs a;
    a.base = bench::Args::parse(
        argc, argv, "BENCH_serving.json", [&a](const std::string& arg) {
          try {
            if (arg.rfind("--clients=", 0) == 0) {
              a.clients = std::max(1, std::stoi(arg.substr(10)));
            } else if (arg.rfind("--mix=", 0) == 0) {
              a.mix = std::clamp(std::stod(arg.substr(6)), 0.0, 1.0);
            } else if (arg.rfind("--requests=", 0) == 0) {
              // 0 keeps the auto budget (see the field comment above).
              a.requests = std::max<int64_t>(0, std::stoll(arg.substr(11)));
            } else if (arg == "--mixed-resolutions") {
              a.mixed_resolutions = true;
            } else if (arg == "--fault") {
              a.fault = true;
            } else if (arg.rfind("--weight-dtype=", 0) == 0) {
              a.weight_dtype = arg.substr(15);
            } else {
              return false;
            }
          } catch (const std::exception&) {
            std::printf("bad value in %s, keeping the default\n", arg.c_str());
          }
          return true;
        });
    return a;
  }
};

/// Closed-loop load generator over a two-shape mix. Each client owns a
/// session key (so one client's same-shaped requests coalesce on one shard
/// while different clients spread across replicas) and submits its next
/// request as soon as the previous future resolves; with target_qps > 0 the
/// sends are additionally paced onto a fixed schedule and latency is counted
/// from the scheduled send time.
LatencyStats run_router_load(infer::Router& router, const Tensor& shape_a,
                             const Tensor& shape_b, int clients,
                             int64_t per_client, double mix, double target_qps,
                             double* total_s_out) {
  std::vector<std::vector<double>> lat(static_cast<size_t>(clients));
  const auto start = std::chrono::steady_clock::now();
  Timer total;
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      std::vector<double>& my = lat[static_cast<size_t>(c)];
      my.reserve(static_cast<size_t>(per_client));
      for (int64_t i = 0; i < per_client; ++i) {
        // Deterministic shape mix, spread evenly through the stream
        // (Bresenham-style: the B share crosses an integer boundary every
        // 1/mix requests, so any prefix of the stream carries ~mix B's).
        const int64_t idx = i * clients + c;
        const bool use_b =
            std::fmod(static_cast<double>(idx + 1) * mix, 1.0) < mix;
        auto sent = std::chrono::steady_clock::now();
        if (target_qps > 0.0) {
          const double interval_s = static_cast<double>(clients) / target_qps;
          const auto scheduled =
              start + std::chrono::duration_cast<
                          std::chrono::steady_clock::duration>(
                          std::chrono::duration<double>(
                              (static_cast<double>(i) +
                               static_cast<double>(c) / clients) *
                              interval_s));
          std::this_thread::sleep_until(scheduled);
          sent = scheduled;  // count schedule lag as latency (no omission)
        }
        router.infer(use_b ? shape_b : shape_a,
                     /*session=*/static_cast<uint64_t>(c));
        my.push_back(std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - sent)
                         .count());
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double total_s = total.seconds();
  if (total_s_out != nullptr) *total_s_out = total_s;
  std::vector<double> all;
  for (const auto& v : lat) all.insert(all.end(), v.begin(), v.end());
  return summarize(std::move(all), total_s);
}

}  // namespace
}  // namespace ttsnn

int main(int argc, char** argv) {
  using namespace ttsnn;
  ServingArgs args = ServingArgs::parse(argc, argv);
  bench::Report json;

  Rng rng(7);
  ModelConfig cfg;
  cfg.in_channels = 3;
  cfg.num_classes = 10;
  cfg.base_width = 8;
  cfg.timesteps = kTimesteps;
  ModulePtr net = make_ms_resnet18(cfg, rng);
  FactorizeOptions fopts;
  fopts.mode = TTMode::kPTT;
  fopts.use_vbmf = false;
  fopts.rank_fraction = 0.4;
  factorize_network(*net, fopts, rng);

  // Move the BN statistics off init so the fold is non-trivial, then freeze.
  net->set_training(true);
  for (int i = 0; i < 2; ++i) {
    net->forward(Tensor::uniform({kTimesteps, kBatch, 3, kInputSize, kInputSize},
                                 rng));
  }
  net->clear_cache();
  net->set_training(false);

  // The serving plan keeps the TT pipeline unmerged: on CPU the factorized
  // convolutions are the FLOP-cheap path (merging exists for accumulate-only
  // spike hardware). BN still folds where time-invariant.
  infer::Engine engine =
      infer::compile(*net, {.merge_tt = false, .fold_batchnorm = true});
  infer::Engine merged = infer::compile(*net);
  std::printf("serving bench: MS-ResNet18 w=%lld T=%lld PTT, %lld requests, "
              "plan: %zu ops (merged: %zu)\n",
              static_cast<long long>(cfg.base_width),
              static_cast<long long>(kTimesteps),
              static_cast<long long>(kRequests), engine.num_ops(),
              merged.num_ops());

  std::vector<Tensor> requests;
  requests.reserve(kRequests);
  for (int64_t i = 0; i < kRequests; ++i) {
    requests.push_back(
        Tensor::uniform({kTimesteps, 3, kInputSize, kInputSize}, rng));
  }
  auto as_batch1 = [](const Tensor& x) {
    Shape s = x.shape();
    return x.reshape({s[0], 1, s[1], s[2], s[3]});
  };

  // --- module: sequential eval-mode Module::forward, batch 1 ---------------
  {
    std::vector<double> lat;
    lat.reserve(kRequests);
    Timer total;
    for (const Tensor& r : requests) {
      Timer t;
      net->forward(as_batch1(r));
      lat.push_back(t.seconds());
    }
    report(json, "module", summarize(std::move(lat), total.seconds()));
  }

  // --- merged/1: dense merged kernels (spike-hardware plan) on CPU ---------
  {
    std::vector<double> lat;
    lat.reserve(kRequests);
    Timer total;
    for (const Tensor& r : requests) {
      Timer t;
      merged.run(as_batch1(r));
      lat.push_back(t.seconds());
    }
    report(json, "merged/1", summarize(std::move(lat), total.seconds()));
  }

  // --- engine/1: compiled exact plan, still one request per run ------------
  LatencyStats engine1;
  {
    std::vector<double> lat;
    lat.reserve(kRequests);
    Timer total;
    for (const Tensor& r : requests) {
      Timer t;
      engine.run(as_batch1(r));
      lat.push_back(t.seconds());
    }
    engine1 = summarize(std::move(lat), total.seconds());
    report(json, "engine/1", engine1);
  }

  // --- engine/B: ideal pre-batched runs (micro-batching upper bound) -------
  {
    std::vector<double> lat;
    lat.reserve(kRequests);
    Timer total;
    for (int64_t base = 0; base < kRequests; base += kBatch) {
      Tensor batch({kTimesteps, kBatch, 3, kInputSize, kInputSize});
      const int64_t chw = 3 * kInputSize * kInputSize;
      for (int64_t j = 0; j < kBatch; ++j) {
        const float* src = requests[static_cast<size_t>(base + j)].data();
        for (int64_t t = 0; t < kTimesteps; ++t) {
          std::copy(src + t * chw, src + (t + 1) * chw,
                    batch.data() + (t * kBatch + j) * chw);
        }
      }
      Timer t;
      engine.run(batch);
      const double s = t.seconds();
      for (int64_t j = 0; j < kBatch; ++j) lat.push_back(s);
    }
    report(json, "engine/8", summarize(std::move(lat), total.seconds()));
  }

  // --- serving weight-dtype comparison: typed planes on the merged plan ----
  // Both engines run the merged lowering (the quantization-friendly one);
  // only the weight storage differs. Latency rows are informational — the
  // hard compression gates live in bench_micro_ops (deterministic bytes).
  if (!args.weight_dtype.empty()) {
    const WeightDtype dtype = parse_weight_dtype(args.weight_dtype);
    infer::Engine quant = infer::compile(*net, {.weight_dtype = dtype});
    std::printf("serving weight-dtype comparison (merged lowering)\n");
    const struct {
      const char* tag;
      const infer::Engine* e;
    } dtype_variants[] = {{"f32", &merged},
                          {weight_dtype_name(dtype), &quant}};
    for (const auto& v : dtype_variants) {
      std::vector<double> lat;
      lat.reserve(kRequests);
      v.e->run(as_batch1(requests[0]));  // warm: program cache + workspace
      Timer total;
      for (const Tensor& r : requests) {
        Timer t;
        v.e->run(as_batch1(r));
        lat.push_back(t.seconds());
      }
      const LatencyStats s = summarize(std::move(lat), total.seconds());
      const infer::WeightFootprint& fp = v.e->weight_footprint();
      report(json, std::string("serving_dtype/") + v.tag, s)
          .str("weight_dtype", v.tag)
          .num("weight_bytes", static_cast<double>(fp.total()))
          .num("weight_f32_bytes", static_cast<double>(fp.f32_bytes))
          .num("weight_bf16_bytes", static_cast<double>(fp.bf16_bytes))
          .num("weight_int8_bytes", static_cast<double>(fp.int8_bytes));
      std::printf("    weights: %lld bytes (f32 %lld, bf16 %lld, "
                  "int8+scales %lld)\n",
                  static_cast<long long>(fp.total()),
                  static_cast<long long>(fp.f32_bytes),
                  static_cast<long long>(fp.bf16_bytes),
                  static_cast<long long>(fp.int8_bytes));
    }
  }

  // --- server: concurrent clients, micro-batched under a deadline ----------
  {
    infer::Router server(engine, {.num_shards = 1,
                                  .max_batch = kBatch,
                                  .max_delay_ms = 2.0,
                                  .dispatchers_per_shard = 2});
    std::vector<double> lat(kRequests, 0.0);
    std::vector<std::thread> clients;
    Timer total;
    for (int c = 0; c < kDefaultClients; ++c) {
      clients.emplace_back([&, c] {
        for (int64_t i = c; i < kRequests; i += kDefaultClients) {
          Timer t;
          server.infer(requests[static_cast<size_t>(i)]);
          lat[static_cast<size_t>(i)] = t.seconds();
        }
      });
    }
    for (std::thread& t : clients) t.join();
    const double total_s = total.seconds();
    const infer::RouterStats stats = server.stats();
    report(json, "server", summarize(lat, total_s));
    std::printf("  server coalescing: %lld requests in %lld batches "
                "(mean %.1f, max %lld)\n",
                static_cast<long long>(stats.requests),
                static_cast<long long>(stats.batches), stats.mean_batch(),
                static_cast<long long>(stats.max_batch));
    json.add("server_coalescing")
        .num("requests", static_cast<double>(stats.requests))
        .num("batches", static_cast<double>(stats.batches))
        .num("mean_batch", stats.mean_batch());
  }

  // --- router shard sweep: closed-loop load generator over a shape mix -----
  // Shape A is the image-pipeline size, shape B a smaller mixed-scenario
  // shape (what used to head-of-line block on the single-queue server). One
  // sample per shape rides every request: serving latency here is batching +
  // dispatch, and the fixed content lets the sweep pin bit-identity against
  // direct Engine::run below.
  {
    Rng load_rng(17);
    Tensor shape_a =
        Tensor::uniform({kTimesteps, 3, kInputSize, kInputSize}, load_rng);
    Tensor shape_b = Tensor::uniform({kTimesteps, 3, 8, 8}, load_rng);
    Tensor ref_a = engine.run(as_batch1(shape_a));
    Tensor ref_b = engine.run(as_batch1(shape_b));

    // Paced points bracket the measured single-engine rate so the knee
    // (queueing p99 blow-up) is visible on whatever machine runs this.
    std::vector<double> qps_factors;
    if (!args.base.quick) qps_factors = {0.5, 1.5, 3.0};
    const int64_t auto_budget = args.base.quick ? 48 : 128;
    const int64_t budget = args.requests > 0 ? args.requests : auto_budget;
    // Budgets divide evenly over the clients; `issued` is what actually runs
    // (and what the /load rows record), not the pre-rounding ask.
    const int64_t per_client = std::max<int64_t>(1, budget / args.clients);
    const int64_t issued = per_client * args.clients;
    double bitwise_max_diff = 0.0;

    for (int shards : {1, 2, 4}) {
      infer::Router router(engine, {.num_shards = shards,
                                    .max_batch = kBatch,
                                    .max_delay_ms = 2.0,
                                    .dispatchers_per_shard = 2});
      // Bit-identity of the routed path vs direct Engine::run, per shard
      // count (covers every replica-selection code path the sweep uses).
      bitwise_max_diff = std::max(
          bitwise_max_diff,
          max_abs_diff(router.infer(shape_a, 1).reshape({kTimesteps, -1}),
                       ref_a.reshape({kTimesteps, -1})));
      bitwise_max_diff = std::max(
          bitwise_max_diff,
          max_abs_diff(router.infer(shape_b, 2).reshape({kTimesteps, -1}),
                       ref_b.reshape({kTimesteps, -1})));

      const std::string base = "router/shards=" + std::to_string(shards);
      double total_s = 0.0;
      LatencyStats closed =
          run_router_load(router, shape_a, shape_b, args.clients, per_client,
                          args.mix, /*target_qps=*/0.0, &total_s);
      report(json, base, closed);
      json.add(base + "/load")
          .num("clients", args.clients)
          .num("mix", args.mix)
          .num("requests", static_cast<double>(issued))
          .num("total_s", total_s);

      for (double f : qps_factors) {
        const double qps = f * engine1.throughput;
        // Size each paced run to ~1.5 s of offered load (bounded), so slow
        // points do not dominate bench wall clock.
        const int64_t paced_budget =
            std::clamp<int64_t>(static_cast<int64_t>(qps * 1.5), 32, 256);
        const int64_t paced_per_client =
            std::max<int64_t>(1, paced_budget / args.clients);
        char suffix[32];
        std::snprintf(suffix, sizeof(suffix), "/qps=%.1fx", f);
        LatencyStats paced =
            run_router_load(router, shape_a, shape_b, args.clients,
                            paced_per_client, args.mix, qps, nullptr);
        report(json, base + suffix, paced).num("offered_qps", qps);
      }
      infer::RouterStats rstats = router.stats();
      std::printf("  %s: %lld requests, %lld batches (mean %.1f)\n",
                  base.c_str(), static_cast<long long>(rstats.requests),
                  static_cast<long long>(rstats.batches), rstats.mean_batch());
    }
    std::printf("  router bitwise max |diff| vs Engine::run: %g\n",
                bitwise_max_diff);
    json.add("router/bitwise").num("max_abs_diff", bitwise_max_diff);
    TTSNN_CHECK(bitwise_max_diff == 0.0,
                "routed outputs diverged from direct Engine::run");
  }

  // --- mixed-resolution flood: the plan-cache cold-start sweep -------------
  // A freshly compiled engine (empty program cache) is flooded with many
  // input resolutions. Per shape: the FIRST request pays its one compile
  // (cold), every later one rides the cached program (warm). The sweep pins
  // three properties: each cold shape pays only its own compile, mixed warm
  // traffic stays near single-shape latency, and cache-served outputs are
  // bitwise-equal to a separately compiled engine's direct runs.
  if (args.mixed_resolutions) {
    std::printf("mixed-resolution flood (program cache cold-start sweep)\n");
    infer::Engine fresh =
        infer::compile(*net, {.merge_tt = false, .fold_batchnorm = true});
    const std::vector<int64_t> resolutions =
        args.base.quick ? std::vector<int64_t>{8, 12}
                        : std::vector<int64_t>{8, 10, 12, 14, 16};
    const int64_t canonical = kInputSize;  // shared by both floods below
    infer::Router router(fresh, {.num_shards = 2, .max_batch = kBatch,
                                 .max_delay_ms = 2.0,
                                 .dispatchers_per_shard = 2});

    Rng mrng(23);
    std::vector<Tensor> samples;
    std::vector<Tensor> refs;  // from `engine`: same weights, separate cache
    samples.reserve(resolutions.size());
    for (int64_t r : resolutions) {
      samples.push_back(Tensor::uniform({kTimesteps, 3, r, r}, mrng));
      refs.push_back(engine.run(as_batch1(samples.back())));
    }

    double cold_total_ms = 0.0;
    double bitwise_max_diff = 0.0;
    std::vector<double> cold_ms(resolutions.size());
    for (size_t i = 0; i < resolutions.size(); ++i) {
      Timer t;
      Tensor out = router.infer(samples[i], /*session=*/i);
      cold_ms[i] = t.seconds() * 1e3;
      cold_total_ms += cold_ms[i];
      bitwise_max_diff =
          std::max(bitwise_max_diff,
                   max_abs_diff(out.reshape({kTimesteps, -1}),
                                refs[i].reshape({kTimesteps, -1})));
    }

    // Warm per-shape latencies: sequential probes after the cold pass, so
    // every number is pure cached-program serving (batching + dispatch).
    const int64_t warm_probes = args.base.quick ? 12 : 32;
    for (size_t i = 0; i < resolutions.size(); ++i) {
      std::vector<double> lat;
      lat.reserve(static_cast<size_t>(warm_probes));
      Timer total;
      for (int64_t k = 0; k < warm_probes; ++k) {
        Timer t;
        router.infer(samples[i], /*session=*/i);
        lat.push_back(t.seconds());
      }
      LatencyStats warm = summarize(std::move(lat), total.seconds());
      const std::string name = "router_cache/shape=" +
                               std::to_string(resolutions[i]) + "x" +
                               std::to_string(resolutions[i]);
      std::printf("  %-22s cold %7.2f ms   warm p50 %7.2f ms   p99 %7.2f ms\n",
                  name.c_str(), cold_ms[i], warm.p50_ms, warm.p99_ms);
      json.add(name)
          .num("cold_first_ms", cold_ms[i])
          .num("warm_p50_ms", warm.p50_ms)
          .num("warm_p99_ms", warm.p99_ms)
          .num("warm_req_per_s", warm.throughput);
    }

    // Concurrent floods over the SAME router (cache fully warm): every
    // resolution at once vs the canonical shape alone, same client count.
    // Per-shape isolation means the mixed p99 should sit near the single-
    // shape p99 instead of multiplying with the number of resident shapes.
    auto flood_p99 = [&](const std::vector<size_t>& shape_idx) {
      const int64_t per_client = args.base.quick ? 6 : 8;
      const int clients = std::max<int>(args.clients,
                                        static_cast<int>(shape_idx.size()));
      std::vector<std::vector<double>> lat(static_cast<size_t>(clients));
      std::vector<std::thread> threads;
      for (int c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
          const Tensor& x =
              samples[shape_idx[static_cast<size_t>(c) % shape_idx.size()]];
          for (int64_t k = 0; k < per_client; ++k) {
            Timer t;
            router.infer(x, /*session=*/static_cast<uint64_t>(c));
            lat[static_cast<size_t>(c)].push_back(t.seconds());
          }
        });
      }
      for (std::thread& t : threads) t.join();
      std::vector<double> all;
      for (const auto& v : lat) all.insert(all.end(), v.begin(), v.end());
      return summarize(std::move(all), 1.0);  // only the percentiles matter
    };
    std::vector<size_t> all_idx(resolutions.size());
    for (size_t i = 0; i < all_idx.size(); ++i) all_idx[i] = i;
    const size_t canon_idx = static_cast<size_t>(
        std::find(resolutions.begin(), resolutions.end(), canonical) -
        resolutions.begin());
    LatencyStats single = flood_p99({canon_idx % resolutions.size()});
    LatencyStats mixed = flood_p99(all_idx);
    const double ratio = single.p99_ms > 0.0 ? mixed.p99_ms / single.p99_ms : 0.0;
    std::printf("  router_cache/mixed_warm p99 %.2f ms vs single-shape %.2f ms "
                "(%.2fx)\n",
                mixed.p99_ms, single.p99_ms, ratio);
    json.add("router_cache/single_shape")
        .num("p50_ms", single.p50_ms)
        .num("p99_ms", single.p99_ms);
    json.add("router_cache/mixed_warm")
        .num("p50_ms", mixed.p50_ms)
        .num("p99_ms", mixed.p99_ms)
        .num("p99_vs_single_shape", ratio);

    // Warm-during-cold: while the canonical shape floods, a NEVER-seen
    // resolution arrives. Its compile runs outside the cache lock, so the
    // warm stream's p99 must not absorb the cold shape's first-miss cost.
    {
      const int64_t cold_res = args.base.quick ? 20 : 24;
      Tensor cold_x = Tensor::uniform({kTimesteps, 3, cold_res, cold_res}, mrng);
      Tensor cold_ref = engine.run(as_batch1(cold_x));
      std::atomic<bool> stop{false};
      std::vector<double> warm_lat;
      std::mutex warm_mu;
      std::vector<std::thread> warm_clients;
      for (int c = 0; c < 4; ++c) {
        warm_clients.emplace_back([&, c] {
          while (!stop.load(std::memory_order_relaxed)) {
            Timer t;
            router.infer(samples[canon_idx], static_cast<uint64_t>(c));
            const double s = t.seconds();
            std::lock_guard<std::mutex> lock(warm_mu);
            warm_lat.push_back(s);
          }
        });
      }
      Timer cold_t;
      Tensor cold_out = router.infer(cold_x, /*session=*/99);
      const double cold_during_ms = cold_t.seconds() * 1e3;
      stop.store(true);
      for (std::thread& t : warm_clients) t.join();
      bitwise_max_diff =
          std::max(bitwise_max_diff,
                   max_abs_diff(cold_out.reshape({kTimesteps, -1}),
                                cold_ref.reshape({kTimesteps, -1})));
      LatencyStats during = summarize(warm_lat, 1.0);
      std::printf("  router_cache/warm_during_cold p99 %.2f ms while a "
                  "%lldx%lld first-miss compiled (%.2f ms)\n",
                  during.p99_ms, static_cast<long long>(cold_res),
                  static_cast<long long>(cold_res), cold_during_ms);
      json.add("router_cache/warm_during_cold")
          .num("warm_p99_ms", during.p99_ms)
          .num("cold_first_ms", cold_during_ms);
    }

    infer::RouterStats rstats = router.stats();
    std::printf("  router_cache/stats: %lld shapes, %lld bytes, %lld hits, "
                "%lld misses, %lld evictions, %lld steals, %lld shed\n",
                static_cast<long long>(rstats.cache_shapes),
                static_cast<long long>(rstats.cache_bytes),
                static_cast<long long>(rstats.cache_hits),
                static_cast<long long>(rstats.cache_misses),
                static_cast<long long>(rstats.cache_evictions),
                static_cast<long long>(rstats.steals),
                static_cast<long long>(rstats.shed));
    json.add("router_cache/stats")
        .num("shapes", static_cast<double>(rstats.cache_shapes))
        .num("bytes", static_cast<double>(rstats.cache_bytes))
        .num("hits", static_cast<double>(rstats.cache_hits))
        .num("misses", static_cast<double>(rstats.cache_misses))
        .num("evictions", static_cast<double>(rstats.cache_evictions))
        .num("cold_total_ms", cold_total_ms);
    json.add("router_cache/bitwise").num("max_abs_diff", bitwise_max_diff);
    TTSNN_CHECK(bitwise_max_diff == 0.0,
                "cache-served outputs diverged from a fresh engine's runs");
  }

  // --- fault sweep: the reliability layer under deterministic injection ----
  // Three drills, each over the same fixed sample so served outputs can be
  // pinned bit-identical against direct Engine::run. The invariant every
  // drill enforces (with a bounded wait, so a hang is a failure, not a
  // stall): EVERY submitted future resolves — with a value or a typed error.
  if (args.fault) {
    std::printf("fault sweep (deterministic failpoint injection)\n");
    Rng frng(31);
    Tensor fx = Tensor::uniform({kTimesteps, 3, kInputSize, kInputSize}, frng);
    Tensor fref = engine.run(as_batch1(fx));
    const auto flat = [&](Tensor t) { return t.reshape({kTimesteps, -1}); };

    // (a) replica down: replica 0 fails EVERY batch (router.dispatch.0
    // armed every:1). After at most quarantine_after failed batches it must
    // quarantine; from then on 100% of traffic serves on the survivor,
    // bit-identically. Disarming lets a probe re-admit it.
    {
      infer::Router router(engine, {.num_shards = 2,
                                    .max_batch = 4,
                                    .max_delay_ms = 1.0,
                                    .dispatchers_per_shard = 1,
                                    .quarantine_after = 2,
                                    .probe_interval_ms = 10.0});
      failpoint::arm("router.dispatch.0", "every:1");
      // A session whose home is the failing replica, so the drill exercises
      // the full path: fail -> quarantine -> re-route -> probe -> re-admit.
      uint64_t hot_session = 0;
      while (router.shard_for(fx.shape(), hot_session) != 0) ++hot_session;

      int64_t pre_errors = 0;
      int pre_attempts = 0;
      while (router.stats().quarantines == 0 && pre_attempts < 32) {
        ++pre_attempts;
        try {
          router.infer(fx, hot_session);
        } catch (const Error&) {
          ++pre_errors;
        }
      }
      TTSNN_CHECK(router.stats().quarantines >= 1,
                  "fault drill: failing replica was never quarantined");

      const int64_t n = args.base.quick ? 32 : 96;
      std::vector<std::future<Tensor>> futs;
      futs.reserve(static_cast<size_t>(n));
      for (int64_t i = 0; i < n; ++i) {
        futs.push_back(router.submit(fx, hot_session));
      }
      int64_t served = 0;
      double diff = 0.0;
      for (auto& f : futs) {
        TTSNN_CHECK(
            f.wait_for(std::chrono::seconds(30)) == std::future_status::ready,
            "fault drill: a future did not resolve");
        diff = std::max(diff, max_abs_diff(flat(f.get()), flat(fref)));
        ++served;  // post-quarantine traffic must never error
      }
      TTSNN_CHECK(diff == 0.0,
                  "fault drill: survivor outputs diverged from Engine::run");

      failpoint::disarm("router.dispatch.0");
      const auto t0 = std::chrono::steady_clock::now();
      while (router.stats().readmissions == 0 &&
             std::chrono::steady_clock::now() - t0 < std::chrono::seconds(10)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
      infer::RouterStats fs = router.stats();
      TTSNN_CHECK(fs.readmissions >= 1,
                  "fault drill: replica was not re-admitted after recovery");
      diff = std::max(diff, max_abs_diff(flat(router.infer(fx, hot_session)),
                                         flat(fref)));
      TTSNN_CHECK(diff == 0.0, "fault drill: post-readmission output diverged");
      std::printf("  %-22s %lld pre-errors -> quarantined, %lld served on "
                  "survivor (diff %g), %lld probes, re-admitted\n",
                  "router_fault/replica", static_cast<long long>(pre_errors),
                  static_cast<long long>(served), diff,
                  static_cast<long long>(fs.probes));
      json.add("router_fault/replica_down")
          .num("pre_quarantine_errors", static_cast<double>(pre_errors))
          .num("served_on_survivor", static_cast<double>(served))
          .num("max_abs_diff", diff)
          .num("quarantines", static_cast<double>(fs.quarantines))
          .num("rerouted", static_cast<double>(fs.rerouted))
          .num("probes", static_cast<double>(fs.probes))
          .num("readmissions", static_cast<double>(fs.readmissions))
          .num("replica_failures", static_cast<double>(fs.replica_failures));
    }

    // (b) deadline pressure: a single slow dispatcher, a burst far larger
    // than it can serve inside the per-request deadline. Misses must fail
    // FAST (typed DeadlineError, resolved promptly after expiry — never
    // hang), and whatever is served must stay bit-identical.
    {
      infer::Router router(engine, {.num_shards = 1,
                                    .max_batch = 2,
                                    .max_delay_ms = 1.0,
                                    .dispatchers_per_shard = 1});
      const double deadline_ms = 5.0;
      const int64_t n = args.base.quick ? 24 : 48;
      infer::SubmitOptions so;
      so.session = 7;
      so.deadline_ms = deadline_ms;
      std::vector<std::future<Tensor>> futs;
      std::vector<std::chrono::steady_clock::time_point> sent;
      futs.reserve(static_cast<size_t>(n));
      sent.reserve(static_cast<size_t>(n));
      for (int64_t i = 0; i < n; ++i) {
        sent.push_back(std::chrono::steady_clock::now());
        futs.push_back(router.submit(fx, so));
      }
      // Poll for resolution times (0.5 ms granularity): proves no future
      // hangs AND yields the miss-resolution latency distribution.
      std::vector<double> resolve_ms(static_cast<size_t>(n), -1.0);
      size_t remaining = static_cast<size_t>(n);
      const auto t0 = std::chrono::steady_clock::now();
      while (remaining > 0 &&
             std::chrono::steady_clock::now() - t0 < std::chrono::seconds(30)) {
        for (size_t i = 0; i < futs.size(); ++i) {
          if (resolve_ms[i] < 0.0 &&
              futs[i].wait_for(std::chrono::seconds(0)) ==
                  std::future_status::ready) {
            resolve_ms[i] = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - sent[i])
                                .count();
            --remaining;
          }
        }
        std::this_thread::sleep_for(std::chrono::microseconds(500));
      }
      TTSNN_CHECK(remaining == 0, "deadline drill: " << remaining
                                                     << " futures never resolved");
      int64_t ok = 0;
      int64_t missed = 0;
      double diff = 0.0;
      std::vector<double> miss_late_ms;
      for (size_t i = 0; i < futs.size(); ++i) {
        try {
          diff = std::max(diff, max_abs_diff(flat(futs[i].get()), flat(fref)));
          ++ok;
        } catch (const infer::DeadlineError&) {
          ++missed;
          miss_late_ms.push_back(resolve_ms[i] - deadline_ms);
        }
        // Any OTHER exception type propagates and fails the bench.
      }
      TTSNN_CHECK(diff == 0.0, "deadline drill: served outputs diverged");
      double late_p99 = 0.0;
      if (!miss_late_ms.empty()) {
        std::sort(miss_late_ms.begin(), miss_late_ms.end());
        late_p99 = miss_late_ms[bench::p99_index(miss_late_ms.size())];
        TTSNN_CHECK(late_p99 < 500.0,
                    "deadline drill: misses resolved " << late_p99
                                                       << " ms after expiry");
      }
      std::printf("  %-22s %lld served, %lld missed (deadline %.1f ms, "
                  "miss resolved p99 %+.2f ms after expiry)\n",
                  "router_fault/deadline", static_cast<long long>(ok),
                  static_cast<long long>(missed), deadline_ms, late_p99);
      json.add("router_fault/deadline")
          .num("requests", static_cast<double>(n))
          .num("deadline_ms", deadline_ms)
          .num("served", static_cast<double>(ok))
          .num("missed", static_cast<double>(missed))
          .num("miss_resolve_p99_ms", late_p99)
          .num("deadline_misses_stat",
               static_cast<double>(router.stats().deadline_misses));
    }

    // (c) overload + backoff: a queue budget of ~2 samples against many
    // clients. Shed requests carry a retry_after_ms hint; clients retry
    // under capped exponential backoff seeded by that hint. Every request
    // must eventually serve.
    {
      const int64_t sample_bytes =
          fx.numel() * static_cast<int64_t>(sizeof(float));
      infer::Router router(engine, {.num_shards = 1,
                                    .max_batch = 2,
                                    .max_delay_ms = 1.0,
                                    .dispatchers_per_shard = 1,
                                    .queue_bytes = 2 * sample_bytes});
      const int clients = std::min(args.clients, 8);
      const int64_t per_client = args.base.quick ? 4 : 8;
      std::atomic<int64_t> sheds{0};
      std::atomic<int64_t> served{0};
      double diff = 0.0;
      std::mutex diff_mu;
      std::vector<std::thread> threads;
      threads.reserve(static_cast<size_t>(clients));
      for (int c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
          for (int64_t i = 0; i < per_client; ++i) {
            for (int attempt = 0;; ++attempt) {
              try {
                Tensor out = router.infer(fx, static_cast<uint64_t>(c));
                const double d = max_abs_diff(flat(std::move(out)), flat(fref));
                std::lock_guard<std::mutex> lock(diff_mu);
                diff = std::max(diff, d);
                ++served;
                break;
              } catch (const infer::AdmissionError& e) {
                ++sheds;
                // Capped exponential backoff seeded by the router's own
                // queue-depth hint: hint, 2*hint, 4*hint, ... capped at
                // 50 ms so recovery is prompt once the queue drains.
                const double hint = std::max(e.retry_after_ms(), 0.5);
                const double wait_ms =
                    std::min(hint * std::pow(2.0, attempt), 50.0);
                std::this_thread::sleep_for(
                    std::chrono::duration<double, std::milli>(wait_ms));
              }
            }
          }
        });
      }
      for (std::thread& t : threads) t.join();
      const int64_t want = static_cast<int64_t>(clients) * per_client;
      TTSNN_CHECK(served.load() == want,
                  "backoff drill: " << served.load() << " of " << want
                                    << " requests served");
      TTSNN_CHECK(diff == 0.0, "backoff drill: served outputs diverged");
      std::printf("  %-22s %lld requests served after %lld sheds "
                  "(budget %lld bytes)\n",
                  "router_fault/backoff", static_cast<long long>(want),
                  static_cast<long long>(sheds.load()),
                  static_cast<long long>(2 * sample_bytes));
      json.add("router_fault/backoff")
          .num("requests", static_cast<double>(want))
          .num("sheds", static_cast<double>(sheds.load()))
          .num("served", static_cast<double>(served.load()))
          .num("queue_bytes", static_cast<double>(2 * sample_bytes));
    }
  }

  json.write(args.base.out);
  return 0;
}
