// Workload train_htt_event: Trainer::run_epoch at batch 16 (NDA shift
// augmentation, prefetch 2) on the HTT-factorized MS-ResNet18, then
// Trainer::time_batch. Its time is core/nn/tensor forward + backward with the
// DataLoader beside it; it never enters infer.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "bench.h"
#include "probe.h"
#include "recipe.h"
#include "snn/profile.h"
#include "tensor/arena.h"
#include "trace.h"

namespace perfbench {

using namespace ttsnn;

namespace {

constexpr int kSetups = 3;
/// Epochs every pass runs at least; `loss` is the mean loss of epoch
/// kLossEpoch, fixed so it is bit-repeatable for a seed at any speed.
constexpr int64_t kMinEpochs = 3;
constexpr int64_t kLossEpoch = 2;
/// Untraced passes follow every epoch with one Trainer::time_batch call of
/// this many repetitions, so both metrics sample the whole window.
constexpr int64_t kTimeBatchReps = 2;

struct Pass {
  std::vector<double> step_ms;   ///< per optimizer step, data wait included
  std::vector<double> losses;    ///< per epoch mean loss
  std::vector<double> batch_ms;  ///< per time_batch call (mean of its reps)
  int64_t steps = 0;
  int64_t samples = 0;
  int64_t attempted = 0, failed = 0;  ///< operations of this pass
  double epoch_s = 0.0;      ///< sum of EpochStats::seconds
  double data_wait_s = 0.0;  ///< sum of EpochStats::data_wait_seconds
  double cpu_per_wall = 0.0;
  double steal = 0.0;
  double arena_hit_ratio = 0.0;
  std::vector<double> host_ms;  ///< host_probe_ms() before every epoch
};

/// One pass of `seconds` over a fresh setup: a warm-up time_batch (pool
/// threads, first-touch pages), then epochs until the window is spent, each
/// followed by a time_batch call unless traced. A step's wall time runs from
/// its root forward to the next one (to the end of run_epoch for the last).
/// With a `tracer`, it records the epochs only, not the warm-up.
Pass train_pass(Setup& s, const Recipe& r, const Args& args, double seconds,
                Tracer* tracer, Result& res) {
  const bool traced = tracer != nullptr;
  std::unique_ptr<TimedDataset> timed_data;
  const Dataset* data = s.train.get();
  if (traced) {
    install_leaf_timers(*s.model);
    timed_data = std::make_unique<TimedDataset>(*s.train);
    data = timed_data.get();
  }
  auto root = std::make_unique<TimedModule>(std::move(s.model), "nn.forward",
                                            "nn.backward", /*root=*/true);
  const TimedModule& clock_root = *root;
  s.model = std::move(root);
  Trainer trainer(*s.model, *data, *s.test, train_config(r, args.seed));
  trainer.time_batch(1);
  if (tracer) tracer->install();

  Pass p;
  const int64_t attempted0 = res.attempted, failed0 = res.failed;
  const ArenaStats arena0 = Arena::instance().stats();
  PhaseClock clock;
  for (int64_t e = 0; e < kMinEpochs || clock.wall_s() < seconds; ++e) {
    p.host_ms.push_back(host_probe_ms());
    const size_t first = clock_root.forward_starts().size();
    EpochStats st;
    {
      ScopedSpan span("snn.run_epoch", e);
      st = trainer.run_epoch(e);
    }
    const double end = now_s();
    const std::vector<double>& starts = clock_root.forward_starts();
    for (size_t i = first; i < starts.size(); ++i) {
      p.step_ms.push_back(1e3 * ((i + 1 < starts.size() ? starts[i + 1] : end) - starts[i]));
    }
    const int64_t steps = static_cast<int64_t>(starts.size() - first);
    p.steps += steps;
    p.samples += steps * r.batch;
    p.epoch_s += st.seconds;
    p.data_wait_s += st.data_wait_seconds;
    p.losses.push_back(st.loss);
    res.attempted += steps;
    if (!std::isfinite(st.loss)) {
      res.fail("epoch " + std::to_string(e) + " loss is not finite");
    }
    if (!traced) {
      p.batch_ms.push_back(1e3 * trainer.time_batch(kTimeBatchReps));
      res.attempted += kTimeBatchReps;
    }
  }
  Tracer::uninstall();
  const ArenaStats arena1 = Arena::instance().stats();
  const double lookups = static_cast<double>((arena1.hits - arena0.hits) +
                                             (arena1.misses - arena0.misses));
  p.arena_hit_ratio =
      lookups > 0 ? static_cast<double>(arena1.hits - arena0.hits) / lookups : 0.0;
  p.cpu_per_wall = clock.cpu_per_wall();
  p.steal = clock.steal();
  p.attempted = res.attempted - attempted0;
  p.failed = res.failed - failed0;
  return p;
}

void print_pass(const char* label, const Pass& p, const Recipe& r) {
  std::printf("%s: %lld operations, %lld failed; %lld steps of %lld in %.2f s "
              "(%.1f samples/s), step %.1f ms, data wait %.3f s, time_batch %.1f ms, "
              "loss[%lld] %.6f, cpu/wall %.2f, steal %.3f, host probe %.3f ms\n",
              label, static_cast<long long>(p.attempted), static_cast<long long>(p.failed),
              static_cast<long long>(p.steps),
              static_cast<long long>(r.batch), p.epoch_s,
              static_cast<double>(p.samples) / p.epoch_s, trimmed_mean(p.step_ms),
              p.data_wait_s, trimmed_mean(p.batch_ms),
              static_cast<long long>(kLossEpoch),
              p.losses[static_cast<size_t>(kLossEpoch)], p.cpu_per_wall, p.steal,
              median(p.host_ms));
  std::printf("%s: epoch losses", label);
  for (double l : p.losses) std::printf(" %.4f", l);
  std::printf("\n");
}

double ttconv_macs(const ModelStats& stats) {
  double macs = 0.0;
  for (const LayerDesc& d : stats.layers) {
    if (d.kind == "ttconv") macs += static_cast<double>(d.macs) * d.utilization;
  }
  return macs;
}

double dense_conv_macs(const ModelStats& stats) {
  double macs = 0.0;
  for (const LayerDesc& d : stats.layers) {
    if (d.kind == "conv") macs += static_cast<double>(d.macs) * d.utilization;
  }
  return macs;
}

}  // namespace

Result run_train(const Args& args) {
  const Recipe r;
  Result res;
  std::vector<double> setup_s, factorize_s;
  Setup s;
  for (int i = 0; i < kSetups; ++i) {
    s = {};  // one set-up alive at a time, so peak_rss_mb counts one
    release_freed_memory();
    const double t0 = now_s();
    s = make_setup(r, args.seed);
    setup_s.push_back(now_s() - t0);
    factorize_s.push_back(s.factorize_s);
  }
  std::printf("setup: median %.3f s of %d (factorize_network %.3f s); "
              "%s dense -> %s HTT\n",
              median(setup_s), kSetups, median(factorize_s),
              stats_summary(s.dense_stats, r.timesteps).c_str(),
              stats_summary(s.stats, r.timesteps).c_str());

  // A traced run spends half its window untraced (the overhead reference)
  // and half traced; an untraced run measures the whole window.
  const double seconds = args.trace ? args.seconds / 2 : args.seconds;
  const Pass plain = train_pass(s, r, args, seconds, /*tracer=*/nullptr, res);
  print_pass("train", plain, r);
  const double loss = plain.losses[static_cast<size_t>(kLossEpoch)];

  if (!args.trace) {
    res.add("setup_s", "s", median(setup_s));
    res.add("peak_rss_mb", "MB", peak_rss_mb());
    res.add("latency_ms", "ms", trimmed_mean(plain.step_ms));
    res.add("batch_time_ms", "ms", trimmed_mean(plain.batch_ms));
    res.add("loss", "nats", loss);
    return res;
  }

  // Traced pass on an identical fresh setup: the decorators must not change
  // a single bit of the training arithmetic.
  Setup t = make_setup(r, args.seed);
  Tracer tracer;
  const Pass traced = train_pass(t, r, args, seconds, &tracer, res);
  print_pass("traced", traced, r);
  const double traced_loss = traced.losses[static_cast<size_t>(kLossEpoch)];
  if (std::memcmp(&loss, &traced_loss, sizeof loss) != 0) {
    res.fail("traced loss differs from the untraced loss of the same seed");
  }

  const std::vector<Tensor> held_out = make_clips(*t.test, r.batch, r.timesteps, nullptr);
  const SpikeProfile profile =
      profile_spikes(*t.model, stack_clips(held_out, first_n(held_out.size())));
  const SynopReport synops =
      inference_synops(t.stats, profile.lif_densities, r.timesteps);

  const std::vector<Span> spans = tracer.spans();
  const auto totals = aggregate(spans);
  auto get = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? SpanTotals{} : it->second;
  };
  const double steps = static_cast<double>(get("nn.forward").calls);
  TTSNN_CHECK(steps == static_cast<double>(traced.steps),
              "root forward spans (" << steps << ") != optimizer steps ("
                                     << traced.steps << ")");
  auto per_step_ms = [&](double seconds) { return 1e3 * seconds / steps; };
  const double wall = get("snn.run_epoch").total;
  const double fwd = get("nn.forward").total;
  const double bwd = get("nn.backward").total;
  const double rest = get("snn.run_epoch").self - traced.data_wait_s;
  const char* leaves[] = {"nn.conv.fwd", "nn.conv.bwd", "nn.lif.fwd",
                          "nn.lif.bwd", "nn.bn.fwd", "nn.bn.bwd",
                          "core.ttconv.fwd", "core.ttconv.bwd"};
  double parts = traced.data_wait_s + rest + get("nn.forward").self +
                 get("nn.backward").self;
  for (const char* leaf : leaves) parts += get(leaf).self;
  std::printf("reconcile: traced wall %.4f s = data wait + step rest + "
              "nn.rest + leaf self times = %.4f s\n",
              wall, parts);
  if (std::abs(parts - wall) > 1e-6 * wall) res.fail("trace does not reconcile");

  const double batch_steps = steps * static_cast<double>(r.batch * r.timesteps);
  res.add("data.get_batch_ms", "ms",
          1e3 * get("data.get_batch").total /
              static_cast<double>(std::max<int64_t>(1, get("data.get_batch").calls)));
  res.add("snn.data_wait_ms", "ms", per_step_ms(traced.data_wait_s));
  res.add("snn.step_ms", "ms", per_step_ms(wall));
  res.add("snn.step_rest_ms", "ms", per_step_ms(rest));
  res.add("nn.forward_ms", "ms", per_step_ms(fwd));
  res.add("nn.backward_ms", "ms", per_step_ms(bwd));
  res.add("nn.conv.fwd_ms", "ms", per_step_ms(get("nn.conv.fwd").self));
  res.add("nn.conv.bwd_ms", "ms", per_step_ms(get("nn.conv.bwd").self));
  res.add("nn.lif.fwd_ms", "ms", per_step_ms(get("nn.lif.fwd").self));
  res.add("nn.lif.bwd_ms", "ms", per_step_ms(get("nn.lif.bwd").self));
  res.add("nn.bn.fwd_ms", "ms", per_step_ms(get("nn.bn.fwd").self));
  res.add("nn.bn.bwd_ms", "ms", per_step_ms(get("nn.bn.bwd").self));
  res.add("nn.rest.fwd_ms", "ms", per_step_ms(get("nn.forward").self));
  res.add("nn.rest.bwd_ms", "ms", per_step_ms(get("nn.backward").self));
  res.add("nn.conv.gflops", "GMAC/s",
          dense_conv_macs(t.stats) * batch_steps / get("nn.conv.fwd").self / 1e9);
  res.add("nn.spike_density", "fraction", profile.mean_density);
  res.add("core.ttconv.fwd_ms", "ms", per_step_ms(get("core.ttconv.fwd").self));
  res.add("core.ttconv.bwd_ms", "ms", per_step_ms(get("core.ttconv.bwd").self));
  res.add("core.ttconv.gflops", "GMAC/s",
          ttconv_macs(t.stats) * batch_steps / get("core.ttconv.fwd").self / 1e9);
  res.add("core.synops_per_sample", "ops", synops.total());
  res.add("tt.factorize_ms", "ms", 1e3 * median(factorize_s));
  res.add("tensor.arena.hit_ratio", "fraction", traced.arena_hit_ratio);
  res.add("util.cpu_per_wall", "cores", plain.cpu_per_wall);
  res.add("bench.steal_frac", "fraction", plain.steal);
  res.add("bench.host_probe_ms", "ms", median(plain.host_ms));
  res.add("bench.trace_overhead", "ratio",
          trimmed_mean(traced.step_ms) / trimmed_mean(plain.step_ms));
  add_model_metrics(res, s.dense_stats, s.stats, r.timesteps);
  write_trace(tracer, args);
  return res;
}

}  // namespace perfbench
