#pragma once

/// \file bench_util.h
/// Shared helpers for the table/figure benches: a standard scaled training
/// run over the four execution modes (baseline / STT / PTT / HTT) with the
/// paper's recipe, returning the Table II metrics.
///
/// Thread accounting: every mode runs single-thread GEMMs. PTT/HTT overlap
/// their two strip branches on the shared ThreadPool, mirroring how the
/// paper's PTT overlaps two CUDA streams; baseline and STT have no branches.

#include <cstdio>
#include <string>

#include "core/factorize.h"
#include "core/flops.h"
#include "core/models.h"
#include "snn/trainer.h"

namespace ttsnn {

enum class BenchMode { kBaseline, kSTT, kPTT, kHTT };

inline const char* bench_mode_name(BenchMode m) {
  switch (m) {
    case BenchMode::kBaseline:
      return "baseline";
    case BenchMode::kSTT:
      return "STT";
    case BenchMode::kPTT:
      return "PTT";
    case BenchMode::kHTT:
      return "HTT";
  }
  return "?";
}

struct BenchRun {
  BenchMode mode = BenchMode::kBaseline;
  double accuracy = 0.0;      ///< held-out accuracy in [0, 1]
  double batch_time_s = 0.0;  ///< fwd+bwd wall clock per batch
  double params_m = 0.0;
  double flops_g = 0.0;
};

struct BenchSetup {
  /// Model factory: e.g. make_ms_resnet18. Called fresh per mode.
  ModulePtr (*make_model)(const ModelConfig&, Rng&) = nullptr;
  ModelConfig model;
  int64_t input_size = 12;
  TrainConfig train;
  /// HTT schedule (size == train.timesteps); defaults to first-half full.
  std::vector<bool> htt_schedule;
  double rank_fraction = 0.4;
  uint64_t model_seed = 1;
};

/// Trains one mode from scratch and reports the Table II metrics.
inline BenchRun run_mode(BenchMode mode, const BenchSetup& setup,
                         const Dataset& train, const Dataset& test) {
  Rng rng(setup.model_seed);
  ModulePtr net = setup.make_model(setup.model, rng);

  if (mode != BenchMode::kBaseline) {
    FactorizeOptions f;
    f.mode = mode == BenchMode::kSTT  ? TTMode::kSTT
             : mode == BenchMode::kPTT ? TTMode::kPTT
                                       : TTMode::kHTT;
    f.use_vbmf = false;
    f.rank_fraction = setup.rank_fraction;
    if (f.mode == TTMode::kHTT) {
      f.htt_schedule = setup.htt_schedule;
      if (f.htt_schedule.empty()) {
        f.htt_schedule.assign(static_cast<size_t>(setup.train.timesteps), false);
        for (int64_t t = 0; t < setup.train.timesteps / 2; ++t) {
          f.htt_schedule[static_cast<size_t>(t)] = true;
        }
      }
    }
    factorize_network(*net, f, rng);
  }

  Trainer trainer(*net, train, test, setup.train);
  const FitResult fit = trainer.fit();

  ModelStats stats = analyze_model(*net, setup.model.in_channels,
                                   setup.input_size, setup.input_size);
  BenchRun run;
  run.mode = mode;
  run.accuracy = fit.test_accuracy;
  run.batch_time_s = fit.batch_time_s;
  run.params_m = stats.params_m();
  run.flops_g = stats.flops_g(setup.train.timesteps);
  return run;
}

inline void print_run_row(const char* dataset, const BenchRun& r,
                          const BenchRun& baseline) {
  std::printf("%-14s %-9s acc %5.1f%%  time %7.4f s (%+6.1f%%)  params %6.3f M "
              "(%4.2fx)  FLOPs %6.4f G (%4.2fx)\n",
              dataset, bench_mode_name(r.mode), 100.0 * r.accuracy,
              r.batch_time_s,
              100.0 * (r.batch_time_s / baseline.batch_time_s - 1.0),
              r.params_m, baseline.params_m / r.params_m, r.flops_g,
              baseline.flops_g / r.flops_g);
}

}  // namespace ttsnn
