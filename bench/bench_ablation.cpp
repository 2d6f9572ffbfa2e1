// Design-choice ablations beyond the paper's tables:
//   A. TT-rank sweep — accuracy vs parameter count trade-off.
//   B. Surrogate gradient family — rectangle (paper) vs triangle/atan/sigmoid.
//   C. detach_reset — detaching the LIF reset from the gradient path.
//   D. Spike density — training energy on both accelerator models.
//   E. PTT branch threading — serial vs two-thread strip execution.

#include <cstdio>

#include "bench_util.h"
#include "data/synthetic_image.h"
#include "hw/multi_cluster.h"
#include "hw/sata_baseline.h"
#include "nn/lif.h"

using namespace ttsnn;

namespace {

SyntheticImageDataset make_train() {
  return SyntheticImageDataset({.num_classes = 5, .samples_per_class = 20,
                                .size = 12, .seed = 800});
}
SyntheticImageDataset make_test() {
  return SyntheticImageDataset({.num_classes = 5, .samples_per_class = 8,
                                .size = 12, .seed = 801});
}

BenchSetup base_setup() {
  BenchSetup setup;
  setup.make_model = make_ms_resnet18;
  setup.model = {.in_channels = 3, .num_classes = 5, .base_width = 10,
                 .timesteps = 4};
  setup.input_size = 12;
  setup.train = {.epochs = 6, .batch_size = 16, .timesteps = 4, .lr = 0.08F,
                 .seed = 9};
  return setup;
}

}  // namespace

int main() {
  SyntheticImageDataset train = make_train();
  SyntheticImageDataset test = make_test();

  std::printf("=== A. TT-rank sweep (PTT): accuracy vs parameters ===\n");
  for (double frac : {0.125, 0.25, 0.5, 1.0}) {
    BenchSetup setup = base_setup();
    setup.rank_fraction = frac;
    BenchRun run = run_mode(BenchMode::kPTT, setup, train, test);
    std::printf("rank_fraction %.3f: acc %5.1f%%  params %.4f M  FLOPs %.4f G\n",
                frac, 100.0 * run.accuracy, run.params_m, run.flops_g);
  }

  std::printf("\n=== B. Surrogate gradient family (dense baseline) ===\n");
  const struct {
    const char* name;
    Surrogate kind;
  } surrogates[] = {{"rectangle", Surrogate::kRectangle},
                    {"triangle", Surrogate::kTriangle},
                    {"atan", Surrogate::kAtan},
                    {"sigmoid", Surrogate::kSigmoid}};
  for (const auto& s : surrogates) {
    BenchSetup setup = base_setup();
    setup.model.lif.surrogate = s.kind;
    BenchRun run = run_mode(BenchMode::kBaseline, setup, train, test);
    std::printf("%-10s acc %5.1f%%\n", s.name, 100.0 * run.accuracy);
  }

  std::printf("\n=== C. detach_reset (dense baseline) ===\n");
  for (bool detach : {true, false}) {
    BenchSetup setup = base_setup();
    setup.model.lif.detach_reset = detach;
    BenchRun run = run_mode(BenchMode::kBaseline, setup, train, test);
    std::printf("detach_reset=%-5s acc %5.1f%%\n", detach ? "true" : "false",
                100.0 * run.accuracy);
  }

  std::printf("\n=== D. Spike density vs training energy (both accelerators, "
              "paper-scale ResNet18 PTT) ===\n");
  {
    Rng rng(12);
    ModelConfig cfg;
    cfg.base_width = 64;
    cfg.num_classes = 10;
    cfg.timesteps = 4;
    ModulePtr net = make_ms_resnet18(cfg, rng);
    FactorizeOptions f;
    f.mode = TTMode::kPTT;
    f.use_vbmf = false;
    f.rank_fraction = 0.4;
    f.init_from_dense = false;
    factorize_network(*net, f, rng);
    ModelStats stats = analyze_model(*net, 3, 32, 32);
    for (double density : {0.05, 0.15, 0.3, 0.6, 1.0}) {
      WorkloadOptions w;
      w.timesteps = 4;
      w.spike_density = density;
      HwWorkload wl = build_workload("r18", stats, w);
      std::printf("density %.2f: existing %8.1f uJ   proposed %8.1f uJ\n",
                  density, simulate_sata(wl).total_pj() / 1e6,
                  simulate_multi_cluster(wl).total_pj() / 1e6);
    }
  }

  std::printf("\n=== E. PTT strip threading: serial vs parallel ===\n");
  {
    Rng rng(4);
    BenchSetup setup = base_setup();
    for (bool parallel : {false, true}) {
      ModulePtr net = setup.make_model(setup.model, rng);
      FactorizeOptions f;
      f.mode = TTMode::kPTT;
      f.use_vbmf = false;
      f.rank_fraction = setup.rank_fraction;
      f.parallel_branches = parallel;
      factorize_network(*net, f, rng);
      Trainer trainer(*net, train, test, setup.train);
      const double t = trainer.time_batch(5);
      std::printf("parallel_branches=%-5s %8.4f s/batch\n",
                  parallel ? "true" : "false", t);
    }
  }
  return 0;
}
