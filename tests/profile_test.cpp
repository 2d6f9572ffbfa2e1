// Spike-profiling tests: measured LIF densities feed the HW workload
// (training <-> hardware loop).

#include <gtest/gtest.h>

#include "core/models.h"
#include "data/synthetic_image.h"
#include "hw/sata_baseline.h"
#include "hw/workload.h"
#include "snn/profile.h"

namespace ttsnn {
namespace {

TEST(ProfileTest, DensitiesAreValidFractions) {
  Rng rng(1);
  ModelConfig cfg{.num_classes = 4, .base_width = 8, .timesteps = 3};
  ModulePtr net = make_ms_resnet18(cfg, rng);
  SyntheticImageDataset data({.num_classes = 4, .samples_per_class = 4});
  Batch batch = data.get_batch({0, 1, 2, 3}, 3);
  SpikeProfile profile = profile_spikes(*net, batch.input);
  // MS-ResNet18: 2 LIF per block x 8 blocks + head LIF = 17.
  EXPECT_EQ(profile.lif_densities.size(), 17u);
  for (double d : profile.lif_densities) {
    EXPECT_GE(d, 0.0);
    EXPECT_LE(d, 1.0);
  }
  EXPECT_GT(profile.mean_density, 0.0);  // an untrained net still spikes
  EXPECT_LT(profile.mean_density, 1.0);
}

TEST(ProfileTest, RestoresTrainingMode) {
  Rng rng(2);
  ModelConfig cfg{.num_classes = 4, .base_width = 8, .timesteps = 2};
  ModulePtr net = make_ms_resnet18(cfg, rng);
  SyntheticImageDataset data({.num_classes = 4, .samples_per_class = 2});
  Batch batch = data.get_batch({0, 1}, 2);
  net->set_training(true);
  profile_spikes(*net, batch.input);
  EXPECT_TRUE(net->is_training());
  net->set_training(false);
  profile_spikes(*net, batch.input);
  EXPECT_FALSE(net->is_training());
}

TEST(ProfileTest, MeasuredDensityDrivesEnergy) {
  // Using the profiled density in the workload changes the simulated energy
  // in the expected direction (denser spikes -> more energy).
  Rng rng(3);
  ModelConfig cfg{.num_classes = 4, .base_width = 8, .timesteps = 3};
  ModulePtr net = make_ms_resnet18(cfg, rng);
  SyntheticImageDataset data({.num_classes = 4, .samples_per_class = 4});
  Batch batch = data.get_batch({0, 1, 2, 3}, 3);
  SpikeProfile profile = profile_spikes(*net, batch.input);

  ModelStats stats = analyze_model(*net, 3, 16, 16);
  WorkloadOptions lo;
  lo.spike_density = profile.mean_density * 0.5;
  WorkloadOptions hi;
  hi.spike_density = std::min(1.0, profile.mean_density * 2.0);
  EnergyReport elo = simulate_sata(build_workload("lo", stats, lo));
  EnergyReport ehi = simulate_sata(build_workload("hi", stats, hi));
  EXPECT_LT(elo.total_pj(), ehi.total_pj());
}

}  // namespace
}  // namespace ttsnn
