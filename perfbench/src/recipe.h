#pragma once

// The one model every workload uses — MS-ResNet18 factorized in HTT mode
// (rank fraction 0.5, schedule 1100) on seeded 2-channel event clips, T = 4 —
// and the seeded inputs built from --seed.

#include <memory>
#include <vector>

#include "bench.h"
#include "core/factorize.h"
#include "core/flops.h"
#include "data/synthetic_event.h"
#include "nn/module.h"
#include "snn/trainer.h"

namespace perfbench {

struct Recipe {
  int64_t width = 16;  ///< base width of MS-ResNet18
  int64_t size = 24;   ///< clip height and width
  int64_t classes = 10;
  int64_t timesteps = 4;
  int64_t batch = 16;
  int64_t train_per_class = 16;  ///< 160 clips: 10 steps per epoch
  int64_t test_per_class = 2;
};

/// Sub-seed streams of derive_seed(), one per generated input.
enum Stream : uint64_t {
  kTrainData = 1,
  kTestData,
  kTrainerOrder,
  kServeClips,
  kRequestOrder,
};

ttsnn::SyntheticEventDataset make_events(const Recipe& r, int64_t per_class,
                                         int64_t size, uint64_t seed);

/// Training options of every workload: SGD at a constant rate with NDA
/// shift augmentation (no flip, no cutout) and prefetch 2.
ttsnn::TrainConfig train_config(const Recipe& r, uint64_t seed);

/// Data, dense-then-factorized model, and the analytic stats of both.
struct Setup {
  std::unique_ptr<ttsnn::SyntheticEventDataset> train, test;
  ttsnn::ModulePtr model;
  ttsnn::ModelStats dense_stats, stats;
  double factorize_s = 0.0;
};

/// Builds data and the model and runs factorize_network (TT-SVD of the
/// dense initialization, HTT mode). Deterministic for (recipe, seed). The
/// initial weights do not depend on the seed: every seed measures the same
/// network on other inputs, so a seed cannot move the cost of a step through
/// the spike densities of another initialization.
Setup make_setup(const Recipe& r, uint64_t seed);

/// The same architecture with random TT cores (no TT-SVD): the load target
/// of a checkpoint written from a make_setup() model.
ttsnn::ModulePtr make_skeleton(const Recipe& r);

/// Per-sample clips [T, C, H, W] split out of one get_batch.
std::vector<ttsnn::Tensor> make_clips(const ttsnn::Dataset& data,
                                      int64_t count, int64_t timesteps,
                                      std::vector<int64_t>* labels);

/// {0, 1, ..., n - 1}: every clip, for stack_clips.
std::vector<size_t> first_n(size_t n);

/// Stacks clips [T, C, H, W] into one batch [T, N, C, H, W].
ttsnn::Tensor stack_clips(const std::vector<ttsnn::Tensor>& clips,
                          const std::vector<size_t>& which);

/// The clips a closed loop sends, in order: `count` indices into a pool of
/// `clips` clips, a pure function of (seed, count, clips).
std::vector<size_t> make_request_order(uint64_t seed, int64_t count, int64_t clips);

/// Bitwise equality of two tensors (shape and every float's bits).
bool bit_equal(const ttsnn::Tensor& a, const ttsnn::Tensor& b);

/// core.params_m / core.flops_g of the factorized model, with the dense
/// model's beside them (the paper's compression ratios).
void add_model_metrics(Result& res, const ttsnn::ModelStats& dense,
                       const ttsnn::ModelStats& factorized, int64_t timesteps);

}  // namespace perfbench
