#include "recipe.h"

#include <cstring>

#include "bench.h"
#include "core/models.h"
#include "probe.h"

namespace perfbench {

using namespace ttsnn;

SyntheticEventDataset make_events(const Recipe& r, int64_t per_class,
                                  int64_t size, uint64_t seed) {
  return SyntheticEventDataset({.num_classes = r.classes,
                                .samples_per_class = per_class,
                                .size = size,
                                .seed = seed});
}

TrainConfig train_config(const Recipe& r, uint64_t seed) {
  TrainConfig cfg;
  cfg.epochs = 1;  // only sizes the cosine schedule, which is off
  cfg.batch_size = r.batch;
  cfg.timesteps = r.timesteps;
  cfg.lr = 0.01F;
  cfg.cosine_lr = false;
  cfg.augment = true;
  cfg.augment_opts = {.max_shift = 2, .hflip = false, .cutout_size = 0};
  cfg.prefetch = 2;
  cfg.seed = derive_seed(seed, kTrainerOrder);
  return cfg;
}

namespace {

constexpr uint64_t kModelSeed = 20240325;

ModelConfig model_config(const Recipe& r) {
  return {.in_channels = 2,
          .num_classes = r.classes,
          .base_width = r.width,
          .timesteps = r.timesteps};
}

FactorizeOptions htt_options(const Recipe& r, bool init_from_dense) {
  FactorizeOptions f;
  f.mode = TTMode::kHTT;
  f.htt_schedule.assign(static_cast<size_t>(r.timesteps), false);
  for (int64_t t = 0; t < r.timesteps / 2; ++t) {
    f.htt_schedule[static_cast<size_t>(t)] = true;  // "1100" at T = 4
  }
  f.use_vbmf = false;
  f.rank_fraction = 0.5;
  f.init_from_dense = init_from_dense;
  return f;
}

}  // namespace

Setup make_setup(const Recipe& r, uint64_t seed) {
  Setup s;
  s.train = std::make_unique<SyntheticEventDataset>(
      make_events(r, r.train_per_class, r.size, derive_seed(seed, kTrainData)));
  s.test = std::make_unique<SyntheticEventDataset>(
      make_events(r, r.test_per_class, r.size, derive_seed(seed, kTestData)));
  Rng rng(kModelSeed);
  s.model = make_ms_resnet18(model_config(r), rng);
  s.dense_stats = analyze_model(*s.model, 2, r.size, r.size);
  const double t0 = now_s();
  factorize_network(*s.model, htt_options(r, /*init_from_dense=*/true), rng);
  s.factorize_s = now_s() - t0;
  s.stats = analyze_model(*s.model, 2, r.size, r.size);
  return s;
}

ModulePtr make_skeleton(const Recipe& r) {
  Rng rng(0);
  ModulePtr model = make_ms_resnet18(model_config(r), rng);
  factorize_network(*model, htt_options(r, /*init_from_dense=*/false), rng);
  return model;
}

std::vector<Tensor> make_clips(const Dataset& data, int64_t count,
                               int64_t timesteps, std::vector<int64_t>* labels) {
  // Evenly spaced indices: every class appears (labels follow index order).
  std::vector<int64_t> idx(static_cast<size_t>(count));
  for (int64_t i = 0; i < count; ++i) idx[static_cast<size_t>(i)] = i * data.size() / count;
  const Batch batch = data.get_batch(idx, timesteps);
  const Shape& bs = batch.input.shape();  // [T, N, C, H, W]
  const int64_t per_sample = bs[2] * bs[3] * bs[4];
  std::vector<Tensor> clips;
  for (int64_t n = 0; n < count; ++n) {
    Tensor clip = Tensor::empty({bs[0], bs[2], bs[3], bs[4]});
    for (int64_t t = 0; t < bs[0]; ++t) {
      std::memcpy(clip.data() + t * per_sample,
                  batch.input.data() + (t * count + n) * per_sample,
                  sizeof(float) * static_cast<size_t>(per_sample));
    }
    clips.push_back(std::move(clip));
  }
  if (labels) *labels = batch.labels;
  return clips;
}

std::vector<size_t> first_n(size_t n) {
  std::vector<size_t> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = i;
  return v;
}

Tensor stack_clips(const std::vector<Tensor>& clips,
                   const std::vector<size_t>& which) {
  const Shape& cs = clips.at(which.at(0)).shape();  // [T, C, H, W]
  const int64_t n = static_cast<int64_t>(which.size());
  const int64_t per_sample = cs[1] * cs[2] * cs[3];
  Tensor batch = Tensor::empty({cs[0], n, cs[1], cs[2], cs[3]});
  for (int64_t b = 0; b < n; ++b) {
    const Tensor& clip = clips.at(which[static_cast<size_t>(b)]);
    for (int64_t t = 0; t < cs[0]; ++t) {
      std::memcpy(batch.data() + (t * n + b) * per_sample,
                  clip.data() + t * per_sample,
                  sizeof(float) * static_cast<size_t>(per_sample));
    }
  }
  return batch;
}

std::vector<size_t> make_request_order(uint64_t seed, int64_t count, int64_t clips) {
  TTSNN_CHECK(clips > 0, "make_request_order: no clips");
  Rng rng(derive_seed(seed, kRequestOrder));
  std::vector<size_t> order(static_cast<size_t>(count));
  for (size_t& clip : order) clip = static_cast<size_t>(rng.index(clips));
  return order;
}

bool bit_equal(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     sizeof(float) * static_cast<size_t>(a.numel())) == 0;
}

void add_model_metrics(Result& res, const ModelStats& dense,
                       const ModelStats& factorized, int64_t timesteps) {
  res.add("core.params_m", "M", factorized.params_m());
  res.add("core.flops_g", "GMAC", factorized.flops_g(timesteps));
  res.add("core.dense_params_m", "M", dense.params_m());
  res.add("core.dense_flops_g", "GMAC", dense.flops_g(timesteps));
}

}  // namespace perfbench
