// Quickstart for the inference stack: train-side model -> checkpoint ->
// compiled engine -> sharded serving router.
//
//   1. Build and factorize a model with the training API (here: a scaled
//      MS-ResNet18 in PTT mode; a real run would Trainer::fit() it first).
//   2. save_parameters() writes weights AND BatchNorm running statistics.
//   3. A serving process reconstructs the architecture, then
//      compile_checkpoint() loads the checkpoint and lowers the module tree
//      into an immutable, thread-safe infer::Engine.
//   4. infer::Router clones the plan across shard replicas and coalesces
//      single-sample requests into same-shape micro-batches per shard —
//      mixed request shapes never block each other. A single-replica
//      deployment is the same router with num_shards = 1.
//   5. Serving is shape-general: each new input resolution compiles its
//      program once (single-flight, LRU byte budget) and every later
//      request of that shape is a cache hit. Requests carry a priority
//      class, and a queue-byte budget sheds overload as AdmissionError
//      at submit time instead of letting queues grow without bound.

#include <cstdio>
#include <future>
#include <vector>

#include "core/factorize.h"
#include "core/models.h"
#include "infer/engine.h"
#include "infer/router.h"
#include "snn/serialize.h"
#include "tensor/ops.h"

using namespace ttsnn;

namespace {

ModulePtr build_model(uint64_t seed) {
  Rng rng(seed);
  ModelConfig cfg;
  cfg.in_channels = 3;
  cfg.num_classes = 10;
  cfg.base_width = 8;
  cfg.timesteps = 4;
  ModulePtr net = make_ms_resnet18(cfg, rng);
  FactorizeOptions fopts;
  fopts.mode = TTMode::kPTT;
  fopts.use_vbmf = false;
  fopts.rank_fraction = 0.4;
  factorize_network(*net, fopts, rng);
  return net;
}

}  // namespace

int main() {
  const std::string ckpt = "/tmp/ttsnn_serve_quickstart.bin";

  // --- training side -------------------------------------------------------
  {
    ModulePtr net = build_model(/*seed=*/1);
    // Stand-in for Trainer::fit(): a couple of training forwards so the BN
    // running statistics are real.
    Rng data_rng(7);
    net->set_training(true);
    for (int i = 0; i < 2; ++i) {
      net->forward(Tensor::uniform({4, 4, 3, 12, 12}, data_rng));
    }
    net->clear_cache();
    save_parameters(*net, ckpt);
    std::printf("saved checkpoint: %s\n", ckpt.c_str());
  }

  // --- serving side --------------------------------------------------------
  // Rebuild the architecture (any seed: the checkpoint overwrites it), load
  // and compile. The unmerged plan is the FLOP-cheap one on CPU; pass
  // default options instead to get the merged spike-hardware kernels.
  ModulePtr arch = build_model(/*seed=*/99);
  infer::Engine engine = infer::compile_checkpoint(
      *arch, ckpt, {.merge_tt = false, .fold_batchnorm = true});
  std::printf("compiled plan (%zu ops):\n%s", engine.num_ops(),
              engine.summary().c_str());

  // Typed weight planes: the same checkpoint can serve with compressed
  // weights — bf16 halves the footprint; int8 quarters it for spike-fed
  // layers (per-output-channel scales, calibrated after BN folding). All
  // three engines below share the merged lowering so the bytes compare
  // like-for-like; f32 remains the bit-identical default. Per-dtype byte
  // accounting comes straight from the engine's weight footprint (also
  // surfaced in RouterStats for a running fleet).
  for (const WeightDtype dtype :
       {WeightDtype::kF32, WeightDtype::kBf16, WeightDtype::kInt8}) {
    ModulePtr a = build_model(/*seed=*/99);
    infer::Engine e =
        infer::compile_checkpoint(*a, ckpt, {.weight_dtype = dtype});
    const infer::WeightFootprint& fp = e.weight_footprint();
    std::printf("weight footprint, %-4s plan: %7lld bytes "
                "(f32 %lld, bf16 %lld, int8+scales %lld)\n",
                weight_dtype_name(dtype), static_cast<long long>(fp.total()),
                static_cast<long long>(fp.f32_bytes),
                static_cast<long long>(fp.bf16_bytes),
                static_cast<long long>(fp.int8_bytes));
  }

  // Two engine replicas (cloned plans over shared weights AND a shared
  // program cache), each with its own per-(shape, class) queues; the
  // session key routes a client's traffic to a stable shard. Mixed shapes
  // — here the image size and a smaller event-style clip — coalesce
  // independently instead of queueing behind each other, and an idle
  // shard steals ready batches from a loaded one. `queue_bytes` puts a
  // per-shard budget on queued sample bytes: submits past it throw
  // infer::AdmissionError synchronously ("overloaded, back off") instead
  // of growing the queue without bound.
  infer::Router router(engine, {.num_shards = 2, .max_batch = 4,
                                .max_delay_ms = 2.0,
                                .queue_bytes = 64 << 20});
  Rng rng(42);
  std::vector<std::future<Tensor>> futures;
  for (int i = 0; i < 8; ++i) {
    Tensor sample = (i % 4 == 3) ? Tensor::uniform({4, 3, 8, 8}, rng)
                                 : Tensor::uniform({4, 3, 12, 12}, rng);
    // Interactive requests dispatch before batch-class ones whenever both
    // are ready on a shard; within a class, oldest group first.
    const infer::Priority cls =
        (i % 2 == 0) ? infer::Priority::kInteractive : infer::Priority::kBatch;
    futures.push_back(router.submit(std::move(sample),
                                    /*session=*/static_cast<uint64_t>(i), cls));
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    Tensor logits_t = futures[i].get();  // [T, classes]
    // Rate decoding: class scores are logits summed over timesteps.
    const int64_t classes = logits_t.size(-1);
    Tensor scores({classes});
    for (int64_t t = 0; t < logits_t.size(0); ++t) {
      for (int64_t c = 0; c < classes; ++c) {
        scores[c] += logits_t[t * classes + c];
      }
    }
    std::printf("request %zu -> class %lld\n", i,
                static_cast<long long>(scores.argmax()));
  }
  infer::RouterStats stats = router.stats();
  std::printf("served %lld requests in %lld batches (mean batch %.1f)\n",
              static_cast<long long>(stats.requests),
              static_cast<long long>(stats.batches), stats.mean_batch());
  for (size_t s = 0; s < stats.shard_requests.size(); ++s) {
    std::printf("  shard %zu: %lld requests in %lld batches, %lld stolen\n", s,
                static_cast<long long>(stats.shard_requests[s]),
                static_cast<long long>(stats.shard_batches[s]),
                static_cast<long long>(stats.shard_steals[s]));
  }
  std::printf("plan cache: %lld shape(s), %lld bytes, %lld hits / %lld "
              "misses, %lld shed\n",
              static_cast<long long>(stats.cache_shapes),
              static_cast<long long>(stats.cache_bytes),
              static_cast<long long>(stats.cache_hits),
              static_cast<long long>(stats.cache_misses),
              static_cast<long long>(stats.shed));
  std::remove(ckpt.c_str());
  return 0;
}
