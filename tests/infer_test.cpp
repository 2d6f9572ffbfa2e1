// Tests for the compiled inference engine: exact (unmerged) lowering must
// reproduce eval-mode Module::forward bit-for-bit in every TT mode —
// including an HTT half-step schedule and stride-2 layers; merged lowering
// must match merge_network() bit-for-bit, and merged HTT the gathered
// per-class convolutions it replaced; Engine::run must be thread-safe
// (identical bits from concurrent callers); and the save -> load -> compile
// pipeline must reproduce the original model. Serving front-end tests live
// in router_test.

#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/factorize.h"
#include "core/models.h"
#include "infer/engine.h"
#include "nn/containers.h"
#include "snn/serialize.h"
#include "tensor/im2col.h"
#include "tensor/ops.h"
#include "tensor/simd.h"

namespace ttsnn {
namespace {

ModelConfig small_config() {
  ModelConfig cfg;
  cfg.in_channels = 3;
  cfg.num_classes = 4;
  cfg.base_width = 8;
  cfg.timesteps = 4;
  return cfg;
}

/// Factorized MS-ResNet18 with a few training forwards so the BN running
/// statistics move off their init values (otherwise BN folding and the
/// buffer round-trip would be vacuous).
ModulePtr trained_model(TTMode mode, Rng& rng, int64_t timesteps = 4) {
  ModelConfig cfg = small_config();
  cfg.timesteps = timesteps;
  ModulePtr net = make_ms_resnet18(cfg, rng);
  FactorizeOptions fopts;
  fopts.mode = mode;
  fopts.use_vbmf = false;
  fopts.rank_fraction = 0.5;
  if (mode == TTMode::kHTT) {
    // Half-step schedule: full, half, full, half.
    fopts.htt_schedule = {true, false, true, false};
    fopts.htt_schedule.resize(static_cast<size_t>(timesteps));
  }
  factorize_network(*net, fopts, rng);
  net->set_training(true);
  for (int i = 0; i < 2; ++i) {
    Tensor warm = Tensor::uniform({timesteps, 2, 3, 8, 8}, rng);
    net->forward(warm);
  }
  net->clear_cache();
  net->set_training(false);
  return net;
}

class InferModeTest : public ::testing::TestWithParam<TTMode> {};

TEST_P(InferModeTest, ExactEngineBitIdenticalToEvalModule) {
  Rng rng(11);
  ModulePtr net = trained_model(GetParam(), rng);
  Tensor x = Tensor::uniform({4, 2, 3, 8, 8}, rng);
  Tensor y_ref = net->forward(x);

  infer::Engine engine = infer::compile(
      *net, {.merge_tt = false, .fold_batchnorm = false});
  Tensor y = engine.run(x);
  ASSERT_EQ(y.shape(), y_ref.shape());
  EXPECT_EQ(max_abs_diff(y, y_ref), 0.0) << tt_mode_name(GetParam());
}

TEST_P(InferModeTest, MergedEngineCloseToEvalModule) {
  Rng rng(12);
  ModulePtr net = trained_model(GetParam(), rng);
  Tensor x = Tensor::uniform({4, 2, 3, 8, 8}, rng);
  Tensor y_ref = net->forward(x);

  infer::Engine engine = infer::compile(*net);  // merged + BN folding
  Tensor y = engine.run(x);
  ASSERT_EQ(y.shape(), y_ref.shape());
  // Merged kernels re-associate float contractions, so allow numeric slack.
  EXPECT_LT(max_abs_diff(y, y_ref), 2e-2) << tt_mode_name(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Modes, InferModeTest,
                         ::testing::Values(TTMode::kSTT, TTMode::kPTT,
                                           TTMode::kHTT),
                         [](const auto& info) {
                           return tt_mode_name(info.param);
                         });

// merge_network() replaces TTConv2d with the merged dense kernels; the
// merged engine (without BN folding) must agree with it bit-for-bit. HTT is
// excluded: merge_network is lossy there (it applies the cross kernel on
// half steps too), which is exactly what the engine's per-step plan fixes.
TEST(InferTest, MergedEngineBitIdenticalToMergedNetwork) {
  for (TTMode mode : {TTMode::kSTT, TTMode::kPTT}) {
    Rng rng(13);
    ModulePtr net = trained_model(mode, rng);
    infer::Engine engine =
        infer::compile(*net, {.merge_tt = true, .fold_batchnorm = false});

    merge_network(*net);
    net->set_training(false);
    Tensor x = Tensor::uniform({4, 2, 3, 8, 8}, rng);
    Tensor y_ref = net->forward(x);
    Tensor y = engine.run(x);
    EXPECT_EQ(max_abs_diff(y, y_ref), 0.0) << tt_mode_name(mode);
  }
}

// A bare strided HTT layer with a half-step schedule: the smallest case
// exercising the stride-on-w4 half path and the per-step merged plan.
TEST(InferTest, StridedHttLayerExactAndMerged) {
  Rng rng(14);
  TTConv2d::Options o{.in_channels = 6, .out_channels = 8, .kernel = 3,
                      .stride = 2, .rank = 3, .mode = TTMode::kHTT,
                      .full_step = std::vector<bool>{true, false, false, true}};
  TTConv2d conv(o, rng);
  conv.set_training(false);
  Tensor x = Tensor::uniform({4, 3, 6, 10, 10}, rng);
  Tensor y_ref = conv.forward(x);

  infer::Engine exact = infer::compile(
      conv, {.merge_tt = false, .fold_batchnorm = false});
  EXPECT_EQ(max_abs_diff(exact.run(x), y_ref), 0.0);

  infer::Engine merged = infer::compile(conv);
  Tensor y_merged = merged.run(x);
  ASSERT_EQ(y_merged.shape(), y_ref.shape());
  EXPECT_LT(max_abs_diff(y_merged, y_ref), 1e-4);
}

/// Test-side reference for one merged HTT conv op over x [T, N, C, H, W]:
/// each class of steps gathered with gather_steps, convolved by
/// conv_forward with the op's own operand (f32 tensor, bf16 plane
/// dequantized, int8 plane) and scattered back — the algorithm the engine's
/// per-step kernel pick replaced.
Tensor gathered_htt_conv(const infer::Op& op, const Tensor& x) {
  std::vector<int64_t> full_idx;
  std::vector<int64_t> half_idx;
  for (int64_t t = 0; t < x.size(0); ++t) {
    (op.tt.full_step[static_cast<size_t>(t)] ? full_idx : half_idx)
        .push_back(t);
  }
  Tensor y;
  auto run_class = [&](const std::vector<int64_t>& idx, const Tensor& weight,
                       const WeightPlane& plane, const Conv2d::Options& o) {
    if (idx.empty()) return;
    const Tensor xs = gather_steps(x, idx);
    const ConvGeometry g = o.geometry(x.size(3), x.size(4));
    ConvWeights w{.out_channels = o.out_channels};
    std::vector<float> dequant;
    if (!plane.quantized()) {
      w.f32 = weight.data();
    } else if (plane.dtype() == WeightDtype::kBf16) {
      dequant.resize(static_cast<size_t>(plane.numel()));
      simd::dequant_bf16(plane.numel(), plane.bf16_data(), dequant.data());
      w.f32 = dequant.data();
    } else {
      w.s8 = plane.int8_data();
      w.scales = plane.scales().data();
    }
    const size_t col = static_cast<size_t>(g.col_rows() * g.col_cols());
    std::vector<float> col_buf(col);
    std::vector<uint8_t> u8(col);
    Tensor ys = Tensor::empty({xs.size(0), x.size(1), o.out_channels,
                               g.out_h(), g.out_w()});
    conv_forward(g, xs.size(0) * x.size(1), xs.data(), w, col_buf.data(),
                 u8.data(), ys.data());
    if (!y.defined()) {
      Shape s = ys.shape();
      s[0] = x.size(0);
      y = Tensor::empty(s);
    }
    scatter_steps(y, ys, idx);
  };
  run_class(full_idx, op.weight, op.plane, op.conv);
  run_class(half_idx, op.half_kernel, op.half_plane, op.half_conv);
  return y;
}

// Merged HTT against the gathered reference, bitwise, on every weight dtype:
// the conv's own output (LIF -> HTT, so int8 applies), and the spikes of a
// trailing LIF with fusion on (the LIF runs as the conv's epilogue) and off.
// Schedule 0110 starts on a half step.
TEST(InferTest, MergedHttMatchesGatheredKernelsBitwise) {
  const std::vector<std::vector<bool>> schedules = {
      {true, true, false, false},
      {true, false, true, false},
      {false, true, true, false}};
  for (const std::vector<bool>& schedule : schedules) {
    for (int64_t stride : {1, 2}) {
      // Identical weights in both models: same seed, same construction order.
      auto make = [&](bool trailing_lif) {
        Rng rng(71 + stride);
        auto net = std::make_unique<Sequential>();
        net->emplace<LIFNeuron>();
        net->emplace<TTConv2d>(
            TTConv2d::Options{.in_channels = 6, .out_channels = 8, .kernel = 3,
                              .stride = stride, .rank = 3,
                              .mode = TTMode::kHTT, .full_step = schedule},
            rng);
        if (trailing_lif) net->emplace<LIFNeuron>();
        net->set_training(false);
        return net;
      };
      const std::unique_ptr<Sequential> conv_net = make(false);
      const std::unique_ptr<Sequential> lif_net = make(true);
      Rng rng(5);
      const Tensor x = Tensor::uniform({4, 3, 6, 10, 10}, rng);
      const Tensor spikes = lif_forward_eval(LIFNeuron::Options{}, x);
      for (WeightDtype dtype :
           {WeightDtype::kF32, WeightDtype::kBf16, WeightDtype::kInt8}) {
        std::string tag = "schedule ";
        for (bool full : schedule) tag += full ? "1" : "0";
        SCOPED_TRACE(tag + " stride " + std::to_string(stride) + " " +
                     weight_dtype_name(dtype));
        const infer::Engine conv =
            infer::compile(*conv_net, {.weight_dtype = dtype});
        ASSERT_EQ(conv.num_ops(), 2U);
        const infer::Op& conv_op = conv.ops()[1];
        ASSERT_EQ(conv_op.kind, infer::Op::Kind::kConv);
        EXPECT_EQ(conv_op.plane.dtype(), dtype);
        const Tensor want = gathered_htt_conv(conv_op, spikes);
        EXPECT_EQ(max_abs_diff(conv.run(x), want), 0.0);

        for (bool fuse : {true, false}) {
          SCOPED_TRACE(fuse ? "fusion on" : "fusion off");
          const infer::Engine e = infer::compile(
              *lif_net, {.fuse_elementwise = fuse, .weight_dtype = dtype});
          const infer::Op& op = e.ops()[1];
          EXPECT_EQ(op.kind, fuse ? infer::Op::Kind::kConvLif
                                  : infer::Op::Kind::kConv);
          EXPECT_EQ(max_abs_diff(e.run(x), lif_forward_eval(
                                               LIFNeuron::Options{},
                                               gathered_htt_conv(op, spikes))),
                    0.0);
        }
      }
    }
  }
}

TEST(InferTest, FoldingBatchnormShrinksThePlan) {
  Rng rng(15);
  ModulePtr net = trained_model(TTMode::kPTT, rng);
  infer::Engine folded = infer::compile(*net);
  infer::Engine unfolded =
      infer::compile(*net, {.merge_tt = true, .fold_batchnorm = false});
  EXPECT_LT(folded.num_ops(), unfolded.num_ops());
  EXPECT_FALSE(folded.summary().empty());

  Tensor x = Tensor::uniform({4, 2, 3, 8, 8}, rng);
  Tensor y_folded = folded.run(x);
  Tensor y_unfolded = unfolded.run(x);
  ASSERT_EQ(y_folded.shape(), y_unfolded.shape());
  EXPECT_LT(max_abs_diff(y_folded, y_unfolded), 2e-2);
}

// TEBN's per-timestep scale cannot fold into a time-invariant kernel; the
// lowering must keep a standalone affine op and still be bit-exact.
TEST(InferTest, TebnStaysUnfoldedAndExact) {
  Rng rng(16);
  ModelConfig cfg = small_config();
  cfg.bn_mode = BatchNorm::Mode::kTebn;
  ModulePtr net = make_vgg9(cfg, rng);
  net->set_training(true);
  Tensor warm = Tensor::uniform({4, 2, 3, 8, 8}, rng);
  net->forward(warm);
  net->clear_cache();
  net->set_training(false);

  Tensor x = Tensor::uniform({4, 2, 3, 8, 8}, rng);
  Tensor y_ref = net->forward(x);
  infer::Engine engine = infer::compile(*net);  // fold requested, TEBN skips
  EXPECT_EQ(max_abs_diff(engine.run(x), y_ref), 0.0);
}

// A Residual whose body STARTS with BatchNorm: the BN's input register is
// also the skip input, so the fold must NOT rewrite the conv that produced
// it (the skip branch needs the raw conv output).
TEST(InferTest, FoldNeverRewritesASharedResidualInput) {
  Rng rng(22);
  auto net = std::make_unique<Sequential>();
  net->emplace<Conv2d>(Conv2d::Options{.in_channels = 3, .out_channels = 4},
                       rng);
  auto body = std::make_unique<Sequential>();
  body->emplace<BatchNorm>(BatchNorm::Options{.channels = 4});
  net->add(std::make_unique<Residual>(std::move(body), nullptr));
  net->emplace<LIFNeuron>();

  net->set_training(true);
  net->forward(Tensor::uniform({2, 2, 3, 6, 6}, rng));
  net->clear_cache();
  net->set_training(false);

  Tensor x = Tensor::uniform({2, 2, 3, 6, 6}, rng);
  Tensor y_ref = net->forward(x);
  infer::Engine engine = infer::compile(*net);  // folding requested
  EXPECT_EQ(max_abs_diff(engine.run(x), y_ref), 0.0);
}

TEST(InferTest, ConcurrentRunsAreBitIdentical) {
  Rng rng(17);
  ModulePtr net = trained_model(TTMode::kPTT, rng);
  infer::Engine engine = infer::compile(*net);

  constexpr int kInputs = 4;
  constexpr int kThreads = 6;
  std::vector<Tensor> inputs;
  std::vector<Tensor> golden;
  for (int i = 0; i < kInputs; ++i) {
    inputs.push_back(Tensor::uniform({4, 1, 3, 8, 8}, rng));
    golden.push_back(engine.run(inputs.back()));
  }

  std::vector<std::thread> threads;
  std::vector<double> worst(kThreads, -1.0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      double w = 0.0;
      for (int rep = 0; rep < 3; ++rep) {
        for (int i = 0; i < kInputs; ++i) {
          w = std::max(w, max_abs_diff(engine.run(inputs[static_cast<size_t>(i)]),
                                       golden[static_cast<size_t>(i)]));
        }
      }
      worst[static_cast<size_t>(t)] = w;
    });
  }
  for (std::thread& t : threads) t.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(worst[static_cast<size_t>(t)], 0.0) << "thread " << t;
  }
}

class InferCheckpointTest : public ::testing::Test {
 protected:
  std::string path_ = ::testing::TempDir() + "/ttsnn_infer_ckpt.bin";
  void TearDown() override { std::remove(path_.c_str()); }
};

TEST_F(InferCheckpointTest, SaveLoadCompileReproducesOriginal) {
  Rng rng(18);
  ModulePtr original = trained_model(TTMode::kPTT, rng);
  save_parameters(*original, path_);

  // A fresh model from a different seed: everything — weights AND BN running
  // statistics — must come from the checkpoint.
  Rng rng2(990);
  ModelConfig cfg = small_config();
  ModulePtr fresh = make_ms_resnet18(cfg, rng2);
  FactorizeOptions fopts;
  fopts.mode = TTMode::kPTT;
  fopts.use_vbmf = false;
  fopts.rank_fraction = 0.5;
  factorize_network(*fresh, fopts, rng2);

  infer::Engine engine = infer::compile_checkpoint(*fresh, path_);
  infer::Engine reference = infer::compile(*original);

  Tensor x = Tensor::uniform({4, 2, 3, 8, 8}, rng);
  EXPECT_EQ(max_abs_diff(engine.run(x), reference.run(x)), 0.0);

  // And the exact pipeline agrees with the original module itself.
  infer::Engine exact = infer::compile(
      *fresh, {.merge_tt = false, .fold_batchnorm = false});
  original->set_training(false);
  EXPECT_EQ(max_abs_diff(exact.run(x), original->forward(x)), 0.0);
}

TEST(InferTest, CompileRejectsUnknownModules) {
  class Mystery : public Module {
   public:
    Tensor forward(const Tensor& x) override { return x; }
    Tensor backward(const Tensor& g) override { return g; }
    std::string name() const override { return "Mystery"; }
  };
  Mystery m;
  EXPECT_THROW(infer::compile(m), Error);
}

}  // namespace
}  // namespace ttsnn
