// Property-based sweeps (TEST_P) across the library's parameter spaces:
// convolution geometry, GEMM shapes, TT kernel sizes beyond 3x3, merge
// equivalence across the full (mode x stride x kernel x rank) grid, and
// dataset invariants over their option spaces.

#include <tuple>

#include <gtest/gtest.h>

#include "core/ttconv.h"
#include "data/synthetic_event.h"
#include "data/synthetic_image.h"
#include "gradcheck.h"
#include "infer/engine.h"
#include "model_gen.h"
#include "nn/conv2d.h"
#include "tensor/gemm.h"
#include "tensor/linalg.h"
#include "tensor/ops.h"
#include "tt/tt_svd.h"

namespace ttsnn {
namespace {

// ---- convolution geometry sweep ---------------------------------------------

using ConvCase = std::tuple<int64_t /*kh*/, int64_t /*kw*/, int64_t /*stride*/,
                            int64_t /*in_hw*/>;

class ConvGeometrySweep : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvGeometrySweep, ForwardShapeAndGradCheck) {
  auto [kh, kw, stride, hw] = GetParam();
  const uint64_t seed = testgen::suite_seed(static_cast<uint64_t>(kh * 100 + kw * 10 + stride + hw));
  SCOPED_TRACE(testgen::seed_line(seed));
  Rng rng(seed);
  Conv2d::Options o{.in_channels = 2, .out_channels = 3, .kernel_h = kh,
                    .kernel_w = kw, .stride = stride};
  Conv2d conv(o, rng);
  Tensor x = Tensor::randn({1, 1, 2, hw, hw}, rng);
  Tensor y = conv.forward(x);
  const ConvGeometry g = o.geometry(hw, hw);
  EXPECT_EQ(y.size(-2), g.out_h());
  EXPECT_EQ(y.size(-1), g.out_w());

  Tensor w = Tensor::randn(y.shape(), rng);
  GradCheckOptions opts;
  opts.max_coords = 24;
  check_input_grad(conv, x, w, opts);
  check_param_grads(conv, x, w, opts);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ConvGeometrySweep,
    ::testing::Values(ConvCase{1, 1, 1, 5}, ConvCase{3, 3, 1, 6},
                      ConvCase{3, 1, 1, 6}, ConvCase{1, 3, 1, 6},
                      ConvCase{5, 5, 1, 7}, ConvCase{5, 1, 2, 8},
                      ConvCase{3, 3, 2, 8}, ConvCase{1, 1, 2, 6}));

// ---- GEMM shape sweep --------------------------------------------------------

using GemmCase = std::tuple<int64_t, int64_t, int64_t>;

class GemmSweep : public ::testing::TestWithParam<GemmCase> {};

TEST_P(GemmSweep, MatchesNaiveTripleLoop) {
  auto [m, n, k] = GetParam();
  const uint64_t seed = testgen::suite_seed(static_cast<uint64_t>(m * 10000 + n * 100 + k));
  SCOPED_TRACE(testgen::seed_line(seed));
  Rng rng(seed);
  Tensor a = Tensor::randn({m, k}, rng);
  Tensor b = Tensor::randn({k, n}, rng);
  Tensor c = matmul(a, b);
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      double s = 0.0;
      for (int64_t p = 0; p < k; ++p) {
        s += static_cast<double>(a.at({i, p})) * b.at({p, j});
      }
      EXPECT_NEAR(c.at({i, j}), s, 1e-3 * std::max(1.0, std::fabs(s)));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, GemmSweep,
                         ::testing::Values(GemmCase{1, 1, 1}, GemmCase{1, 7, 3},
                                           GemmCase{7, 1, 3}, GemmCase{5, 5, 1},
                                           GemmCase{13, 11, 17},
                                           GemmCase{32, 9, 64}));

// ---- TT kernels beyond 3x3 ---------------------------------------------------

class TTKernelSweep
    : public ::testing::TestWithParam<std::tuple<int64_t, int64_t, TTMode>> {};

TEST_P(TTKernelSweep, MergeEquivalenceHoldsForLargerKernels) {
  auto [kernel, stride, mode] = GetParam();
  const uint64_t seed = testgen::suite_seed(static_cast<uint64_t>(kernel * 10 + stride));
  SCOPED_TRACE(testgen::seed_line(seed));
  Rng rng(seed);
  TTConv2d::Options o{.in_channels = 4, .out_channels = 5, .kernel = kernel,
                      .stride = stride, .rank = 3, .mode = mode};
  TTConv2d tt(o, rng);
  Tensor x = Tensor::randn({2, 1, 4, 10, 10}, rng);
  Tensor y_tt = tt.forward(x);

  Conv2d dense({.in_channels = 4, .out_channels = 5, .kernel_h = kernel,
                .kernel_w = kernel, .stride = stride},
               tt.merged_kernel());
  Tensor y_dense = dense.forward(x);
  EXPECT_LT(max_abs_diff(y_tt, y_dense), 1e-4)
      << "k=" << kernel << " s=" << stride << " " << tt_mode_name(mode);
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, TTKernelSweep,
    ::testing::Combine(::testing::Values<int64_t>(3, 5),
                       ::testing::Values<int64_t>(1, 2),
                       ::testing::Values(TTMode::kSTT, TTMode::kPTT)));

// ---- TT-SVD rank/shape sweep -------------------------------------------------

class TtSvdSweep
    : public ::testing::TestWithParam<std::tuple<int64_t, int64_t, int64_t>> {};

TEST_P(TtSvdSweep, CoreShapesAndErrorBounded) {
  auto [in_c, out_c, rank] = GetParam();
  const uint64_t seed = testgen::suite_seed(static_cast<uint64_t>(in_c * 100 + out_c + rank));
  SCOPED_TRACE(testgen::seed_line(seed));
  Rng rng(seed);
  Tensor dense = Tensor::randn({out_c, in_c, 3, 3}, rng);
  TTCores cores = tt_svd(dense, rank);
  const int64_t r = std::min({rank, in_c, out_c});
  EXPECT_EQ(cores.rank, r);
  EXPECT_EQ(cores.w1.shape(), (Shape{r, in_c, 1, 1}));
  EXPECT_EQ(cores.w4.shape(), (Shape{out_c, r, 1, 1}));
  // Relative error is bounded by 1 (never worse than the zero tensor by an
  // order of magnitude) and decreases to a modest value at full rank.
  const double err = tt_reconstruction_error(dense, cores);
  EXPECT_GE(err, 0.0);
  EXPECT_LE(err, 1.05);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TtSvdSweep,
    ::testing::Combine(::testing::Values<int64_t>(4, 9, 16),
                       ::testing::Values<int64_t>(4, 12),
                       ::testing::Values<int64_t>(1, 3, 8)));

// ---- HTT schedule sweep ------------------------------------------------------

class HttScheduleSweep : public ::testing::TestWithParam<int> {};

TEST_P(HttScheduleSweep, ForwardBackwardConsistentForAnySchedule) {
  // Schedules are all 4-bit patterns except 0000-adjacent degenerate cases;
  // each must produce shape-correct outputs and finite gradients.
  const int bits = GetParam();
  std::vector<bool> schedule(4);
  for (int i = 0; i < 4; ++i) schedule[static_cast<size_t>(i)] = (bits >> i) & 1;

  const uint64_t seed = testgen::suite_seed(static_cast<uint64_t>(bits));
  SCOPED_TRACE(testgen::seed_line(seed));
  Rng rng(seed);
  TTConv2d::Options o{.in_channels = 3, .out_channels = 3, .kernel = 3,
                      .stride = 1, .rank = 2, .mode = TTMode::kHTT,
                      .full_step = schedule};
  TTConv2d conv(o, rng);
  Tensor x = Tensor::randn({4, 2, 3, 5, 5}, rng);
  Tensor y = conv.forward(x);
  EXPECT_EQ(y.shape(), x.shape());
  Tensor g = Tensor::randn(y.shape(), rng);
  Tensor gx = conv.backward(g);
  EXPECT_EQ(gx.shape(), x.shape());
  for (int64_t i = 0; i < gx.numel(); ++i) {
    EXPECT_TRUE(std::isfinite(gx[i]));
  }
}

INSTANTIATE_TEST_SUITE_P(AllSchedules, HttScheduleSweep,
                         ::testing::Range(0, 16));

// ---- dataset option sweeps ---------------------------------------------------

class ImageDatasetSweep
    : public ::testing::TestWithParam<std::tuple<int64_t, int64_t>> {};

TEST_P(ImageDatasetSweep, BatchesWellFormed) {
  auto [classes, size] = GetParam();
  SyntheticImageDataset ds({.num_classes = classes, .samples_per_class = 3,
                            .channels = 3,
                            .size = size});
  Batch b = ds.get_batch({0, ds.size() - 1}, 2);
  EXPECT_EQ(b.input.shape(), (Shape{2, 2, 3, size, size}));
  EXPECT_EQ(b.labels[0], 0);
  EXPECT_EQ(b.labels[1], classes - 1);
  EXPECT_GE(b.input.min_value(), 0.0F);
  EXPECT_LE(b.input.max_value(), 1.0F);
}

INSTANTIATE_TEST_SUITE_P(
    Options, ImageDatasetSweep,
    ::testing::Combine(::testing::Values<int64_t>(2, 5, 10),
                       ::testing::Values<int64_t>(8, 16, 32)));

class EventDatasetSweep : public ::testing::TestWithParam<int64_t> {};

TEST_P(EventDatasetSweep, AnyTimestepCountWorks) {
  const int64_t t = GetParam();
  SyntheticEventDataset ds({.num_classes = 3, .samples_per_class = 2});
  Batch b = ds.get_batch({0, 3}, t);
  EXPECT_EQ(b.input.shape(), (Shape{t, 2, 2, 16, 16}));
  EXPECT_GT(b.input.sum(), 0.0);  // events fire at every T
}

INSTANTIATE_TEST_SUITE_P(Timesteps, EventDatasetSweep,
                         ::testing::Values<int64_t>(1, 2, 4, 6, 10));

// ---- compiled-model properties over the generator space ----------------------

// Invariants that must hold for ANY module tree the shared generator
// (tests/model_gen.h) can produce — the replacement for this suite's old
// habit of hand-rolling one fixture per architecture quirk. Replayable via
// TTSNN_TEST_SEED, bounded via TTSNN_FUZZ_ITERS.
TEST(GeneratedModelProperties, CompileInvariantsHoldForAnySample) {
  const uint64_t base = testgen::suite_seed(0x9e0de1);
  const int iters = testgen::seed_pinned() ? 1 : testgen::iteration_budget(6);
  for (int i = 0; i < iters; ++i) {
    const uint64_t seed = base + static_cast<uint64_t>(i);
    SCOPED_TRACE(testgen::seed_line(seed));
    const testgen::GeneratedModel gm = testgen::random_model(seed);
    SCOPED_TRACE(gm.desc);

    // The exact lowering reproduces eval Module::forward bit-for-bit (with
    // the fusion pass on — its default).
    Rng rng(seed ^ 0xfaceu);
    Tensor x = Tensor::uniform(gm.input, rng);
    Tensor want = gm.net->forward(x);
    gm.net->clear_cache();
    infer::Engine exact = infer::compile(
        *gm.net, {.merge_tt = false, .fold_batchnorm = false});
    EXPECT_EQ(max_abs_diff(exact.run(x), want), 0.0) << exact.summary();

    // The default engine pins the channel count in its input signature and
    // always reports a fused-op line for plan-lint consumers.
    infer::Engine engine = infer::compile(*gm.net);
    EXPECT_EQ(engine.input_signature()[2], gm.input[2]);
    EXPECT_NE(engine.summary().find("fused ops:"), std::string::npos);

    // Register numbering stays dense after fusion compaction: every operand
    // register is written (or the input), every output is in range.
    for (const infer::Op& op : engine.ops()) {
      EXPECT_GE(op.in, 0);
      EXPECT_LT(op.out, engine.num_regs());
    }
    if (::testing::Test::HasFailure()) return;
  }
}

// ---- SVD robustness ----------------------------------------------------------

class SvdEdgeCases : public ::testing::TestWithParam<int> {};

TEST_P(SvdEdgeCases, HandlesDegenerateMatrices) {
  const int kind = GetParam();
  const uint64_t seed = testgen::suite_seed(static_cast<uint64_t>(kind));
  SCOPED_TRACE(testgen::seed_line(seed));
  Rng rng(seed);
  Tensor a;
  switch (kind) {
    case 0:  // zero matrix
      a = Tensor::zeros({4, 6});
      break;
    case 1:  // rank one
      a = matmul(Tensor::randn({5, 1}, rng), Tensor::randn({1, 7}, rng));
      break;
    case 2:  // repeated columns
      a = Tensor::zeros({4, 4});
      for (int64_t i = 0; i < 4; ++i) {
        a.at({i, 0}) = a.at({i, 1}) = static_cast<float>(i + 1);
      }
      break;
    case 3:  // single row
      a = Tensor::randn({1, 9}, rng);
      break;
    default:  // single column
      a = Tensor::randn({9, 1}, rng);
      break;
  }
  Svd f = svd(a);
  // Reconstruction must hold even with zero singular values.
  Tensor us = f.u.clone();
  for (int64_t i = 0; i < us.size(0); ++i) {
    for (int64_t j = 0; j < us.size(1); ++j) us.at({i, j}) *= f.s[j];
  }
  EXPECT_LT(max_abs_diff(matmul_nt(us, f.v), a), 1e-4) << "kind " << kind;
}

INSTANTIATE_TEST_SUITE_P(Kinds, SvdEdgeCases, ::testing::Range(0, 5));

}  // namespace
}  // namespace ttsnn
