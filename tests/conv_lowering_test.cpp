// Pins the bits of the shared conv lowering (tensor/im2col.h). conv_forward
// and conv_backward are the one per-image im2col -> GEMM loop behind both
// training (conv2d_forward / conv2d_backward) and the inference engine's
// conv ops, so a change to it moves trained and served bits together and no
// engine-vs-module suite can see it. This suite compares it bitwise against
// a test-side copy of the per-image loop it replaced: f32 im2col / col2im +
// gemm(), and int8 spikes_to_u8_t + gemm_s8_wxs. It runs over the TT
// sub-convolution geometries, on Gaussian and Bernoulli(0.2) spike inputs
// (sized so that the spike inputs take gemm()'s spike-plane path for the
// forward NN and dW NT products of every geometry but the 1x1 stride-2 one,
// which falls under its size floor), on both SIMD levels.

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "tensor/gemm.h"
#include "tensor/im2col.h"
#include "tensor/ops.h"
#include "tensor/simd.h"
#include "tensor/tensor.h"

namespace ttsnn {
namespace {

constexpr int64_t kBatch = 5;  // folded T*N images
constexpr int64_t kInC = 16;
constexpr int64_t kOutC = 8;
constexpr int64_t kHW = 12;

struct GeomCase {
  const char* name;
  int64_t kh, kw, sh, sw, ph, pw;
};

void PrintTo(const GeomCase& c, std::ostream* os) { *os << c.name; }

ConvGeometry geometry(const GeomCase& c) {
  return ConvGeometry{.in_channels = kInC,
                      .in_h = kHW,
                      .in_w = kHW,
                      .kernel_h = c.kh,
                      .kernel_w = c.kw,
                      .stride_h = c.sh,
                      .stride_w = c.sw,
                      .pad_h = c.ph,
                      .pad_w = c.pw};
}

Tensor make_input(bool spikes, Rng& rng) {
  const Shape s{kBatch, kInC, kHW, kHW};
  return spikes ? Tensor::bernoulli(s, rng, 0.2F) : Tensor::randn(s, rng);
}

Shape out_shape(const ConvGeometry& g) {
  return {kBatch, kOutC, g.out_h(), g.out_w()};
}

// ---- the reference: the per-image loop as the callers wrote it -------------

Tensor ref_forward_f32(const ConvGeometry& g, const Tensor& x,
                       const Tensor& w) {
  Tensor out(out_shape(g));
  std::vector<float> col(static_cast<size_t>(g.col_rows() * g.col_cols()));
  const int64_t in_stride = kInC * kHW * kHW;
  const int64_t out_stride = kOutC * g.col_cols();
  for (int64_t b = 0; b < kBatch; ++b) {
    const float* lowered;
    if (g.pointwise()) {
      lowered = x.data() + b * in_stride;
    } else {
      im2col(x.data() + b * in_stride, g, col.data());
      lowered = col.data();
    }
    gemm(false, false, kOutC, g.col_cols(), g.col_rows(), 1.0F, w.data(),
         lowered, 0.0F, out.data() + b * out_stride);
  }
  return out;
}

Tensor ref_forward_s8(const ConvGeometry& g, const Tensor& x,
                      const std::vector<int8_t>& w,
                      const std::vector<float>& scales) {
  Tensor out(out_shape(g));
  std::vector<float> col(static_cast<size_t>(g.col_rows() * g.col_cols()));
  std::vector<uint8_t> u8(col.size());
  const int64_t in_stride = kInC * kHW * kHW;
  const int64_t out_stride = kOutC * g.col_cols();
  for (int64_t b = 0; b < kBatch; ++b) {
    const float* lowered;
    if (g.pointwise()) {
      lowered = x.data() + b * in_stride;
    } else {
      im2col(x.data() + b * in_stride, g, col.data());
      lowered = col.data();
    }
    simd::spikes_to_u8_t(g.col_rows(), g.col_cols(), lowered, u8.data());
    simd::gemm_s8_wxs(kOutC, g.col_cols(), g.col_rows(), w.data(), u8.data(),
                      scales.data(), out.data() + b * out_stride);
  }
  return out;
}

/// grad_w accumulates in place; returns grad_in.
Tensor ref_backward(const ConvGeometry& g, const Tensor& x, const Tensor& w,
                    const Tensor& grad_out, Tensor& grad_w) {
  Tensor grad_in(x.shape());
  std::vector<float> col(static_cast<size_t>(g.col_rows() * g.col_cols()));
  std::vector<float> dcol(col.size());
  const int64_t in_stride = kInC * kHW * kHW;
  const int64_t out_stride = kOutC * g.col_cols();
  for (int64_t b = 0; b < kBatch; ++b) {
    const float* gout = grad_out.data() + b * out_stride;
    const float* lowered;
    if (g.pointwise()) {
      lowered = x.data() + b * in_stride;
    } else {
      im2col(x.data() + b * in_stride, g, col.data());
      lowered = col.data();
    }
    gemm(false, true, kOutC, g.col_rows(), g.col_cols(), 1.0F, gout, lowered,
         1.0F, grad_w.data());
    if (g.pointwise()) {
      gemm(true, false, g.col_rows(), g.col_cols(), kOutC, 1.0F, w.data(),
           gout, 1.0F, grad_in.data() + b * in_stride);
    } else {
      gemm(true, false, g.col_rows(), g.col_cols(), kOutC, 1.0F, w.data(),
           gout, 0.0F, dcol.data());
      col2im(dcol.data(), g, grad_in.data() + b * in_stride);
    }
  }
  return grad_in;
}

/// Order-dependent epilogue: each tile becomes tile + 0.5 * (previous tile),
/// a stand-in for the LIF membrane recurrence, and records the image order.
struct RecurrenceEpilogue {
  std::vector<float> state;
  std::vector<int64_t> order;

  static void run(void* ctx, int64_t image, float* tile) {
    auto& e = *static_cast<RecurrenceEpilogue*>(ctx);
    e.order.push_back(image);
    for (size_t i = 0; i < e.state.size(); ++i) {
      tile[i] += 0.5F * e.state[i];
      e.state[i] = tile[i];
    }
  }
};

// ---- the suite -------------------------------------------------------------

class ConvLoweringTest : public ::testing::TestWithParam<GeomCase> {
 protected:
  static std::vector<simd::Level> levels() {
    return {simd::Level::kScalar, simd::Level::kAvx2};
  }
};

TEST_P(ConvLoweringTest, ForwardF32MatchesPerImageLoopBitwise) {
  const ConvGeometry g = geometry(GetParam());
  for (simd::Level level : levels()) {
    simd::LevelGuard guard(level);
    for (bool spikes : {false, true}) {
      SCOPED_TRACE(std::string(simd::level_name(simd::active_level())) +
                   (spikes ? " bernoulli" : " gaussian"));
      Rng rng(spikes ? 11 : 12);
      Tensor x = make_input(spikes, rng);
      Tensor w = Tensor::randn({kOutC, g.col_rows()}, rng);
      Tensor ref = ref_forward_f32(g, x, w);
      Tensor out = Tensor::full(out_shape(g), 7.0F);  // overwritten
      Tensor col({g.col_rows(), g.col_cols()});
      conv_forward(g, kBatch, x.data(), {.out_channels = kOutC, .f32 = w.data()},
                   col.data(), nullptr, out.data());
      EXPECT_EQ(max_abs_diff(out, ref), 0.0);
    }
  }
}

TEST_P(ConvLoweringTest, ForwardInt8MatchesPerImageLoopBitwise) {
  const ConvGeometry g = geometry(GetParam());
  for (simd::Level level : levels()) {
    simd::LevelGuard guard(level);
    for (bool spikes : {false, true}) {
      SCOPED_TRACE(std::string(simd::level_name(simd::active_level())) +
                   (spikes ? " bernoulli" : " gaussian"));
      Rng rng(spikes ? 21 : 22);
      Tensor x = make_input(spikes, rng);
      std::vector<int8_t> w(static_cast<size_t>(kOutC * g.col_rows()));
      for (int8_t& v : w) v = static_cast<int8_t>(rng.index(255) - 127);
      std::vector<float> scales(static_cast<size_t>(kOutC));
      for (float& s : scales) s = rng.uniform(0.001F, 0.02F);
      Tensor ref = ref_forward_s8(g, x, w, scales);
      Tensor out(out_shape(g));
      Tensor col({g.col_rows(), g.col_cols()});
      std::vector<uint8_t> u8(static_cast<size_t>(g.col_rows() * g.col_cols()));
      conv_forward(g, kBatch, x.data(),
                   {.out_channels = kOutC,
                    .s8 = w.data(),
                    .scales = scales.data()},
                   col.data(), u8.data(), out.data());
      EXPECT_EQ(max_abs_diff(out, ref), 0.0);
    }
  }
}

TEST_P(ConvLoweringTest, EpilogueRunsPerTileInAscendingImageOrder) {
  const ConvGeometry g = geometry(GetParam());
  Rng rng(31);
  Tensor x = make_input(false, rng);
  Tensor w = Tensor::randn({kOutC, g.col_rows()}, rng);
  Tensor ref = ref_forward_f32(g, x, w);
  const int64_t tile = kOutC * g.col_cols();
  std::vector<float> state(static_cast<size_t>(tile), 0.0F);
  for (int64_t b = 0; b < kBatch; ++b) {
    float* t = ref.data() + b * tile;
    for (int64_t i = 0; i < tile; ++i) {
      t[i] += 0.5F * state[static_cast<size_t>(i)];
      state[static_cast<size_t>(i)] = t[i];
    }
  }
  RecurrenceEpilogue epi;
  epi.state.assign(static_cast<size_t>(tile), 0.0F);
  Tensor out(out_shape(g));
  Tensor col({g.col_rows(), g.col_cols()});
  conv_forward(g, kBatch, x.data(), {.out_channels = kOutC, .f32 = w.data()},
               col.data(), nullptr, out.data(),
               {.fn = RecurrenceEpilogue::run, .ctx = &epi});
  EXPECT_EQ(epi.order, (std::vector<int64_t>{0, 1, 2, 3, 4}));
  EXPECT_EQ(max_abs_diff(out, ref), 0.0);
}

TEST_P(ConvLoweringTest, BackwardMatchesPerImageLoopBitwise) {
  const ConvGeometry g = geometry(GetParam());
  for (simd::Level level : levels()) {
    simd::LevelGuard guard(level);
    for (bool spikes : {false, true}) {
      SCOPED_TRACE(std::string(simd::level_name(simd::active_level())) +
                   (spikes ? " bernoulli" : " gaussian"));
      Rng rng(spikes ? 41 : 42);
      Tensor x = make_input(spikes, rng);
      Tensor w = Tensor::randn({kOutC, g.col_rows()}, rng);
      Tensor grad_out = Tensor::randn(out_shape(g), rng);
      // dW starts non-zero, so the per-image accumulation order shows in
      // its bits.
      Tensor dw_start = Tensor::randn({kOutC, g.col_rows()}, rng);
      Tensor dw_ref = dw_start.clone();
      Tensor gin_ref = ref_backward(g, x, w, grad_out, dw_ref);

      Tensor dw = dw_start.clone();
      Tensor gin(x.shape());  // zeroed
      Tensor col({g.col_rows(), g.col_cols()});
      Tensor dcol({g.col_rows(), g.col_cols()});
      conv_backward(g, kBatch, kOutC, x.data(), w.data(), grad_out.data(),
                    col.data(), dcol.data(), dw.data(), gin.data());
      EXPECT_EQ(max_abs_diff(dw, dw_ref), 0.0);
      EXPECT_EQ(max_abs_diff(gin, gin_ref), 0.0);
    }
  }
}

// The TT sub-convolution geometries: w1/w4 (1x1 s1), the HTT half-step w4
// (1x1 s2), the STT strided strips (3,1) s(2,1) and (1,3) s(1,2), and a
// dense 3x3 s2 stem-style conv.
INSTANTIATE_TEST_SUITE_P(
    TTGeometries, ConvLoweringTest,
    ::testing::Values(GeomCase{"pointwise_s1", 1, 1, 1, 1, 0, 0},
                      GeomCase{"pointwise_s2", 1, 1, 2, 2, 0, 0},
                      GeomCase{"strip31_s21", 3, 1, 2, 1, 1, 0},
                      GeomCase{"strip13_s12", 1, 3, 1, 2, 0, 1},
                      GeomCase{"dense33_s2", 3, 3, 2, 2, 1, 1}),
    [](const auto& info) { return std::string(info.param.name); });

}  // namespace
}  // namespace ttsnn
