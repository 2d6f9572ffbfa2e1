/// \file quant_test.cpp
/// Typed weight planes: bf16 codec bitwise behavior (round-to-nearest-even
/// incl. ties, NaN/denormal handling), int8 spike-GEMM scalar-vs-AVX2
/// equality across all tail lanes, per-channel quantization invariants, and
/// the end-to-end contracts — weight_dtype=f32 bit-identical to the default
/// engine, quantized plans repeatable run to run with sound layouts
/// (tests/layout_check.h), and an accuracy-delta sweep over STT/PTT/HTT vs
/// the f32 engine.

#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "infer/engine.h"
#include "infer/plan_cache.h"
#include "layout_check.h"
#include "model_gen.h"
#include "tensor/simd.h"
#include "tensor/weight_plane.h"

namespace ttsnn {
namespace {

uint32_t f32_bits(float x) {
  uint32_t b = 0;
  std::memcpy(&b, &x, sizeof(b));
  return b;
}

float bits_f32(uint32_t b) {
  float x = 0.0F;
  std::memcpy(&x, &b, sizeof(x));
  return x;
}

/// Independent reference encoder: pick the nearer of the two neighboring
/// bf16 codes (truncate / truncate+1), ties to the even code. IEEE bit
/// patterns of one sign are ordered by magnitude, so +1 on the upper half is
/// exactly "next representable bf16 away from zero" — including the carry
/// into the exponent and the overflow of the largest finite value to inf.
uint16_t ref_bf16(float x) {
  const uint32_t bits = f32_bits(x);
  const auto lo = static_cast<uint16_t>(bits >> 16U);
  const uint32_t rem = bits & 0xffffU;
  const auto hi = static_cast<uint16_t>(lo + 1);
  if (rem < 0x8000U) return lo;
  if (rem > 0x8000U) return hi;
  return (lo & 1U) != 0 ? hi : lo;
}

TEST(Bf16Codec, RoundToNearestEvenIncludingTies) {
  // Exact values stay exact.
  EXPECT_EQ(bf16_from_f32(1.0F), 0x3f80);
  EXPECT_EQ(bf16_from_f32(-2.0F), 0xc000);
  EXPECT_EQ(bf16_from_f32(0.0F), 0x0000);
  EXPECT_EQ(bf16_from_f32(-0.0F), 0x8000);
  // Below the tie: rounds down. Above: rounds up.
  EXPECT_EQ(bf16_from_f32(bits_f32(0x3f807fffU)), 0x3f80);
  EXPECT_EQ(bf16_from_f32(bits_f32(0x3f808001U)), 0x3f81);
  // Exact ties go to the even code: 0x3f80 keeps (even), 0x3f81 bumps.
  EXPECT_EQ(bf16_from_f32(bits_f32(0x3f808000U)), 0x3f80);
  EXPECT_EQ(bf16_from_f32(bits_f32(0x3f818000U)), 0x3f82);
  // Carry across the exponent boundary: 1.9999999 -> 2.0.
  EXPECT_EQ(bf16_from_f32(bits_f32(0x3fffffffU)), 0x4000);
  // Largest finite f32 rounds past the largest finite bf16 into infinity.
  EXPECT_EQ(bf16_from_f32(bits_f32(0x7f7fffffU)), 0x7f80);
  EXPECT_EQ(bf16_from_f32(bits_f32(0xff7fffffU)), 0xff80);
}

TEST(Bf16Codec, SpecialValuesAndDenormals) {
  // Infinities are exact.
  EXPECT_EQ(bf16_from_f32(bits_f32(0x7f800000U)), 0x7f80);
  EXPECT_EQ(bf16_from_f32(bits_f32(0xff800000U)), 0xff80);
  // NaN must stay NaN (quiet), never collapse to infinity — even a
  // signaling NaN whose payload lives only in the dropped bits.
  const uint16_t quiet = bf16_from_f32(bits_f32(0x7fc00001U));
  EXPECT_TRUE(std::isnan(bf16_to_f32(quiet)));
  const uint16_t signaling = bf16_from_f32(bits_f32(0x7f800001U));
  EXPECT_TRUE(std::isnan(bf16_to_f32(signaling)));
  EXPECT_TRUE(std::isnan(bf16_to_f32(bf16_from_f32(bits_f32(0xffc12345U)))));
  // bf16-representable denormals (low 16 bits clear) round-trip exactly.
  for (uint32_t b : {0x00010000U, 0x00700000U, 0x807f0000U}) {
    const float x = bits_f32(b);
    EXPECT_EQ(f32_bits(bf16_to_f32(bf16_from_f32(x))), b);
  }
  // A denormal below the smallest bf16 denormal rounds to (signed) zero.
  EXPECT_EQ(bf16_from_f32(bits_f32(0x00000001U)), 0x0000);
  EXPECT_EQ(bf16_from_f32(bits_f32(0x80000001U)), 0x8000);
}

TEST(Bf16Codec, MatchesNearestNeighborReferenceOnRandomBits) {
  Rng rng(testgen::suite_seed(0xbf16));
  for (int i = 0; i < 20000; ++i) {
    uint32_t bits = static_cast<uint32_t>(rng.index(1LL << 32));
    if ((bits & 0x7fffffffU) > 0x7f800000U) continue;  // NaN: separate test
    const float x = bits_f32(bits);
    EXPECT_EQ(bf16_from_f32(x), ref_bf16(x))
        << "bits=0x" << std::hex << bits << " " << testgen::seed_line(0xbf16);
  }
}

TEST(Bf16Codec, DecodeIsExactBitExpansion) {
  for (uint32_t code = 0; code <= 0xffffU; ++code) {
    const auto h = static_cast<uint16_t>(code);
    EXPECT_EQ(f32_bits(bf16_to_f32(h)), static_cast<uint32_t>(h) << 16U);
  }
}

TEST(Bf16Codec, BulkDequantScalarVsAvx2AllTailLanes) {
  if (simd::detected_level() != simd::Level::kAvx2) {
    GTEST_SKIP() << "AVX2 not available on this host";
  }
  Rng rng(testgen::suite_seed(0xdeca));
  for (int64_t n = 1; n <= 33; ++n) {
    std::vector<uint16_t> src(static_cast<size_t>(n));
    for (auto& v : src) v = static_cast<uint16_t>(rng.index(1 << 16));
    std::vector<float> scalar(static_cast<size_t>(n));
    std::vector<float> vec(static_cast<size_t>(n));
    {
      simd::LevelGuard guard(simd::Level::kScalar);
      simd::dequant_bf16(n, src.data(), scalar.data());
    }
    {
      simd::LevelGuard guard(simd::Level::kAvx2);
      simd::dequant_bf16(n, src.data(), vec.data());
    }
    EXPECT_EQ(std::memcmp(scalar.data(), vec.data(),
                          static_cast<size_t>(n) * sizeof(float)),
              0)
        << "n=" << n;
  }
}

TEST(Int8Plane, PerChannelScalesAndBoundedError) {
  Rng rng(7);
  Tensor w = Tensor::randn({6, 5, 3, 3}, rng);
  // One all-zero output channel pins the degenerate-scale path.
  for (int64_t i = 0; i < 45; ++i) w.data()[2 * 45 + i] = 0.0F;
  const WeightPlane p = WeightPlane::int8_from(w);
  ASSERT_EQ(p.dtype(), WeightDtype::kInt8);
  ASSERT_EQ(p.rows(), 6);
  ASSERT_EQ(p.scales().numel(), 6);
  const Tensor deq = p.dequant();
  for (int64_t r = 0; r < 6; ++r) {
    float amax = 0.0F;
    for (int64_t i = 0; i < 45; ++i) {
      amax = std::max(amax, std::fabs(w.data()[r * 45 + i]));
    }
    const float scale = p.scales().data()[r];
    if (r == 2) {
      EXPECT_EQ(scale, 1.0F);  // all-zero row: neutral scale, zero codes
    } else {
      EXPECT_FLOAT_EQ(scale, amax / 127.0F);
    }
    int saturated = 0;
    for (int64_t i = 0; i < 45; ++i) {
      const float err = std::fabs(deq.data()[r * 45 + i] - w.data()[r * 45 + i]);
      EXPECT_LE(err, scale * 0.5F + 1e-7F);
      if (std::abs(p.int8_data()[r * 45 + i]) == 127) ++saturated;
    }
    if (r != 2) {
      EXPECT_GE(saturated, 1);  // the amax element maps to +-127
    }
  }
}

TEST(Int8Gemm, ScalarVsAvx2BitIdenticalAcrossAllTailLanes) {
  if (simd::detected_level() != simd::Level::kAvx2) {
    GTEST_SKIP() << "AVX2 not available on this host";
  }
  Rng rng(testgen::suite_seed(0x5e8));
  std::vector<int64_t> ks;
  for (int64_t k = 1; k <= 40; ++k) ks.push_back(k);  // every maddubs tail
  ks.push_back(64);
  ks.push_back(100);
  for (const int64_t k : ks) {
    const int64_t m = 3;
    const int64_t n = 5;
    std::vector<int8_t> w(static_cast<size_t>(m * k));
    std::vector<uint8_t> s(static_cast<size_t>(n * k));
    std::vector<float> scale(static_cast<size_t>(std::max(m, n)));
    for (auto& v : w) v = static_cast<int8_t>(rng.index(255) - 127);
    for (auto& v : s) v = rng.bernoulli(0.1F) ? 1 : 0;  // 90% sparse spikes
    for (auto& v : scale) v = 0.25F + 0.01F * static_cast<float>(rng.index(100));
    std::vector<float> c_scalar(static_cast<size_t>(m * n));
    std::vector<float> c_vec(static_cast<size_t>(m * n));
    {
      simd::LevelGuard guard(simd::Level::kScalar);
      simd::gemm_s8_wxs(m, n, k, w.data(), s.data(), scale.data(),
                        c_scalar.data());
    }
    {
      simd::LevelGuard guard(simd::Level::kAvx2);
      simd::gemm_s8_wxs(m, n, k, w.data(), s.data(), scale.data(),
                        c_vec.data());
    }
    EXPECT_EQ(std::memcmp(c_scalar.data(), c_vec.data(),
                          c_scalar.size() * sizeof(float)),
              0)
        << "gemm_s8_wxs k=" << k;
    // Linear orientation: s is [m, k] rows, w is [n, k] rows. Reuse the same
    // payloads with m<->n roles that still fit the buffers.
    std::vector<float> l_scalar(static_cast<size_t>(n * m));
    std::vector<float> l_vec(static_cast<size_t>(n * m));
    {
      simd::LevelGuard guard(simd::Level::kScalar);
      simd::gemm_s8_sxw(n, m, k, s.data(), w.data(), scale.data(),
                        l_scalar.data());
    }
    {
      simd::LevelGuard guard(simd::Level::kAvx2);
      simd::gemm_s8_sxw(n, m, k, s.data(), w.data(), scale.data(),
                        l_vec.data());
    }
    EXPECT_EQ(std::memcmp(l_scalar.data(), l_vec.data(),
                          l_scalar.size() * sizeof(float)),
              0)
        << "gemm_s8_sxw k=" << k;
  }
}

// ---- end-to-end contracts over STT / PTT / HTT -----------------------------

struct ModeCase {
  TTMode mode;
  const char* name;
};

const ModeCase kModes[] = {{TTMode::kSTT, "stt"},
                           {TTMode::kPTT, "ptt"},
                           {TTMode::kHTT, "htt"}};

float max_abs(const Tensor& t) {
  float m = 0.0F;
  for (int64_t i = 0; i < t.numel(); ++i) {
    m = std::max(m, std::fabs(t.data()[i]));
  }
  return m;
}

float max_abs_delta(const Tensor& a, const Tensor& b) {
  EXPECT_TRUE(a.same_shape(b));
  float m = 0.0F;
  for (int64_t i = 0; i < a.numel(); ++i) {
    m = std::max(m, std::fabs(a.data()[i] - b.data()[i]));
  }
  return m;
}

TEST(QuantEndToEnd, ExplicitF32DtypeIsBitIdenticalToDefault) {
  for (const ModeCase& mc : kModes) {
    SCOPED_TRACE(mc.name);
    Rng rng(41);
    ModulePtr net = testgen::trained_resnet18(mc.mode, rng);
    const infer::Engine base = infer::compile(*net);
    const infer::Engine f32 =
        infer::compile(*net, {.weight_dtype = WeightDtype::kF32});
    const Tensor x = Tensor::uniform({4, 2, 3, 8, 8}, rng);
    EXPECT_EQ(max_abs_delta(base.run(x), f32.run(x)), 0.0F);
    EXPECT_EQ(base.weight_bytes(), f32.weight_bytes());
    EXPECT_EQ(f32.weight_footprint().bf16_bytes, 0);
    EXPECT_EQ(f32.weight_footprint().int8_bytes, 0);
  }
}

TEST(QuantEndToEnd, QuantizedRunsRepeatableAndLayoutsSound) {
  for (const ModeCase& mc : kModes) {
    for (const WeightDtype dtype : {WeightDtype::kBf16, WeightDtype::kInt8}) {
      SCOPED_TRACE(std::string(mc.name) + "/" + weight_dtype_name(dtype));
      Rng rng(43);
      ModulePtr net = testgen::trained_resnet18(mc.mode, rng);
      const infer::Engine engine =
          infer::compile(*net, {.weight_dtype = dtype});
      const Tensor x = Tensor::uniform({4, 2, 3, 8, 8}, rng);
      // Twice through the engine: the second call runs from the warm program
      // cache and must not depend on scratch left by the first.
      const Tensor y1 = engine.run(x);
      const Tensor y2 = engine.run(x);
      EXPECT_EQ(max_abs_delta(y1, y2), 0.0F);
      // Quantized ops grow the scratch region (dequant buffers, u8 tiles);
      // registers must still pack above it without sharing bytes.
      testgen::expect_layout_sound(engine, x.shape());
    }
  }
}

TEST(QuantEndToEnd, AccuracyDeltaSweepAndFootprintAcrossModes) {
  for (const ModeCase& mc : kModes) {
    SCOPED_TRACE(mc.name);
    Rng rng(47);
    ModulePtr net = testgen::trained_resnet18(mc.mode, rng);
    const infer::Engine f32 = infer::compile(*net);
    const infer::Engine bf16 =
        infer::compile(*net, {.weight_dtype = WeightDtype::kBf16});
    const infer::Engine int8 =
        infer::compile(*net, {.weight_dtype = WeightDtype::kInt8});
    const Tensor x = Tensor::uniform({4, 2, 3, 8, 8}, rng);
    const Tensor y = f32.run(x);
    const float norm = std::max(max_abs(y), 1e-6F);
    // Per-scenario accuracy gate: quantized logits must stay within a small
    // relative band of the f32 engine's. The thresholds have headroom over
    // the observed deltas but still catch a broken kernel or mis-scaled
    // plane outright (those blow up by orders of magnitude).
    // Observed (deterministic): bf16 0.1612 — dominated by the bf16-encoded
    // classifier, since conv-weight perturbations are absorbed by the LIF
    // thresholds; int8 0.0 exactly — every int8 op feeds a LIF whose spikes
    // do not flip at this scale, and the classifier falls back to f32. The
    // bands keep ~2x headroom yet still fail outright on a broken kernel or
    // mis-scaled plane (those blow past 1.0).
    EXPECT_LT(max_abs_delta(bf16.run(x), y) / norm, 0.3F) << "bf16 drift";
    EXPECT_LT(max_abs_delta(int8.run(x), y) / norm, 0.3F) << "int8 drift";

    // Census: int8 must quantize the spike-fed convs, and the stem conv
    // (register 0 input — real-valued encoder output) must fall back.
    int quantized = 0;
    int fell_back = 0;
    for (const infer::Op& op : int8.ops()) {
      if (op.plane.quantized() || op.half_plane.quantized()) ++quantized;
      if (!op.quant_note.empty() && !op.plane.quantized()) ++fell_back;
    }
    EXPECT_GE(quantized, 4);
    EXPECT_GE(fell_back, 1);

    // Footprint: quantized planes must actually shrink the unique weight
    // bytes (the hard <0.5x / <=0.55x gates on the tiny serving configs live
    // in bench_micro_ops; models here are tiny-width too, so the same
    // direction must hold).
    EXPECT_GT(int8.weight_footprint().int8_bytes, 0);
    EXPECT_GT(bf16.weight_footprint().bf16_bytes, 0);
    EXPECT_LT(int8.weight_bytes(), f32.weight_bytes());
    EXPECT_LT(bf16.weight_bytes(), f32.weight_bytes());
  }
}

TEST(QuantEndToEnd, SameBitsOnBothSimdTiersWhenQuantized) {
  Rng rng(53);
  ModulePtr net = testgen::trained_resnet18(TTMode::kPTT, rng);
  const infer::Engine int8 =
      infer::compile(*net, {.weight_dtype = WeightDtype::kInt8});
  const Tensor x = Tensor::uniform({4, 2, 3, 8, 8}, rng);
  Tensor y_scalar;
  Tensor y_active;
  {
    simd::LevelGuard guard(simd::Level::kScalar);
    y_scalar = int8.run(x);
  }
  y_active = int8.run(x);
  EXPECT_EQ(max_abs_delta(y_scalar, y_active), 0.0F);
}

}  // namespace
}  // namespace ttsnn
