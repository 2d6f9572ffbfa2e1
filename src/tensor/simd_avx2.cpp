/// \file simd_avx2.cpp
/// AVX2 implementations of the simd.h kernels. Compiled with -mavx2 -mfma on
/// x86 (see CMakeLists.txt); on other targets the stubs at the bottom keep
/// the link whole and simd.cpp never dispatches here.
///
/// Bit-identity: every kernel uses separate vmulps/vaddps (never FMA) in the
/// exact per-element order of the scalar loops in simd.cpp, scalar tail loops
/// repeat the same expressions, and the TU is built with -ffp-contract=off so
/// the compiler cannot fuse the tails either. vdivps is correctly rounded,
/// matching its scalar counterpart bit-for-bit.

#include "tensor/simd_kernels.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#if defined(__AVX2__)

#include <immintrin.h>

namespace ttsnn::simd::avx2 {

bool compiled_in() { return true; }

void axpy(int64_t n, float a, const float* x, float* y) {
  const __m256 va = _mm256_set1_ps(a);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 vx = _mm256_loadu_ps(x + i);
    const __m256 vy = _mm256_loadu_ps(y + i);
    _mm256_storeu_ps(y + i, _mm256_add_ps(vy, _mm256_mul_ps(va, vx)));
  }
  for (; i < n; ++i) y[i] += a * x[i];
}

void mul(int64_t n, const float* x, float* y) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 vx = _mm256_loadu_ps(x + i);
    const __m256 vy = _mm256_loadu_ps(y + i);
    _mm256_storeu_ps(y + i, _mm256_mul_ps(vy, vx));
  }
  for (; i < n; ++i) y[i] *= x[i];
}

void scale(int64_t n, float a, float* y) {
  const __m256 va = _mm256_set1_ps(a);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(y + i, _mm256_mul_ps(_mm256_loadu_ps(y + i), va));
  }
  for (; i < n; ++i) y[i] *= a;
}

void relu(int64_t n, float* y) {
  const __m256 zero = _mm256_setzero_ps();
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(y + i, _mm256_max_ps(_mm256_loadu_ps(y + i), zero));
  }
  for (; i < n; ++i) y[i] = std::max(y[i], 0.0F);
}

void affine(int64_t n, float mu, float inv_std, float eff, float beta,
            const float* x, float* y) {
  const __m256 vmu = _mm256_set1_ps(mu);
  const __m256 vs = _mm256_set1_ps(inv_std);
  const __m256 ve = _mm256_set1_ps(eff);
  const __m256 vb = _mm256_set1_ps(beta);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v =
        _mm256_mul_ps(_mm256_sub_ps(_mm256_loadu_ps(x + i), vmu), vs);
    _mm256_storeu_ps(y + i, _mm256_add_ps(_mm256_mul_ps(ve, v), vb));
  }
  for (; i < n; ++i) {
    const float v = (x[i] - mu) * inv_std;
    y[i] = eff * v + beta;
  }
}

namespace {

/// u = tau * u_post + in; s = u >= v_th. Shared by the two LIF variants.
inline __m256 lif_membrane(__m256 vtau, __m256 vupost, __m256 vin) {
  return _mm256_add_ps(_mm256_mul_ps(vtau, vupost), vin);
}

}  // namespace

namespace {

/// Scalar tail twin of the vector surrogate lanes below; expression-identical
/// to simd.cpp's scalar reference.
inline float surrogate_tail(int kind, float alpha, float v_th, float u) {
  const float x = u - v_th;
  switch (kind) {
    case 0:  // rectangle
      return std::fabs(x) < 0.5F * alpha ? 1.0F / alpha : 0.0F;
    case 1: {  // triangle
      const float v = 1.0F - std::fabs(x) / alpha;
      return v > 0.0F ? v / alpha : 0.0F;
    }
    default: {  // atan
      const float z = 0.5F * 3.14159265358979323846F * alpha * x;
      return alpha / (2.0F * (1.0F + z * z));
    }
  }
}

}  // namespace

void lif_backward_step(int64_t m, int kind, float alpha, float tau, float v_th,
                       bool zero_reset, bool detach_reset, const float* gst,
                       const float* ut, const float* st, float* gu_post,
                       float* git) {
  const __m256 abs_mask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff));
  const __m256 one = _mm256_set1_ps(1.0F);
  const __m256 vth = _mm256_set1_ps(v_th);
  const __m256 vtau = _mm256_set1_ps(tau);
  const __m256 valpha = _mm256_set1_ps(alpha);
  const __m256 half_alpha = _mm256_set1_ps(0.5F * alpha);
  const __m256 inv_alpha = _mm256_set1_ps(1.0F / alpha);
  const __m256 two = _mm256_set1_ps(2.0F);
  const __m256 atan_c =
      _mm256_set1_ps(0.5F * 3.14159265358979323846F * alpha);
  int64_t i = 0;
  for (; i + 8 <= m; i += 8) {
    const __m256 u = _mm256_loadu_ps(ut + i);
    const __m256 x = _mm256_sub_ps(u, vth);
    __m256 surr;
    if (kind == 0) {  // rectangle: |x| < 0.5a ? 1/a : 0
      const __m256 lt = _mm256_cmp_ps(_mm256_and_ps(x, abs_mask), half_alpha,
                                      _CMP_LT_OQ);
      surr = _mm256_and_ps(lt, inv_alpha);
    } else if (kind == 1) {  // triangle: max(1 - |x|/a, 0) / a
      const __m256 v = _mm256_sub_ps(
          one, _mm256_div_ps(_mm256_and_ps(x, abs_mask), valpha));
      const __m256 gt = _mm256_cmp_ps(v, _mm256_setzero_ps(), _CMP_GT_OQ);
      surr = _mm256_and_ps(gt, _mm256_div_ps(v, valpha));
    } else {  // atan: a / (2 * (1 + (c*x)^2))
      const __m256 z = _mm256_mul_ps(atan_c, x);
      surr = _mm256_div_ps(
          valpha, _mm256_mul_ps(two, _mm256_add_ps(one, _mm256_mul_ps(z, z))));
    }
    const __m256 gup = _mm256_loadu_ps(gu_post + i);
    const __m256 carry =
        zero_reset
            ? _mm256_mul_ps(gup, _mm256_sub_ps(one, _mm256_loadu_ps(st + i)))
            : gup;
    __m256 gu = _mm256_add_ps(_mm256_mul_ps(_mm256_loadu_ps(gst + i), surr),
                              carry);
    if (!detach_reset) {
      const __m256 reset_term = zero_reset ? u : vth;
      gu = _mm256_sub_ps(
          gu, _mm256_mul_ps(_mm256_mul_ps(gup, reset_term), surr));
    }
    _mm256_storeu_ps(git + i, gu);
    _mm256_storeu_ps(gu_post + i, _mm256_mul_ps(vtau, gu));
  }
  for (; i < m; ++i) {
    const float surr = surrogate_tail(kind, alpha, v_th, ut[i]);
    const float carry =
        zero_reset ? gu_post[i] * (1.0F - st[i]) : gu_post[i];
    float gu = gst[i] * surr + carry;
    if (!detach_reset) {
      const float reset_term = zero_reset ? ut[i] : v_th;
      gu -= gu_post[i] * reset_term * surr;
    }
    git[i] = gu;
    gu_post[i] = tau * gu;
  }
}

void lif_step_eval(int64_t m, float tau, float v_th, bool zero_reset,
                   const float* in, float* u_post, float* s_out) {
  const __m256 vtau = _mm256_set1_ps(tau);
  const __m256 vth = _mm256_set1_ps(v_th);
  const __m256 one = _mm256_set1_ps(1.0F);
  int64_t i = 0;
  for (; i + 8 <= m; i += 8) {
    const __m256 u = lif_membrane(vtau, _mm256_loadu_ps(u_post + i),
                                  _mm256_loadu_ps(in + i));
    const __m256 mask = _mm256_cmp_ps(u, vth, _CMP_GE_OQ);
    const __m256 s = _mm256_and_ps(mask, one);
    _mm256_storeu_ps(s_out + i, s);
    const __m256 reset =
        zero_reset ? _mm256_mul_ps(u, _mm256_sub_ps(one, s))
                   : _mm256_sub_ps(u, _mm256_mul_ps(vth, s));
    _mm256_storeu_ps(u_post + i, reset);
  }
  for (; i < m; ++i) {
    const float u = tau * u_post[i] + in[i];
    const float s = u >= v_th ? 1.0F : 0.0F;
    s_out[i] = s;
    u_post[i] = zero_reset ? u * (1.0F - s) : u - v_th * s;
  }
}

void lif_step_train(int64_t m, float tau, float v_th, bool zero_reset,
                    const float* in, float* u_post, float* u_out,
                    float* s_out) {
  const __m256 vtau = _mm256_set1_ps(tau);
  const __m256 vth = _mm256_set1_ps(v_th);
  const __m256 one = _mm256_set1_ps(1.0F);
  int64_t i = 0;
  for (; i + 8 <= m; i += 8) {
    const __m256 u = lif_membrane(vtau, _mm256_loadu_ps(u_post + i),
                                  _mm256_loadu_ps(in + i));
    const __m256 mask = _mm256_cmp_ps(u, vth, _CMP_GE_OQ);
    const __m256 s = _mm256_and_ps(mask, one);
    _mm256_storeu_ps(u_out + i, u);
    _mm256_storeu_ps(s_out + i, s);
    const __m256 reset =
        zero_reset ? _mm256_mul_ps(u, _mm256_sub_ps(one, s))
                   : _mm256_sub_ps(u, _mm256_mul_ps(vth, s));
    _mm256_storeu_ps(u_post + i, reset);
  }
  for (; i < m; ++i) {
    const float u = tau * u_post[i] + in[i];
    const float s = u >= v_th ? 1.0F : 0.0F;
    u_out[i] = u;
    s_out[i] = s;
    u_post[i] = zero_reset ? u * (1.0F - s) : u - v_th * s;
  }
}

void sgd_step(int64_t n, float lr, float momentum, float decay, const float* g,
              float* v, float* w) {
  const __m256 vmom = _mm256_set1_ps(momentum);
  const __m256 vlr = _mm256_set1_ps(lr);
  const __m256 vdecay = _mm256_set1_ps(decay);
  int64_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m256 vg = _mm256_loadu_ps(g + j);
    __m256 vv = _mm256_loadu_ps(v + j);
    __m256 vw = _mm256_loadu_ps(w + j);
    vv = _mm256_add_ps(_mm256_add_ps(_mm256_mul_ps(vmom, vv), vg),
                       _mm256_mul_ps(vdecay, vw));
    _mm256_storeu_ps(v + j, vv);
    _mm256_storeu_ps(w + j, _mm256_sub_ps(vw, _mm256_mul_ps(vlr, vv)));
  }
  for (; j < n; ++j) {
    v[j] = momentum * v[j] + g[j] + decay * w[j];
    w[j] -= lr * v[j];
  }
}

namespace {

/// The NN/TN kernels tile over n only: a k x NC column panel of B is held
/// L2-resident and reused by every row of the strip, with NC chosen so the
/// panel fits kPanelBytes. The k loop stays whole and ascending inside each
/// panel, so every C element accumulates in the scalar kernels' order.
constexpr int64_t kPanelBytes = 512 << 10;

/// Panel width (in floats) for a given inner dimension k, clamped so tiny
/// panels don't degenerate the inner loop.
int64_t panel_width(int64_t k) {
  constexpr auto kFloatBytes = static_cast<int64_t>(sizeof(float));
  const int64_t nc = kPanelBytes / (std::max<int64_t>(k, 1) * kFloatBytes);
  return std::max<int64_t>(64, nc & ~int64_t{15});
}

/// crow[j] += av * brow[j] over [j0, j1) — one vectorized axpy strip.
inline void axpy_strip(float av, const float* brow, int64_t j0, int64_t j1,
                       float* crow) {
  const __m256 va = _mm256_set1_ps(av);
  int64_t j = j0;
  for (; j + 8 <= j1; j += 8) {
    const __m256 bv = _mm256_loadu_ps(brow + j);
    const __m256 cv = _mm256_loadu_ps(crow + j);
    _mm256_storeu_ps(crow + j, _mm256_add_ps(cv, _mm256_mul_ps(va, bv)));
  }
  for (; j < j1; ++j) crow[j] += av * brow[j];
}

/// Four C rows updated from one streamed B row. A zero A element skips its
/// row (the all-zero case skips all four), exactly as the scalar kernel
/// skips it, so no 0 * inf or -0.0 + 0.0 artifact can differ between tiers.
inline void update4(float av0, float av1, float av2, float av3,
                    const float* brow, int64_t j0, int64_t j1, float* cr0,
                    float* cr1, float* cr2, float* cr3) {
  const bool z0 = av0 == 0.0F, z1 = av1 == 0.0F, z2 = av2 == 0.0F,
             z3 = av3 == 0.0F;
  if (z0 && z1 && z2 && z3) return;
  if (!z0 && !z1 && !z2 && !z3) {
    const __m256 va0 = _mm256_set1_ps(av0);
    const __m256 va1 = _mm256_set1_ps(av1);
    const __m256 va2 = _mm256_set1_ps(av2);
    const __m256 va3 = _mm256_set1_ps(av3);
    int64_t j = j0;
    for (; j + 8 <= j1; j += 8) {
      const __m256 bv = _mm256_loadu_ps(brow + j);
      _mm256_storeu_ps(cr0 + j, _mm256_add_ps(_mm256_loadu_ps(cr0 + j),
                                              _mm256_mul_ps(va0, bv)));
      _mm256_storeu_ps(cr1 + j, _mm256_add_ps(_mm256_loadu_ps(cr1 + j),
                                              _mm256_mul_ps(va1, bv)));
      _mm256_storeu_ps(cr2 + j, _mm256_add_ps(_mm256_loadu_ps(cr2 + j),
                                              _mm256_mul_ps(va2, bv)));
      _mm256_storeu_ps(cr3 + j, _mm256_add_ps(_mm256_loadu_ps(cr3 + j),
                                              _mm256_mul_ps(va3, bv)));
    }
    for (; j < j1; ++j) {
      const float bv = brow[j];
      cr0[j] += av0 * bv;
      cr1[j] += av1 * bv;
      cr2[j] += av2 * bv;
      cr3[j] += av3 * bv;
    }
    return;
  }
  if (!z0) axpy_strip(av0, brow, j0, j1, cr0);
  if (!z1) axpy_strip(av1, brow, j0, j1, cr1);
  if (!z2) axpy_strip(av2, brow, j0, j1, cr2);
  if (!z3) axpy_strip(av3, brow, j0, j1, cr3);
}

}  // namespace

void gemm_nn_rows(int64_t m, int64_t n, int64_t k, float alpha, const float* a,
                  const float* b, float* c) {
  const int64_t panel = panel_width(k);
  for (int64_t j0 = 0; j0 < n; j0 += panel) {
    const int64_t j1 = std::min(n, j0 + panel);
    int64_t i = 0;
    for (; i + 4 <= m; i += 4) {
      const float* ar0 = a + i * k;
      const float* ar1 = ar0 + k;
      const float* ar2 = ar1 + k;
      const float* ar3 = ar2 + k;
      float* cr0 = c + i * n;
      float* cr1 = cr0 + n;
      float* cr2 = cr1 + n;
      float* cr3 = cr2 + n;
      for (int64_t p = 0; p < k; ++p) {
        update4(alpha * ar0[p], alpha * ar1[p], alpha * ar2[p],
                alpha * ar3[p], b + p * n, j0, j1, cr0, cr1, cr2, cr3);
      }
    }
    for (; i < m; ++i) {  // remainder rows
      const float* arow = a + i * k;
      float* crow = c + i * n;
      for (int64_t p = 0; p < k; ++p) {
        const float av = alpha * arow[p];
        if (av == 0.0F) continue;  // spike sparsity: skip zero rows of B
        axpy_strip(av, b + p * n, j0, j1, crow);
      }
    }
  }
}

void gemm_nt_rows(int64_t m, int64_t n, int64_t k, float alpha, const float* a,
                  const float* b, float* c) {
  for (int64_t i = 0; i < m; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    int64_t j = 0;
    for (; j + 4 <= n; j += 4) {
      const float* b0 = b + j * k;
      const float* b1 = b0 + k;
      const float* b2 = b1 + k;
      const float* b3 = b2 + k;
      // Four independent dot products in four double lanes. Lane s_j sees
      // exactly the scalar kernel's sequence of (double)a*b products in
      // ascending p, so the bits match; only the columns run in parallel.
      __m256d acc = _mm256_setzero_pd();
      for (int64_t p = 0; p < k; ++p) {
        const __m256d av = _mm256_set1_pd(static_cast<double>(arow[p]));
        const __m256d bv =
            _mm256_set_pd(static_cast<double>(b3[p]), static_cast<double>(b2[p]),
                          static_cast<double>(b1[p]), static_cast<double>(b0[p]));
        acc = _mm256_add_pd(acc, _mm256_mul_pd(av, bv));
      }
      alignas(32) double s[4];
      _mm256_store_pd(s, acc);
      crow[j] += alpha * static_cast<float>(s[0]);
      crow[j + 1] += alpha * static_cast<float>(s[1]);
      crow[j + 2] += alpha * static_cast<float>(s[2]);
      crow[j + 3] += alpha * static_cast<float>(s[3]);
    }
    for (; j < n; ++j) {  // remainder columns, scalar
      const float* brow = b + j * k;
      double s = 0.0;
      for (int64_t p = 0; p < k; ++p) {
        s += static_cast<double>(arow[p]) * brow[p];
      }
      crow[j] += alpha * static_cast<float>(s);
    }
  }
}

void gemm_tn_rows(int64_t m, int64_t n, int64_t k, float alpha, const float* a,
                  const float* b, float* c) {
  const int64_t panel = panel_width(k);
  for (int64_t j0 = 0; j0 < n; j0 += panel) {
    const int64_t j1 = std::min(n, j0 + panel);
    int64_t i = 0;
    for (; i + 4 <= m; i += 4) {
      float* cr0 = c + i * n;
      float* cr1 = cr0 + n;
      float* cr2 = cr1 + n;
      float* cr3 = cr2 + n;
      for (int64_t p = 0; p < k; ++p) {
        const float* arow = a + p * m + i;
        update4(alpha * arow[0], alpha * arow[1], alpha * arow[2],
                alpha * arow[3], b + p * n, j0, j1, cr0, cr1, cr2, cr3);
      }
    }
    for (; i < m; ++i) {  // remainder rows
      float* crow = c + i * n;
      for (int64_t p = 0; p < k; ++p) {
        const float av = alpha * a[p * m + i];
        if (av == 0.0F) continue;
        axpy_strip(av, b + p * n, j0, j1, crow);
      }
    }
  }
}

// ---- typed weight-plane kernels --------------------------------------------

void dequant_bf16(int64_t n, const uint16_t* src, float* dst) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m128i half =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    const __m256i wide = _mm256_slli_epi32(_mm256_cvtepu16_epi32(half), 16);
    _mm256_storeu_ps(dst + i, _mm256_castsi256_ps(wide));
  }
  for (; i < n; ++i) {  // tail: same bit expansion, one lane at a time
    const uint32_t wide = static_cast<uint32_t>(src[i]) << 16U;
    std::memcpy(&dst[i], &wide, sizeof(float));
  }
}

namespace {

/// Exact int32 dot of an s8 row against a u8 spike row, 32 bytes per step.
/// maddubs pairs u8*s8 into s16 sums: spikes are {0,1}, so each pair sum is
/// in [-254, 254] — far from s16 saturation — and madd widens to exact s32.
/// Integer addition is associative, so this matches the scalar loop bitwise.
inline int32_t dot_s8u8(int64_t k, const int8_t* w, const uint8_t* s) {
  __m256i acc = _mm256_setzero_si256();
  const __m256i ones = _mm256_set1_epi16(1);
  int64_t p = 0;
  for (; p + 32 <= k; p += 32) {
    const __m256i sv =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(s + p));
    const __m256i wv =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w + p));
    const __m256i pairs = _mm256_maddubs_epi16(sv, wv);
    acc = _mm256_add_epi32(acc, _mm256_madd_epi16(pairs, ones));
  }
  __m128i lanes = _mm_add_epi32(_mm256_castsi256_si128(acc),
                                _mm256_extracti128_si256(acc, 1));
  lanes = _mm_add_epi32(lanes, _mm_shuffle_epi32(lanes, _MM_SHUFFLE(1, 0, 3, 2)));
  lanes = _mm_add_epi32(lanes, _mm_shuffle_epi32(lanes, _MM_SHUFFLE(2, 3, 0, 1)));
  int32_t sum = _mm_cvtsi128_si32(lanes);
  for (; p < k; ++p) {  // tail lanes, scalar
    sum += static_cast<int32_t>(w[p]) * static_cast<int32_t>(s[p]);
  }
  return sum;
}

}  // namespace

void gemm_s8_wxs(int64_t m, int64_t n, int64_t k, const int8_t* w,
                 const uint8_t* s, const float* scale, float* c) {
  for (int64_t o = 0; o < m; ++o) {
    const int8_t* wo = w + o * k;
    const float sc = scale[o];
    for (int64_t j = 0; j < n; ++j) {
      c[o * n + j] = sc * static_cast<float>(dot_s8u8(k, wo, s + j * k));
    }
  }
}

void gemm_s8_sxw(int64_t m, int64_t n, int64_t k, const uint8_t* s,
                 const int8_t* w, const float* scale, float* c) {
  for (int64_t i = 0; i < m; ++i) {
    const uint8_t* si = s + i * k;
    for (int64_t j = 0; j < n; ++j) {
      c[i * n + j] =
          scale[j] * static_cast<float>(dot_s8u8(k, w + j * k, si));
    }
  }
}

}  // namespace ttsnn::simd::avx2

#else  // !defined(__AVX2__): non-x86 toolchain — stubs that are never called.

namespace ttsnn::simd::avx2 {

bool compiled_in() { return false; }

void axpy(int64_t, float, const float*, float*) {}
void mul(int64_t, const float*, float*) {}
void scale(int64_t, float, float*) {}
void relu(int64_t, float*) {}
void affine(int64_t, float, float, float, float, const float*, float*) {}
void lif_backward_step(int64_t, int, float, float, float, bool, bool,
                       const float*, const float*, const float*, float*,
                       float*) {}
void lif_step_eval(int64_t, float, float, bool, const float*, float*, float*) {}
void lif_step_train(int64_t, float, float, bool, const float*, float*, float*,
                    float*) {}
void sgd_step(int64_t, float, float, float, const float*, float*, float*) {}
void gemm_nn_rows(int64_t, int64_t, int64_t, float, const float*, const float*,
                  float*) {}
void gemm_tn_rows(int64_t, int64_t, int64_t, float, const float*, const float*,
                  float*) {}
void gemm_nt_rows(int64_t, int64_t, int64_t, float, const float*, const float*,
                  float*) {}
void dequant_bf16(int64_t, const uint16_t*, float*) {}
void gemm_s8_wxs(int64_t, int64_t, int64_t, const int8_t*, const uint8_t*,
                 const float*, float*) {}
void gemm_s8_sxw(int64_t, int64_t, int64_t, const uint8_t*, const int8_t*,
                 const float*, float*) {}

}  // namespace ttsnn::simd::avx2

#endif
