#include "tensor/simd.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "tensor/simd_kernels.h"

namespace ttsnn::simd {

namespace {

/// CPU support for the AVX2 tier: the instruction set must be present at
/// runtime *and* simd_avx2.cpp must have been built with AVX2 codegen.
bool cpu_has_avx2() {
#if defined(__x86_64__) || defined(_M_X64) || defined(__i386__)
  return avx2::compiled_in() && __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

Level compute_detected() {
  Level best = cpu_has_avx2() ? Level::kAvx2 : Level::kScalar;
  if (const char* env = std::getenv("TTSNN_SIMD")) {
    if (std::strcmp(env, "scalar") == 0) return Level::kScalar;
    if (std::strcmp(env, "avx2") == 0) return best;  // cannot exceed the CPU
  }
  return best;
}

std::atomic<Level>& active_storage() {
  static std::atomic<Level> level{detected_level()};
  return level;
}

}  // namespace

const char* level_name(Level level) {
  switch (level) {
    case Level::kScalar:
      return "scalar";
    case Level::kAvx2:
      return "avx2";
  }
  return "?";
}

Level detected_level() {
  static const Level detected = compute_detected();
  return detected;
}

Level active_level() { return active_storage().load(); }

void set_level(Level level) {
  if (level == Level::kAvx2 && detected_level() != Level::kAvx2) {
    level = Level::kScalar;  // clamp: never dispatch into unsupported code
  }
  active_storage().store(level);
}

LevelGuard::LevelGuard(Level level) : prev_(active_level()) { set_level(level); }

LevelGuard::~LevelGuard() { set_level(prev_); }

namespace {

/// True when the AVX2 implementation should run. Inlined into every kernel;
/// one relaxed atomic load per whole-buffer call.
inline bool use_avx2() { return active_level() == Level::kAvx2; }

}  // namespace

// ---- elementwise: scalar reference implementations -------------------------
// These are the semantics the AVX2 TU reproduces bit-for-bit (mul + add in the
// same per-element order; this TU is built with -ffp-contract=off so the
// compiler cannot fuse them into FMAs behind our back).

void axpy(int64_t n, float a, const float* x, float* y) {
  if (use_avx2()) return avx2::axpy(n, a, x, y);
  for (int64_t i = 0; i < n; ++i) y[i] += a * x[i];
}

void mul(int64_t n, const float* x, float* y) {
  if (use_avx2()) return avx2::mul(n, x, y);
  for (int64_t i = 0; i < n; ++i) y[i] *= x[i];
}

void scale(int64_t n, float a, float* y) {
  if (use_avx2()) return avx2::scale(n, a, y);
  for (int64_t i = 0; i < n; ++i) y[i] *= a;
}

void relu(int64_t n, float* y) {
  if (use_avx2()) return avx2::relu(n, y);
  for (int64_t i = 0; i < n; ++i) y[i] = std::max(y[i], 0.0F);
}

void affine(int64_t n, float mu, float inv_std, float eff, float beta,
            const float* x, float* y) {
  if (use_avx2()) return avx2::affine(n, mu, inv_std, eff, beta, x, y);
  for (int64_t i = 0; i < n; ++i) {
    const float v = (x[i] - mu) * inv_std;
    y[i] = eff * v + beta;
  }
}

namespace {

/// Scalar surrogate derivative, kept expression-identical to the AVX2 lanes
/// (and to nn/lif.cpp's surrogate_grad for these families).
inline float surrogate(LifSurrogate kind, float alpha, float v_th, float u) {
  const float x = u - v_th;
  switch (kind) {
    case LifSurrogate::kRectangle:
      return std::fabs(x) < 0.5F * alpha ? 1.0F / alpha : 0.0F;
    case LifSurrogate::kTriangle: {
      const float v = 1.0F - std::fabs(x) / alpha;
      return v > 0.0F ? v / alpha : 0.0F;
    }
    case LifSurrogate::kAtan: {
      const float z = 0.5F * 3.14159265358979323846F * alpha * x;
      return alpha / (2.0F * (1.0F + z * z));
    }
  }
  return 0.0F;
}

}  // namespace

void lif_backward_step(int64_t m, LifSurrogate kind, float alpha, float tau,
                       float v_th, bool zero_reset, bool detach_reset,
                       const float* gst, const float* ut, const float* st,
                       float* gu_post, float* git) {
  if (use_avx2()) {
    return avx2::lif_backward_step(m, static_cast<int>(kind), alpha, tau, v_th,
                                   zero_reset, detach_reset, gst, ut, st,
                                   gu_post, git);
  }
  for (int64_t i = 0; i < m; ++i) {
    const float surr = surrogate(kind, alpha, v_th, ut[i]);
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
  if (use_avx2()) {
    return avx2::lif_step_eval(m, tau, v_th, zero_reset, in, u_post, s_out);
  }
  for (int64_t i = 0; i < m; ++i) {
    const float u = tau * u_post[i] + in[i];
    const float s = u >= v_th ? 1.0F : 0.0F;
    s_out[i] = s;
    u_post[i] = zero_reset ? u * (1.0F - s) : u - v_th * s;
  }
}

void lif_step_train(int64_t m, float tau, float v_th, bool zero_reset,
                    const float* in, float* u_post, float* u_out,
                    float* s_out) {
  if (use_avx2()) {
    return avx2::lif_step_train(m, tau, v_th, zero_reset, in, u_post, u_out,
                                s_out);
  }
  for (int64_t i = 0; i < m; ++i) {
    const float u = tau * u_post[i] + in[i];
    const float s = u >= v_th ? 1.0F : 0.0F;
    u_out[i] = u;
    s_out[i] = s;
    u_post[i] = zero_reset ? u * (1.0F - s) : u - v_th * s;
  }
}

void lif_step_eval_bias(int64_t m, float tau, float v_th, bool zero_reset,
                        float bias, const float* in, float* u_post,
                        float* s_out) {
  if (use_avx2()) {
    return avx2::lif_step_eval_bias(m, tau, v_th, zero_reset, bias, in, u_post,
                                    s_out);
  }
  for (int64_t i = 0; i < m; ++i) {
    const float v = in[i] + bias;
    const float u = tau * u_post[i] + v;
    const float s = u >= v_th ? 1.0F : 0.0F;
    s_out[i] = s;
    u_post[i] = zero_reset ? u * (1.0F - s) : u - v_th * s;
  }
}

void affine_lif_step(int64_t n, float mu, float inv_std, float eff, float beta,
                     float tau, float v_th, bool zero_reset, const float* x,
                     float* u_post, float* s_out) {
  if (use_avx2()) {
    return avx2::affine_lif_step(n, mu, inv_std, eff, beta, tau, v_th,
                                 zero_reset, x, u_post, s_out);
  }
  for (int64_t i = 0; i < n; ++i) {
    const float v = (x[i] - mu) * inv_std;
    const float a = eff * v + beta;
    const float u = tau * u_post[i] + a;
    const float s = u >= v_th ? 1.0F : 0.0F;
    s_out[i] = s;
    u_post[i] = zero_reset ? u * (1.0F - s) : u - v_th * s;
  }
}

void add_lif_step(int64_t m, float tau, float v_th, bool zero_reset,
                  const float* a, const float* b, float* u_post, float* s_out) {
  if (use_avx2()) {
    return avx2::add_lif_step(m, tau, v_th, zero_reset, a, b, u_post, s_out);
  }
  for (int64_t i = 0; i < m; ++i) {
    const float v = a[i] + 1.0F * b[i];
    const float u = tau * u_post[i] + v;
    const float s = u >= v_th ? 1.0F : 0.0F;
    s_out[i] = s;
    u_post[i] = zero_reset ? u * (1.0F - s) : u - v_th * s;
  }
}

void affine_add(int64_t n, float mu, float inv_std, float eff, float beta,
                bool swap, const float* x, const float* other, float* y) {
  if (use_avx2()) {
    return avx2::affine_add(n, mu, inv_std, eff, beta, swap, x, other, y);
  }
  for (int64_t i = 0; i < n; ++i) {
    const float v = (x[i] - mu) * inv_std;
    const float a = eff * v + beta;
    y[i] = swap ? other[i] + 1.0F * a : a + 1.0F * other[i];
  }
}

void sgd_step(int64_t n, float lr, float momentum, float decay, const float* g,
              float* v, float* w) {
  if (use_avx2()) return avx2::sgd_step(n, lr, momentum, decay, g, v, w);
  for (int64_t j = 0; j < n; ++j) {
    v[j] = momentum * v[j] + g[j] + decay * w[j];
    w[j] -= lr * v[j];
  }
}

// ---- dense GEMM row kernels ------------------------------------------------
// The scalar tier is the plain loop nest, and the reference the AVX2 tier
// and the spike-plane kernels are tested against.

/// Inner loops run i-k-j so the B row streams contiguously. A single O(k)
/// scan per row hoists the zero check out of the O(k*n) inner loop: fully
/// dense rows (conv weights, gradients) run branch-free, and only rows that
/// contain zeros (spike rows) pay the per-element test. Contributions stay in
/// ascending-k order either way.
void gemm_nn_rows(int64_t m0, int64_t m1, int64_t n, int64_t k, float alpha,
                  const float* a, const float* b, float* c) {
  if (use_avx2()) return avx2::gemm_nn_rows(m0, m1, n, k, alpha, a, b, c);
  for (int64_t i = m0; i < m1; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    if (std::find(arow, arow + k, 0.0F) == arow + k) {  // dense row
      for (int64_t p = 0; p < k; ++p) {
        const float av = alpha * arow[p];
        const float* brow = b + p * n;
        for (int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
      }
      continue;
    }
    for (int64_t p = 0; p < k; ++p) {
      const float av = alpha * arow[p];
      if (av == 0.0F) continue;  // spike matrices are sparse; skip zero rows
      const float* brow = b + p * n;
      for (int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

/// The zero check is hoisted per A row (one O(m) scan instead of m
/// per-element tests) exactly like gemm_nn_rows.
void gemm_tn_rows(int64_t m0, int64_t m1, int64_t n, int64_t k, int64_t lda,
                  float alpha, const float* a, const float* b, float* c) {
  if (use_avx2()) {
    return avx2::gemm_tn_rows(m0, m1, n, k, lda, alpha, a, b, c);
  }
  for (int64_t p = 0; p < k; ++p) {
    const float* arow = a + p * lda;
    const float* brow = b + p * n;
    if (std::find(arow + m0, arow + m1, 0.0F) == arow + m1) {  // dense row
      for (int64_t i = m0; i < m1; ++i) {
        const float av = alpha * arow[i];
        float* crow = c + i * n;
        for (int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
      }
      continue;
    }
    for (int64_t i = m0; i < m1; ++i) {
      const float av = alpha * arow[i];
      if (av == 0.0F) continue;
      float* crow = c + i * n;
      for (int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

void gemm_nt_rows(int64_t m0, int64_t m1, int64_t n, int64_t k, float alpha,
                  const float* a, const float* b, float* c) {
  if (use_avx2()) return avx2::gemm_nt_rows(m0, m1, n, k, alpha, a, b, c);
  for (int64_t i = m0; i < m1; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    for (int64_t j = 0; j < n; ++j) {
      const float* brow = b + j * k;
      double s = 0.0;
      for (int64_t p = 0; p < k; ++p) s += static_cast<double>(arow[p]) * brow[p];
      crow[j] += alpha * static_cast<float>(s);
    }
  }
}

// ---- typed weight-plane kernels --------------------------------------------
// Integer accumulation is exact, so unlike the float kernels above these need
// no ordering discipline: scalar and AVX2 tiers agree bitwise automatically.

void dequant_bf16(int64_t n, const uint16_t* src, float* dst) {
  if (use_avx2()) return avx2::dequant_bf16(n, src, dst);
  for (int64_t i = 0; i < n; ++i) {
    const uint32_t wide = static_cast<uint32_t>(src[i]) << 16U;
    std::memcpy(&dst[i], &wide, sizeof(float));
  }
}

void spikes_to_u8(int64_t n, const float* src, uint8_t* dst) {
  for (int64_t i = 0; i < n; ++i) dst[i] = src[i] != 0.0F ? 1 : 0;
}

void spikes_to_u8_t(int64_t k, int64_t n, const float* src, uint8_t* dst) {
  for (int64_t p = 0; p < k; ++p) {
    const float* row = src + p * n;
    for (int64_t j = 0; j < n; ++j) dst[j * k + p] = row[j] != 0.0F ? 1 : 0;
  }
}

namespace {

/// Exact int32 dot of an s8 row against a u8 spike row.
inline int32_t dot_s8u8(int64_t k, const int8_t* w, const uint8_t* s) {
  int32_t acc = 0;
  for (int64_t p = 0; p < k; ++p) {
    acc += static_cast<int32_t>(w[p]) * static_cast<int32_t>(s[p]);
  }
  return acc;
}

}  // namespace

void gemm_s8_wxs(int64_t m, int64_t n, int64_t k, const int8_t* w,
                 const uint8_t* s, const float* scale, float* c) {
  if (use_avx2()) return avx2::gemm_s8_wxs(m, n, k, w, s, scale, c);
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
  if (use_avx2()) return avx2::gemm_s8_sxw(m, n, k, s, w, scale, c);
  for (int64_t i = 0; i < m; ++i) {
    const uint8_t* si = s + i * k;
    for (int64_t j = 0; j < n; ++j) {
      c[i * n + j] =
          scale[j] * static_cast<float>(dot_s8u8(k, w + j * k, si));
    }
  }
}

}  // namespace ttsnn::simd
