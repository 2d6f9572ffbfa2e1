#pragma once

/// \file simd.h
/// Vectorized kernel tier with runtime dispatch.
///
/// Every function here has two implementations: a portable scalar loop
/// (simd.cpp) and an AVX2 one (simd_avx2.cpp, compiled with -mavx2 -mfma and
/// only reachable after a cpuid check). The active tier is picked once at
/// startup — the TTSNN_SIMD environment variable ("scalar" / "avx2") can pin
/// it — and can be overridden per-scope with LevelGuard for tests and benches.
///
/// Bit-identity contract: the AVX2 kernels use separate multiply and add
/// instructions (never FMA) in exactly the per-element order of the scalar
/// loops, and both TUs are built with -ffp-contract=off, so scalar and AVX2
/// results are bitwise identical for every reorder-free kernel below (all of
/// them — reductions that would need lane-split accumulators are deliberately
/// not offered here). That keeps the library-wide "same bits on every kernel
/// tier" invariant that the GEMM layer and the inference engine pin in tests.
/// This is the only place that chooses an instruction set: gemm() and every
/// other caller just call the kernels below.

#include <cstdint>

namespace ttsnn::simd {

enum class Level { kScalar, kAvx2 };

const char* level_name(Level level);

/// Best tier this CPU supports, intersected with TTSNN_SIMD if set.
/// Computed once on first call.
Level detected_level();

/// Tier used by all kernels below. Defaults to detected_level().
Level active_level();

/// Pins the active tier; requests above detected_level() are clamped down
/// (asking for AVX2 on a non-AVX2 host leaves the scalar tier active).
void set_level(Level level);

/// RAII pin-and-restore, so a test or bench cannot leak its tier.
class LevelGuard {
 public:
  explicit LevelGuard(Level level);
  ~LevelGuard();
  LevelGuard(const LevelGuard&) = delete;
  LevelGuard& operator=(const LevelGuard&) = delete;

 private:
  Level prev_;
};

// ---- elementwise kernels ---------------------------------------------------
// All operate on contiguous float buffers; in-place variants mutate y. The
// inference engine's fused plan ops (infer/engine.cpp) chain these same
// kernels over one image at a time, so fused and unfused plans share bits.

/// y[i] += a * x[i]
void axpy(int64_t n, float a, const float* x, float* y);
/// y[i] *= x[i]
void mul(int64_t n, const float* x, float* y);
/// y[i] *= a
void scale(int64_t n, float a, float* y);
/// y[i] = max(y[i], 0)
void relu(int64_t n, float* y);
/// y[i] = eff * ((x[i] - mu) * inv_std) + beta — the BatchNorm eval affine.
void affine(int64_t n, float mu, float inv_std, float eff, float beta,
            const float* x, float* y);

/// Exp-free surrogate-gradient families of the LIF backward step. The
/// sigmoid surrogate needs exp() (no exact vector form) and stays on the
/// caller's scalar loop.
enum class LifSurrogate { kRectangle, kTriangle, kAtan };

/// One BPTT timestep of the LIF backward recurrence over m neurons, mirroring
/// LIFNeuron::backward's inner loop: surrogate at the cached membrane u,
/// reset-carry from gu_post, optional non-detached reset term, then
/// gu_post = tau * gu. Reads gst/ut/st, updates gu_post, writes git.
void lif_backward_step(int64_t m, LifSurrogate kind, float alpha, float tau,
                       float v_th, bool zero_reset, bool detach_reset,
                       const float* gst, const float* ut, const float* st,
                       float* gu_post, float* git);

/// One LIF timestep over m neurons (eval mode): u = tau * u_post + in,
/// s = u >= v_th, then the reset update of u_post. Writes spikes to s_out.
/// Reads in[i] before writing s_out[i], so s_out may alias in.
void lif_step_eval(int64_t m, float tau, float v_th, bool zero_reset,
                   const float* in, float* u_post, float* s_out);
/// Training variant: additionally records the pre-reset membrane u.
void lif_step_train(int64_t m, float tau, float v_th, bool zero_reset,
                    const float* in, float* u_post, float* u_out, float* s_out);

/// Fused SGD-with-momentum update: v = mu*v + g + decay*w; w -= lr*v.
void sgd_step(int64_t n, float lr, float momentum, float decay, const float* g,
              float* v, float* w);

// ---- dense GEMM row kernels ------------------------------------------------
// C += alpha * op(A) * op(B) over packed row-major operands, all m rows;
// gemm() (tensor/gemm.h) scales C by beta first and calls one of these on
// the calling thread. Every C element accumulates its k contributions in
// ascending order with unfused mul+add, and a zero A element is skipped (it
// would only add ±0.0), so both tiers return the same bits on finite inputs.
// The AVX2 NN/TN kernels tile n into cache-resident panels and update four C
// rows per streamed B row; the tiling changes which element is touched when,
// never the order of one element's terms.

/// C [m,n] += alpha * A * B (A [m,k], B [k,n]).
void gemm_nn_rows(int64_t m, int64_t n, int64_t k, float alpha, const float* a,
                  const float* b, float* c);
/// C [m,n] += alpha * A^T * B (A [k,m], B [k,n]).
void gemm_tn_rows(int64_t m, int64_t n, int64_t k, float alpha, const float* a,
                  const float* b, float* c);
/// C [m,n] += alpha * A * B^T (A [m,k], B [n,k]). Each dot product
/// accumulates in double; the AVX2 tier runs four output columns as four
/// independent double lanes.
void gemm_nt_rows(int64_t m, int64_t n, int64_t k, float alpha, const float* a,
                  const float* b, float* c);

// ---- typed weight-plane kernels (tensor/weight_plane.h) --------------------
// The quantized serving path. Unlike the float kernels above, the int8 GEMMs
// need no ordering discipline for bit-identity: the accumulation is exact
// int32 arithmetic (spikes are {0,1} u8, weights s8, k * 127 < 2^31), so any
// summation order gives the same integer, and the single per-output-channel
// rescale is one float multiply. Scalar and AVX2 tiers are therefore bitwise
// identical by construction.

/// dst[i] = f32 whose bit pattern is src[i] << 16 — exact bf16 expansion,
/// including NaN and denormals. Pure bit movement, identical on both tiers.
void dequant_bf16(int64_t n, const uint16_t* src, float* dst);

/// Binary {0,1} float spikes -> u8, same order. Exact boolean conversion
/// (s != 0), tier-independent; scalar on both tiers.
void spikes_to_u8(int64_t n, const float* src, uint8_t* dst);

/// Binary spike matrix [k, n] in im2col layout -> transposed u8 [n, k], so
/// the int8 dot products read both operands contiguously along k. Scalar on
/// both tiers (boolean conversion, exact).
void spikes_to_u8_t(int64_t k, int64_t n, const float* src, uint8_t* dst);

/// Int8-weight x binary-spike GEMM, conv orientation: w is [m, k] s8 rows
/// (one output channel per row), s is [n, k] u8 spike columns, and
/// c[o * n + j] = scale[o] * dot_int32(w_o, s_j). Widening accumulate into
/// int32, one float rescale per output value.
void gemm_s8_wxs(int64_t m, int64_t n, int64_t k, const int8_t* w,
                 const uint8_t* s, const float* scale, float* c);

/// Linear orientation: s is [m, k] u8 spike rows, w is [n, k] s8 rows (one
/// output feature per row), c[i * n + j] = scale[j] * dot_int32(s_i, w_j) —
/// the integer analogue of gemm(trans_b=true).
void gemm_s8_sxw(int64_t m, int64_t n, int64_t k, const uint8_t* s,
                 const int8_t* w, const float* scale, float* c);

}  // namespace ttsnn::simd
