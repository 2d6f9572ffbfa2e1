#pragma once

/// \file simd_kernels.h
/// Internal declarations of the AVX2 kernel implementations (simd_avx2.cpp).
/// Only simd.cpp includes this; everything public lives in simd.h.

#include <cstdint>

namespace ttsnn::simd::avx2 {

/// True when simd_avx2.cpp was built with AVX2 codegen (x86 toolchain).
bool compiled_in();

void axpy(int64_t n, float a, const float* x, float* y);
void mul(int64_t n, const float* x, float* y);
void scale(int64_t n, float a, float* y);
void relu(int64_t n, float* y);
void affine(int64_t n, float mu, float inv_std, float eff, float beta,
            const float* x, float* y);
void lif_backward_step(int64_t m, int kind, float alpha, float tau, float v_th,
                       bool zero_reset, bool detach_reset, const float* gst,
                       const float* ut, const float* st, float* gu_post,
                       float* git);
void lif_step_eval(int64_t m, float tau, float v_th, bool zero_reset,
                   const float* in, float* u_post, float* s_out);
void lif_step_train(int64_t m, float tau, float v_th, bool zero_reset,
                    const float* in, float* u_post, float* u_out, float* s_out);
void sgd_step(int64_t n, float lr, float momentum, float decay, const float* g,
              float* v, float* w);
void gemm_nn_rows(int64_t m, int64_t n, int64_t k, float alpha, const float* a,
                  const float* b, float* c);
void gemm_tn_rows(int64_t m, int64_t n, int64_t k, float alpha, const float* a,
                  const float* b, float* c);
void gemm_nt_rows(int64_t m, int64_t n, int64_t k, float alpha, const float* a,
                  const float* b, float* c);
void dequant_bf16(int64_t n, const uint16_t* src, float* dst);
void gemm_s8_wxs(int64_t m, int64_t n, int64_t k, const int8_t* w,
                 const uint8_t* s, const float* scale, float* c);
void gemm_s8_sxw(int64_t m, int64_t n, int64_t k, const uint8_t* s,
                 const int8_t* w, const float* scale, float* c);

}  // namespace ttsnn::simd::avx2
