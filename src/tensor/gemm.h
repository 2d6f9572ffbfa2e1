#pragma once

/// \file gemm.h
/// Single-precision GEMM for packed row-major matrices.
/// C = alpha * op(A) * op(B) + beta * C, with op controlled by trans flags.
/// Matrices are densely packed: op(A) is [m, k], op(B) is [k, n], C is [m, n].
///
/// Each call picks its kernel from its operands alone. A B operand (NN / NT)
/// that samples as a sparse binary spike matrix takes the SpikePlane
/// gathered-accumulation path (spike_plane.h); everything else runs the dense
/// simd:: row kernels (simd.h), whose instruction set simd chooses. Every
/// kernel accumulates each C element in ascending-k order, so results are
/// bit-identical across kernels, SIMD tiers and thread counts.
///
/// Large problems are row-partitioned across the shared ThreadPool; the PTT
/// branch parallelism (docs/ARCHITECTURE.md, "Threading model") uses the same
/// pool one level up, so GEMM keeps its own fan-out conservative to avoid
/// oversubscription.

#include <cstdint>

namespace ttsnn {

void gemm(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k,
          float alpha, const float* a, const float* b, float beta, float* c);

/// Number of row partitions GEMM may fan out across the shared pool
/// (defaults to 1; bench/bench_util.h raises it to 2 for the models without
/// branch parallelism, the dense baseline and STT).
void set_gemm_threads(int threads);
int gemm_threads();

/// Restores the previous gemm thread count on scope exit, so a benchmark or
/// test that raises it cannot leak the setting into later code.
class GemmThreadsGuard {
 public:
  explicit GemmThreadsGuard(int threads);
  ~GemmThreadsGuard();
  GemmThreadsGuard(const GemmThreadsGuard&) = delete;
  GemmThreadsGuard& operator=(const GemmThreadsGuard&) = delete;

 private:
  int prev_ = 0;
};

}  // namespace ttsnn
