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
/// bit-identical across kernels and SIMD tiers.
///
/// A call runs on the calling thread; beyond its arguments it reads only the
/// SIMD level simd dispatches on. Parallelism lives one level up: TTConv2d
/// runs its PTT/HTT strip branches on the shared ThreadPool
/// (docs/ARCHITECTURE.md, "Threading model").

#include <cstdint>

namespace ttsnn {

void gemm(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k,
          float alpha, const float* a, const float* b, float beta, float* c);

}  // namespace ttsnn
