#pragma once

/// \file ops.h
/// Free-function tensor operations: elementwise arithmetic, activations,
/// matrix multiplication, softmax, and small utilities used across the
/// library. All functions allocate and return fresh tensors unless the name
/// ends in '_' (none here — in-place ops live on Tensor itself).

#include "tensor/tensor.h"

namespace ttsnn {

// ---- allocation helpers ----------------------------------------------------
/// Zero tensor with the same shape as t (PyTorch's zeros_like).
Tensor zeros_like(const Tensor& t);
/// Uninitialized tensor with the same shape as t — for buffers every element
/// of which is about to be written.
Tensor empty_like(const Tensor& t);

// ---- elementwise -----------------------------------------------------------
Tensor add(const Tensor& a, const Tensor& b);
Tensor sub(const Tensor& a, const Tensor& b);
Tensor mul(const Tensor& a, const Tensor& b);
Tensor scale(const Tensor& a, float s);
Tensor relu(const Tensor& a);
Tensor exp(const Tensor& a);
Tensor sqrt(const Tensor& a);

// ---- linear algebra --------------------------------------------------------
/// Row-major matrix product of a [m, k] by b [k, n] -> [m, n].
Tensor matmul(const Tensor& a, const Tensor& b);
/// a^T * b where a is [k, m], b is [k, n] -> [m, n].
Tensor matmul_tn(const Tensor& a, const Tensor& b);
/// a * b^T where a is [m, k], b is [n, k] -> [m, n].
Tensor matmul_nt(const Tensor& a, const Tensor& b);

// ---- softmax / classification ----------------------------------------------
/// Row-wise log-softmax of logits [n, c].
Tensor log_softmax(const Tensor& logits);
/// Raw-buffer variant: log-softmax of `src` [n, c] into `dst` (may alias
/// src). Lets the loss kernels reuse one scratch buffer per timestep instead
/// of allocating tensors in the BPTT hot loop.
void log_softmax_rows(const float* src, int64_t n, int64_t c, float* dst);
/// Row-wise softmax of logits [n, c].
Tensor softmax(const Tensor& logits);
/// Per-row argmax of a [n, c] matrix -> length-n vector of class indices.
std::vector<int64_t> argmax_rows(const Tensor& logits);

/// Max absolute elementwise difference — test helper.
double max_abs_diff(const Tensor& a, const Tensor& b);

}  // namespace ttsnn
