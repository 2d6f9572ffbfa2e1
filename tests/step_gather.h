#pragma once

/// \file step_gather.h
/// Test-side timestep gather and scatter: the HTT schedule split that the
/// library once ran before it took every timestep on views of one buffer.
/// The HTT bitwise references (training in ttconv_test, merged serving in
/// infer_test) gather each class of steps into its own tensor, run it, and
/// scatter the results back, so the per-step code is checked against the
/// algorithm it replaced.

#include <algorithm>
#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace ttsnn::testgen {

/// The steps t of a T-step schedule whose entry equals `full`, ascending.
inline std::vector<int64_t> steps_where(const std::vector<bool>& schedule,
                                        int64_t t_steps, bool full) {
  std::vector<int64_t> idx;
  for (int64_t t = 0; t < t_steps; ++t) {
    if (schedule[static_cast<size_t>(t)] == full) idx.push_back(t);
  }
  return idx;
}

/// The dim-0 rows of x listed in idx, in that order, as a new tensor;
/// undefined for an empty idx.
inline Tensor gather_steps(const Tensor& x, const std::vector<int64_t>& idx) {
  if (idx.empty()) return {};
  Shape s = x.shape();
  s[0] = static_cast<int64_t>(idx.size());
  Tensor out = Tensor::empty(s);
  const int64_t row = x.numel() / x.size(0);
  for (size_t j = 0; j < idx.size(); ++j) {
    std::copy(x.data() + idx[j] * row, x.data() + (idx[j] + 1) * row,
              out.data() + static_cast<int64_t>(j) * row);
  }
  return out;
}

/// Writes the dim-0 rows of src into dst at the positions listed in idx.
inline void scatter_steps(Tensor& dst, const Tensor& src,
                          const std::vector<int64_t>& idx) {
  const int64_t row = dst.numel() / dst.size(0);
  for (size_t j = 0; j < idx.size(); ++j) {
    std::copy(src.data() + static_cast<int64_t>(j) * row,
              src.data() + static_cast<int64_t>(j + 1) * row,
              dst.data() + idx[j] * row);
  }
}

}  // namespace ttsnn::testgen
