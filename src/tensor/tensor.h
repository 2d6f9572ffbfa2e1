#pragma once

/// \file tensor.h
/// Dense, contiguous, row-major float32 tensor with shared storage.
///
/// Design notes:
///  - Tensors are cheap value types: copying a Tensor shares the underlying
///    buffer (like a PyTorch view of the whole tensor); clone() deep-copies.
///  - All tensors are contiguous. reshape() shares storage; permute() copies.
///  - Convolution activations use NCHW layout throughout the library.

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "util/common.h"

namespace ttsnn {

/// Tensor shape: one extent per dimension, row-major (last dim fastest).
using Shape = std::vector<int64_t>;

/// Product of all extents; 1 for a rank-0 shape.
int64_t shape_numel(const Shape& s);

/// Human-readable form, e.g. "[2, 3, 8, 8]".
std::string shape_str(const Shape& s);

/// Flat float buffer backing a Tensor. Allocation and release go through the
/// Arena (arena.h): inside an ArenaScope, freed blocks are recycled instead
/// of hitting the heap, which removes the per-op malloc/zero-fill churn from
/// the training loop. Blocks are size-class capacities; `size` is the numel
/// actually in use.
class Storage {
 public:
  /// Allocates n floats; zero-fills when `zero` (recycled blocks carry stale
  /// data, so Tensor's zero-initialized constructors must ask for it).
  Storage(int64_t n, bool zero);
  ~Storage();
  Storage(const Storage&) = delete;
  Storage& operator=(const Storage&) = delete;

  float* data() { return data_; }
  const float* data() const { return data_; }
  int64_t size() const { return size_; }

 private:
  float* data_ = nullptr;
  int64_t size_ = 0;
  int64_t cap_ = 0;  ///< size-class capacity returned to the arena on release
};

/// Dense float32 tensor. See file comment for semantics.
class Tensor {
 public:
  /// Empty tensor (numel() == 0, dim() == 0).
  Tensor() = default;

  /// Zero-filled tensor of the given shape.
  explicit Tensor(Shape shape);

  /// Tensor wrapping a copy of the given flat data (row-major).
  Tensor(Shape shape, std::vector<float> data);

  // ---- factories -----------------------------------------------------------
  /// Tensor with *unspecified* contents — for outputs every element of which
  /// is about to be written (clones, GEMM beta=0 results, elementwise maps).
  /// Skips the zero-fill that Tensor(Shape) guarantees.
  static Tensor empty(Shape shape);
  static Tensor zeros(Shape shape);
  static Tensor ones(Shape shape);
  static Tensor full(Shape shape, float value);
  /// 1-D tensor [0, 1, ..., n-1].
  static Tensor arange(int64_t n);
  /// I.i.d. N(0, 1) entries.
  static Tensor randn(Shape shape, Rng& rng);
  /// I.i.d. uniform entries in [lo, hi).
  static Tensor uniform(Shape shape, Rng& rng, float lo = 0.0F, float hi = 1.0F);
  /// I.i.d. Bernoulli(p) entries in {0, 1}.
  static Tensor bernoulli(Shape shape, Rng& rng, float p);

  // ---- metadata ------------------------------------------------------------
  bool defined() const { return storage_ != nullptr; }
  int64_t numel() const { return defined() ? shape_numel(shape_) : 0; }
  int64_t dim() const { return static_cast<int64_t>(shape_.size()); }
  /// Extent of dimension i (supports negative indices, Python-style).
  int64_t size(int64_t i) const;
  const Shape& shape() const { return shape_; }
  bool same_shape(const Tensor& other) const { return shape_ == other.shape_; }

  // ---- data access ---------------------------------------------------------
  float* data();
  const float* data() const;
  float& operator[](int64_t flat_index);
  float operator[](int64_t flat_index) const;
  /// Multi-dimensional accessor (bounds-checked); convenient in tests.
  float& at(std::initializer_list<int64_t> idx);
  float at(std::initializer_list<int64_t> idx) const;

  // ---- structure -----------------------------------------------------------
  /// Deep copy.
  Tensor clone() const;
  /// Same storage, new shape (numel must match). One extent may be -1 and is
  /// inferred from the remaining dimensions.
  Tensor reshape(Shape shape) const;
  /// Shared-storage window: a tensor of the given shape whose first element
  /// sits `offset` floats after this tensor's first element. Bounds-checked
  /// against the storage actually in use. The inference memory planner
  /// (infer/analysis.h) uses views to place every plan register inside one
  /// flat workspace buffer.
  Tensor view(int64_t offset, Shape shape) const;
  /// Copying permutation of dimensions (axes is a permutation of 0..dim-1).
  Tensor permute(const std::vector<int64_t>& axes) const;
  /// 2-D transpose (dim() must be 2). Copies.
  Tensor transpose2d() const;
  /// Slice along dim 0: rows [begin, end). Copies.
  Tensor slice0(int64_t begin, int64_t end) const;

  // ---- in-place arithmetic (return *this for chaining) ----------------------
  Tensor& fill_(float value);
  Tensor& zero_() { return fill_(0.0F); }
  Tensor& add_(const Tensor& other);
  Tensor& sub_(const Tensor& other);
  Tensor& mul_(const Tensor& other);
  Tensor& add_scalar_(float value);
  Tensor& mul_scalar_(float value);
  /// Alias of mul_scalar_ matching the free-function name ops.h::scale.
  Tensor& scale_(float value) { return mul_scalar_(value); }
  /// Elementwise e^x in place.
  Tensor& exp_();
  /// *this += alpha * other (BLAS axpy).
  Tensor& axpy_(float alpha, const Tensor& other);
  /// Clamp all entries into [lo, hi].
  Tensor& clamp_(float lo, float hi);

  // ---- reductions ----------------------------------------------------------
  double sum() const;
  double mean() const;
  float max_value() const;
  float min_value() const;
  /// Index of the maximum entry (first occurrence).
  int64_t argmax() const;
  /// Fraction of non-zero entries — spike density for SNN activations.
  double density() const;
  /// sqrt(sum of squares).
  double norm() const;

  std::string to_string(int64_t max_entries = 32) const;

 private:
  void check_defined() const;

  Shape shape_;
  std::shared_ptr<Storage> storage_;
  int64_t offset_ = 0;  ///< float offset into storage_ (views; 0 elsewhere)
};

}  // namespace ttsnn
