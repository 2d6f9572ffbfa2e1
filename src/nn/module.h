#pragma once

/// \file module.h
/// Layer abstraction for SNN training with backprop-through-time.
///
/// Sequence convention: activations flow through the network as 5-D tensors
/// [T, N, C, H, W] (or 3-D [T, N, F] after flattening), where T is the number
/// of SNN timesteps. Layers are processed *layer-major*: each module consumes
/// the entire timestep sequence before the next module runs. This matches the
/// accelerator dataflow in Sec. IV of the paper ("finish processing all
/// timesteps for each layer and then move to the next") and lets tdBN / TEBN
/// normalize across time. Temporal recurrence lives inside LIFNeuron, which
/// iterates timesteps internally in both directions (forward and BPTT).
///
/// Each module caches whatever its backward pass needs during forward();
/// backward() must be called exactly once per forward() with the gradient of
/// the loss w.r.t. the module output, and returns the gradient w.r.t. input.

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace ttsnn {

/// A trainable tensor with its gradient accumulator.
struct Parameter {
  std::string name;
  Tensor value;
  Tensor grad;
  /// Excluded from weight decay when false (BN affine parameters).
  bool decay = true;

  Parameter() = default;
  Parameter(std::string n, Tensor v, bool apply_decay = true)
      : name(std::move(n)), value(std::move(v)), grad(Tensor::zeros(value.shape())),
        decay(apply_decay) {}
};

/// A named non-trainable tensor (e.g. BatchNorm running statistics) that is
/// part of a module's persistent state but not of its gradient graph.
struct BufferRef {
  std::string name;
  Tensor* value = nullptr;
};

/// Static per-layer description used by the FLOPs analyzer and the hardware
/// workload extractor. `macs` counts multiply-accumulates for ONE sample and
/// ONE timestep (multiply by T and batch externally).
struct LayerDesc {
  std::string kind;      ///< "conv" | "ttconv" | "linear" | "lif" | "bn" | "pool"
  std::string detail;    ///< free-form, e.g. TT mode
  int64_t in_c = 0, out_c = 0;
  int64_t kernel_h = 0, kernel_w = 0;
  int64_t stride = 1;
  int64_t in_h = 0, in_w = 0, out_h = 0, out_w = 0;
  int64_t params = 0;
  int64_t macs = 0;
  int64_t rank = 0;      ///< TT-rank for "ttconv" entries
  bool spike_input = true;  ///< consumes binary spikes (accumulate-only HW)
  /// Average fraction of timesteps on which this layer executes (HTT strips
  /// run only on "full" steps; everything else is 1.0).
  double utilization = 1.0;
  /// For spike-input compute layers: index (in LIF traversal order) of the
  /// LIF whose output this layer consumes; -1 for analog inputs. Filled in
  /// by analyze_model so measured spike densities can be attached.
  int64_t source_lif = -1;
};

/// Spatial/channel shape threaded through describe() calls.
struct ShapeState {
  int64_t c = 0, h = 0, w = 0;
};

class Module;
using ModulePtr = std::unique_ptr<Module>;

/// Base class for all layers. See file comment for the sequence convention.
class Module {
 public:
  Module() = default;
  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;
  virtual ~Module() = default;

  /// Forward over the full timestep sequence; caches for backward.
  virtual Tensor forward(const Tensor& x) = 0;
  /// Backward: gradient w.r.t. output -> gradient w.r.t. input. Parameter
  /// gradients accumulate into Parameter::grad.
  virtual Tensor backward(const Tensor& grad_out) = 0;

  /// Appends pointers to this module's parameters (recursing into children).
  virtual void collect_parameters(std::vector<Parameter*>& out);
  std::vector<Parameter*> parameters();

  /// Named non-trainable state that checkpoints must carry (BatchNorm running
  /// statistics). Overrides append their own entries, then the default
  /// recurses into children.
  virtual void collect_buffers(std::vector<BufferRef>& out);
  std::vector<BufferRef> buffers();

  /// Training/eval mode (affects batch-norm statistics).
  virtual void set_training(bool training);
  bool is_training() const { return training_; }

  /// Appends layer descriptors, threading the activation shape through.
  virtual void describe(ShapeState& s, std::vector<LayerDesc>& out) const;

  /// Mutable access to child module slots, enabling tree rewrites such as the
  /// factorize pass that swaps Conv2d layers for TTConv2d (factorize.h).
  virtual std::vector<ModulePtr*> child_slots() { return {}; }

  /// Frees cached activations (called between optimizer steps).
  virtual void clear_cache() {}

  virtual std::string name() const = 0;

  /// Total number of trainable scalars in this module (and children).
  int64_t num_params();

 protected:
  bool training_ = true;
};

/// Walks the module tree depth-first, visiting every child slot. The visitor
/// may replace the slot's module; recursion continues into the (possibly new)
/// module's own children.
void visit_module_slots(Module& root,
                        const std::function<void(ModulePtr& slot)>& fn);

}  // namespace ttsnn
