#pragma once

/// \file random.h
/// Weight initializer. The convention matches the PyTorch default the
/// paper's released training code relies on.

#include "tensor/tensor.h"

namespace ttsnn {

/// Kaiming-normal initialization: N(0, sqrt(2 / fan_in)).
Tensor kaiming_normal(Shape shape, int64_t fan_in, Rng& rng);

}  // namespace ttsnn
