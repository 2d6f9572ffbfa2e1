#pragma once

/// \file encoder.h
/// Input coding for SNNs. The paper uses direct coding [31]: the analog
/// image is presented unchanged at every timestep and the first Conv+BN+LIF
/// stack acts as a learned spike encoder.

#include "tensor/tensor.h"

namespace ttsnn {

/// Replicates a static batch [N, C, H, W] across T timesteps -> [T, N, C, H, W].
Tensor direct_code(const Tensor& images, int64_t timesteps);

}  // namespace ttsnn
