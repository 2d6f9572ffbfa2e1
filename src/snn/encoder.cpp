#include "snn/encoder.h"

#include <algorithm>

namespace ttsnn {

Tensor direct_code(const Tensor& images, int64_t timesteps) {
  TTSNN_CHECK(images.dim() == 4, "direct_code expects [N, C, H, W]");
  TTSNN_CHECK(timesteps >= 1, "direct_code timesteps must be >= 1");
  Shape out_shape = images.shape();
  out_shape.insert(out_shape.begin(), timesteps);
  Tensor out(out_shape);
  const int64_t n = images.numel();
  for (int64_t t = 0; t < timesteps; ++t) {
    std::copy(images.data(), images.data() + n, out.data() + t * n);
  }
  return out;
}

}  // namespace ttsnn
