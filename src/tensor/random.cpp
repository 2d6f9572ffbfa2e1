#include "tensor/random.h"

#include <cmath>

namespace ttsnn {

Tensor kaiming_normal(Shape shape, int64_t fan_in, Rng& rng) {
  TTSNN_CHECK(fan_in > 0, "kaiming_normal fan_in must be positive");
  Tensor t = Tensor::randn(std::move(shape), rng);
  t.mul_scalar_(std::sqrt(2.0F / static_cast<float>(fan_in)));
  return t;
}

}  // namespace ttsnn
