#pragma once

/// \file synthetic_gesture.h
/// DVS128-Gesture stand-in: event clips whose CLASS IS THE
/// MOTION. A fixed disk moves with a class-specific velocity direction (or
/// rotates around the center for the last two classes); single frames are
/// nearly indistinguishable across classes, so classification requires
/// temporal integration — the regime targeted by TET and NDA in Table III.

#include "snn/dataset.h"

namespace ttsnn {

class SyntheticGestureDataset : public Dataset {
 public:
  struct Options {
    int64_t num_classes = 8;
    int64_t samples_per_class = 32;
    int64_t size = 16;
    double speed = 1.8;
    float noise_events = 0.02F;
    uint64_t seed = 9876;
  };

  explicit SyntheticGestureDataset(Options opts);

  int64_t size() const override {
    return opts_.num_classes * opts_.samples_per_class;
  }
  int64_t num_classes() const override { return opts_.num_classes; }
  int64_t channels() const override { return 2; }
  int64_t height() const override { return opts_.size; }
  int64_t width() const override { return opts_.size; }
  bool is_temporal() const override { return true; }

  Batch get_batch(const std::vector<int64_t>& indices,
                  int64_t timesteps) const override;

  int64_t label(int64_t index) const { return index / opts_.samples_per_class; }

 private:
  Options opts_;
};

}  // namespace ttsnn
