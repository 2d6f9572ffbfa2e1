#pragma once

/// \file synthetic_event.h
/// N-Caltech101 stand-in: event-camera clips generated by
/// moving a class-specific shape along a saccade-like trajectory. Every
/// timestep yields a DISTINCT 2-channel frame (ON / OFF polarities computed
/// from the intensity change between consecutive shape positions) — the
/// dynamic-dataset property behind the paper's HTT accuracy analysis.
///
/// Frames are synthesized on demand in get_batch (deterministically per
/// sample), because the frame content depends on the requested timestep count.

#include "snn/dataset.h"

namespace ttsnn {

class SyntheticEventDataset : public Dataset {
 public:
  struct Options {
    int64_t num_classes = 10;
    int64_t samples_per_class = 32;
    int64_t size = 16;
    double speed = 1.6;       ///< pixels per timestep along the saccade
    float noise_events = 0.02F;  ///< probability of spurious events
    uint64_t seed = 4321;
  };

  explicit SyntheticEventDataset(Options opts);

  int64_t size() const override {
    return opts_.num_classes * opts_.samples_per_class;
  }
  int64_t num_classes() const override { return opts_.num_classes; }
  int64_t channels() const override { return 2; }  // ON / OFF polarity
  int64_t height() const override { return opts_.size; }
  int64_t width() const override { return opts_.size; }
  bool is_temporal() const override { return true; }

  Batch get_batch(const std::vector<int64_t>& indices,
                  int64_t timesteps) const override;

  int64_t label(int64_t index) const { return index / opts_.samples_per_class; }

 private:
  /// Renders the class shape at a trajectory position into `plane` [H*W].
  void render_shape(int64_t cls, double cy, double cx, float* plane) const;

  Options opts_;
};

}  // namespace ttsnn
