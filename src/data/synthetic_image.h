#pragma once

/// \file synthetic_image.h
/// CIFAR10/100 stand-in: class-conditional static images.
/// Each class is a distinct combination of an oriented grating, a
/// perpendicular secondary grating, and a Gaussian blob at a class-specific
/// position; samples add spatial jitter and pixel noise. Class information is
/// carried by BOTH horizontal and vertical structure, which is precisely what
/// separates PTT's cross-shaped receptive field from STT's asymmetric strips.
///
/// get_batch() replicates each image across timesteps (direct coding [31]).

#include "snn/dataset.h"

namespace ttsnn {

class SyntheticImageDataset : public Dataset {
 public:
  struct Options {
    int64_t num_classes = 10;
    int64_t samples_per_class = 32;
    int64_t channels = 3;
    int64_t size = 16;  ///< square images
    float noise = 0.15F;
    int64_t max_jitter = 2;
    uint64_t seed = 1234;
  };

  explicit SyntheticImageDataset(Options opts);

  int64_t size() const override { return static_cast<int64_t>(labels_.size()); }
  int64_t num_classes() const override { return opts_.num_classes; }
  int64_t channels() const override { return opts_.channels; }
  int64_t height() const override { return opts_.size; }
  int64_t width() const override { return opts_.size; }
  bool is_temporal() const override { return false; }

  Batch get_batch(const std::vector<int64_t>& indices,
                  int64_t timesteps) const override;

  /// Raw image of one sample [C, H, W] (for inspection/tests).
  Tensor image(int64_t index) const;
  int64_t label(int64_t index) const { return labels_.at(static_cast<size_t>(index)); }

 private:
  Options opts_;
  Tensor images_;  ///< [N, C, H, W], generated at construction
  std::vector<int64_t> labels_;
};

}  // namespace ttsnn
