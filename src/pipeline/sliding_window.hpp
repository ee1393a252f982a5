#pragma once

// Sliding-window detector over a scene image (paper Fig 6): the trained
// HDFace pipeline classifies overlapping windows; windows predicted as the
// positive class are tinted in the visualization overlay.

#include <memory>
#include <stdexcept>
#include <vector>

#include "image/image.hpp"
#include "image/pnm.hpp"
#include "pipeline/detection.hpp"
#include "pipeline/hdface_pipeline.hpp"

namespace hdface::util {
class ThreadPool;
}

namespace hdface::pipeline {

struct ParallelDetectConfig;

class SlidingWindowDetector {
 public:
  // The pipeline's window geometry defines the detector window size. The
  // detector shares ownership of the pipeline (detectors routinely outlive
  // the scope that trained the model).
  SlidingWindowDetector(std::shared_ptr<HdFacePipeline> pipeline,
                        std::size_t window, std::size_t stride,
                        int positive_class = 1);

  // Batched scan on the parallel engine (see parallel_detect.hpp): results
  // are bit-identical at every thread count. The engine config carries the
  // full scan feature set, including the early-reject cascade
  // (config.cascade + cascade_stats); exact mode is a null config.cascade.
  DetectionMap detect(const image::Image& scene,
                      const ParallelDetectConfig& config);

  // Overlay: windows predicted positive are tinted blue (Fig 6 rendering).
  image::RgbImage render_overlay(const image::Image& scene,
                                 const DetectionMap& map) const;

 private:
  std::shared_ptr<HdFacePipeline> pipeline_;
  std::size_t window_;
  std::size_t stride_;
  int positive_class_;
};

}  // namespace hdface::pipeline
