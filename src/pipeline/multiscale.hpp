#pragma once

// Multi-scale face detection: an image pyramid feeds the single-scale
// batched scan, detections are mapped back to scene coordinates
// and merged with non-maximum suppression. This is the standard deployment
// wrapper around the paper's Fig 6 single-scale scan (faces in real scenes
// are not window-sized).

#include <memory>
#include <vector>

#include "image/image.hpp"
#include "image/pnm.hpp"
#include "pipeline/detection.hpp"
#include "pipeline/parallel_detect.hpp"

namespace hdface::pipeline {

// Intersection-over-union of two square boxes.
double box_iou(const Detection& a, const Detection& b);

// Deterministic detection ordering: score descending, ties broken by
// position (y, then x) and size ascending. std::sort leaves equal elements
// in unspecified order, so sorting on score alone would let equal-score ties
// — common on synthetic scenes — pick NMS winners by accident of the
// sort implementation. Every detection sort in this module uses this.
bool detection_before(const Detection& a, const Detection& b);

// Greedy non-maximum suppression: keeps the highest-scoring box of every
// group overlapping above `iou_threshold`; equal scores resolve by
// detection_before, so the kept set is a pure function of the input set.
std::vector<Detection> non_max_suppression(std::vector<Detection> detections,
                                           double iou_threshold);

// Collapse a single-scale DetectionMap to boxes: every positive-class window
// scoring at least `score_threshold` becomes a window-sized box, then greedy
// NMS keeps the best of each overlapping group (so a face detected by several
// neighboring strides shows as one box in overlays). Sorted by descending
// score.
std::vector<Detection> map_detections(const DetectionMap& map,
                                      int positive_class = 1,
                                      double score_threshold = 0.0,
                                      double iou_threshold = 0.3);

// Draws detection rectangles onto an RGB copy of the scene.
image::RgbImage render_detections(const image::Image& scene,
                                  const std::vector<Detection>& detections);

struct MultiScaleConfig {
  // Pyramid scales applied to the *scene* (1.0 = native; 0.5 finds faces
  // twice the window size).
  std::vector<double> scales = {1.0, 0.75, 0.5};
  std::size_t stride = 8;           // at window resolution
  double score_threshold = 0.0;     // min positive-class cosine
  double iou_threshold = 0.3;
};

// The resized pyramid levels for one scene, computed once per detect call and
// shared read-only by every scan chunk (levels that cannot fit a window are
// dropped). Exposed so callers scanning one scene repeatedly — or with
// several detectors — can reuse the resize work.
struct ScalePyramid {
  std::vector<double> scales;        // kept scales, same order as config
  std::vector<image::Image> levels;  // resized scene per kept scale
};

ScalePyramid build_pyramid(const image::Image& scene, std::size_t window,
                           const std::vector<double>& scales);

class MultiScaleDetector {
 public:
  MultiScaleDetector(std::shared_ptr<HdFacePipeline> pipeline,
                     std::size_t window, const MultiScaleConfig& config);

  // All post-NMS detections, sorted by descending score. Every pyramid level
  // runs through the parallel engine (bit-identical results at every thread
  // count — see parallel_detect.hpp).
  std::vector<Detection> detect(const image::Image& scene,
                                const ParallelDetectConfig& engine);

  // Draws detection rectangles onto an RGB copy of the scene.
  image::RgbImage render(const image::Image& scene,
                         const std::vector<Detection>& detections) const;

 private:
  std::vector<Detection> merge_scales(const ScalePyramid& pyramid,
                                      const std::vector<DetectionMap>& maps) const;

  std::shared_ptr<HdFacePipeline> pipeline_;
  std::size_t window_;
  MultiScaleConfig config_;
};

}  // namespace hdface::pipeline
