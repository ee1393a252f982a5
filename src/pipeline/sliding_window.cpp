#include "pipeline/sliding_window.hpp"

#include <algorithm>
#include <stdexcept>

#include "image/transform.hpp"
#include "pipeline/parallel_detect.hpp"

namespace hdface::pipeline {

SlidingWindowDetector::SlidingWindowDetector(
    std::shared_ptr<HdFacePipeline> pipeline, std::size_t window,
    std::size_t stride, int positive_class)
    : pipeline_(std::move(pipeline)),
      window_(window),
      stride_(stride),
      positive_class_(positive_class) {
  if (!pipeline_) {
    throw std::invalid_argument("SlidingWindowDetector: null pipeline");
  }
  if (window == 0 || stride == 0) {
    throw std::invalid_argument("SlidingWindowDetector: zero geometry");
  }
}

DetectionMap SlidingWindowDetector::detect(const image::Image& scene,
                                           const ParallelDetectConfig& config) {
  return detect_windows_parallel(*pipeline_, scene, window_, stride_,
                                 positive_class_, config);
}

image::RgbImage SlidingWindowDetector::render_overlay(
    const image::Image& scene, const DetectionMap& map) const {
  image::RgbImage rgb = image::to_rgb(scene);
  // Coverage mask first, then one tint pass: overlapping positive windows
  // must not stack the tint (repeated 0.6 darkening used to black out dense
  // detection clusters instead of highlighting them).
  std::vector<std::uint8_t> covered(rgb.width * rgb.height, 0);
  for (std::size_t sy = 0; sy < map.steps_y; ++sy) {
    for (std::size_t sx = 0; sx < map.steps_x; ++sx) {
      if (map.prediction_at(sx, sy) != positive_class_) continue;
      for (std::size_t dy = 0; dy < map.window; ++dy) {
        const std::size_t row = (sy * map.stride + dy) * rgb.width;
        for (std::size_t dx = 0; dx < map.window; ++dx) {
          covered[row + sx * map.stride + dx] = 1;
        }
      }
    }
  }
  // Blue tint over the detected windows (paper Fig 6 coloring), each covered
  // pixel tinted exactly once.
  for (std::size_t y = 0; y < rgb.height; ++y) {
    for (std::size_t x = 0; x < rgb.width; ++x) {
      if (!covered[y * rgb.width + x]) continue;
      auto& px = rgb.at(x, y);
      px[0] = static_cast<std::uint8_t>(px[0] * 0.6);
      px[1] = static_cast<std::uint8_t>(px[1] * 0.6);
      px[2] = static_cast<std::uint8_t>(std::min(255.0, px[2] * 0.6 + 100.0));
    }
  }
  return rgb;
}

}  // namespace hdface::pipeline
