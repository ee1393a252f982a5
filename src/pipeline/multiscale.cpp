#include "pipeline/multiscale.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "image/transform.hpp"

namespace hdface::pipeline {

double box_iou(const Detection& a, const Detection& b) {
  const double ax1 = static_cast<double>(a.x) + a.size;
  const double ay1 = static_cast<double>(a.y) + a.size;
  const double bx1 = static_cast<double>(b.x) + b.size;
  const double by1 = static_cast<double>(b.y) + b.size;
  const double ix = std::max(0.0, std::min(ax1, bx1) -
                                      std::max<double>(a.x, b.x));
  const double iy = std::max(0.0, std::min(ay1, by1) -
                                      std::max<double>(a.y, b.y));
  const double inter = ix * iy;
  const double uni = static_cast<double>(a.size) * a.size +
                     static_cast<double>(b.size) * b.size - inter;
  return uni > 0.0 ? inter / uni : 0.0;
}

bool detection_before(const Detection& a, const Detection& b) {
  if (a.score != b.score) return a.score > b.score;
  if (a.y != b.y) return a.y < b.y;
  if (a.x != b.x) return a.x < b.x;
  return a.size < b.size;
}

std::vector<Detection> non_max_suppression(std::vector<Detection> detections,
                                           double iou_threshold) {
  std::sort(detections.begin(), detections.end(), detection_before);
  std::vector<Detection> kept;
  for (const auto& d : detections) {
    bool suppressed = false;
    for (const auto& k : kept) {
      if (box_iou(d, k) > iou_threshold) {
        suppressed = true;
        break;
      }
    }
    if (!suppressed) kept.push_back(d);
  }
  return kept;
}

std::vector<Detection> map_detections(const DetectionMap& map,
                                      int positive_class,
                                      double score_threshold,
                                      double iou_threshold) {
  std::vector<Detection> boxes;
  for (std::size_t sy = 0; sy < map.steps_y; ++sy) {
    for (std::size_t sx = 0; sx < map.steps_x; ++sx) {
      const std::size_t idx = sy * map.steps_x + sx;
      if (map.predictions[idx] != positive_class) continue;
      if (map.scores[idx] < score_threshold) continue;
      boxes.push_back(Detection{sx * map.stride, sy * map.stride, map.window,
                                map.scores[idx]});
    }
  }
  auto kept = non_max_suppression(std::move(boxes), iou_threshold);
  std::sort(kept.begin(), kept.end(), detection_before);
  return kept;
}

image::RgbImage render_detections(const image::Image& scene,
                                  const std::vector<Detection>& detections) {
  image::RgbImage rgb = image::to_rgb(scene);
  auto mark = [&](std::size_t x, std::size_t y) {
    if (x >= rgb.width || y >= rgb.height) return;
    auto& px = rgb.at(x, y);
    px = {60, 120, 255};
  };
  for (const auto& d : detections) {
    for (std::size_t i = 0; i <= d.size; ++i) {
      mark(d.x + i, d.y);
      mark(d.x + i, d.y + d.size);
      mark(d.x, d.y + i);
      mark(d.x + d.size, d.y + i);
    }
  }
  return rgb;
}

ScalePyramid build_pyramid(const image::Image& scene, std::size_t window,
                           const std::vector<double>& scales) {
  ScalePyramid pyramid;
  for (const double scale : scales) {
    const auto sw = static_cast<std::size_t>(
        std::lround(scale * static_cast<double>(scene.width())));
    const auto sh = static_cast<std::size_t>(
        std::lround(scale * static_cast<double>(scene.height())));
    if (sw < window || sh < window) continue;
    pyramid.scales.push_back(scale);
    pyramid.levels.push_back(scale == 1.0 ? scene
                                          : image::resize(scene, sw, sh));
  }
  return pyramid;
}

MultiScaleDetector::MultiScaleDetector(std::shared_ptr<HdFacePipeline> pipeline,
                                       std::size_t window,
                                       const MultiScaleConfig& config)
    : pipeline_(std::move(pipeline)), window_(window), config_(config) {
  if (!pipeline_) {
    throw std::invalid_argument("MultiScaleDetector: null pipeline");
  }
  if (window == 0) throw std::invalid_argument("MultiScaleDetector: window 0");
  if (config.scales.empty()) {
    throw std::invalid_argument("MultiScaleDetector: no scales");
  }
  for (double s : config.scales) {
    if (s <= 0.0 || s > 1.0) {
      throw std::invalid_argument("MultiScaleDetector: scales must be in (0, 1]");
    }
  }
}

std::vector<Detection> MultiScaleDetector::merge_scales(
    const ScalePyramid& pyramid, const std::vector<DetectionMap>& maps) const {
  std::vector<Detection> all;
  for (std::size_t level = 0; level < maps.size(); ++level) {
    const double scale = pyramid.scales[level];
    const DetectionMap& map = maps[level];
    for (std::size_t sy = 0; sy < map.steps_y; ++sy) {
      for (std::size_t sx = 0; sx < map.steps_x; ++sx) {
        const std::size_t idx = sy * map.steps_x + sx;
        if (map.predictions[idx] != 1) continue;
        if (map.scores[idx] < config_.score_threshold) continue;
        Detection d;
        // Map back to scene coordinates.
        d.x = static_cast<std::size_t>(
            std::lround(static_cast<double>(sx * config_.stride) / scale));
        d.y = static_cast<std::size_t>(
            std::lround(static_cast<double>(sy * config_.stride) / scale));
        d.size = static_cast<std::size_t>(
            std::lround(static_cast<double>(window_) / scale));
        d.score = map.scores[idx];
        all.push_back(d);
      }
    }
  }
  auto kept = non_max_suppression(std::move(all), config_.iou_threshold);
  std::sort(kept.begin(), kept.end(), detection_before);
  return kept;
}

std::vector<Detection> MultiScaleDetector::detect(
    const image::Image& scene, const ParallelDetectConfig& engine) {
  // The pyramid is the per-scale resized-image cache: each level is resized
  // once here and then shared read-only by every chunk the engine dispatches.
  const ScalePyramid pyramid = build_pyramid(scene, window_, config_.scales);
  std::vector<DetectionMap> maps;
  maps.reserve(pyramid.levels.size());
  // Levels run sequentially, windows within a level in parallel: window work
  // dominates (levels are few, windows are thousands), and this keeps every
  // level's result bit-identical to its own single-level scan. Each level
  // scans under its own scale_index so the cell-plane encode draws an
  // independent deterministic stream per pyramid level (same-sized levels
  // would otherwise share cell seeds).
  for (std::size_t level = 0; level < pyramid.levels.size(); ++level) {
    ParallelDetectConfig level_engine = engine;
    level_engine.scale_index = level;
    // Collect each level's cascade stage counts into a local so callers see
    // both the per-scale breakdown and the merged scan total.
    CascadeStats level_stats;
    if (engine.cascade != nullptr) level_engine.cascade_stats = &level_stats;
    maps.push_back(detect_windows_parallel(*pipeline_, pyramid.levels[level],
                                           window_, config_.stride, 1,
                                           level_engine));
    if (engine.cascade != nullptr) {
      if (engine.cascade_per_scale) engine.cascade_per_scale->push_back(level_stats);
      if (engine.cascade_stats) engine.cascade_stats->merge(level_stats);
    }
  }
  return merge_scales(pyramid, maps);
}

image::RgbImage MultiScaleDetector::render(
    const image::Image& scene, const std::vector<Detection>& detections) const {
  return render_detections(scene, detections);
}

}  // namespace hdface::pipeline
