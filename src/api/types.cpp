#include "api/types.hpp"

#include <cmath>
#include <string>

namespace hdface::api {

std::optional<Error> validate(const DetectOptions& options) {
  if (options.stride == 0) {
    return Error::invalid_options("DetectOptions: stride must be > 0");
  }
  if (options.scales.empty()) {
    return Error::invalid_options("DetectOptions: scales must not be empty");
  }
  for (const double s : options.scales) {
    if (!std::isfinite(s) || s <= 0.0 || s > 1.0) {
      return Error::invalid_options("DetectOptions: scale outside (0, 1]: " +
                                    std::to_string(s));
    }
  }
  if (!std::isfinite(options.nms_iou) || options.nms_iou < 0.0 ||
      options.nms_iou > 1.0) {
    return Error::invalid_options("DetectOptions: nms_iou outside [0, 1]: " +
                                  std::to_string(options.nms_iou));
  }
  if (!std::isfinite(options.score_threshold)) {
    return Error::invalid_options("DetectOptions: score_threshold not finite");
  }
  if (options.cascade &&
      options.cascade->mode == pipeline::CascadeMode::kCalibrated) {
    if (options.fault_plan) {
      return Error::invalid_options(
          "DetectOptions: calibrated cascade is incompatible with fault_plan");
    }
    const pipeline::CascadeTable& table = options.cascade->table;
    if (table.positive_class != options.positive_class) {
      return Error::invalid_options(
          "DetectOptions: cascade table positive_class " +
          std::to_string(table.positive_class) +
          " does not match options.positive_class " +
          std::to_string(options.positive_class));
    }
    if (table.dim == 0 || table.classes < 2) {
      return Error::invalid_options(
          "DetectOptions: cascade table has degenerate dim/classes");
    }
    if (table.stages.empty()) {
      return Error::invalid_options(
          "DetectOptions: cascade table has no stages");
    }
    std::size_t prev_words = 0;
    for (const pipeline::CascadeStage& stage : table.stages) {
      if (stage.words <= prev_words) {
        return Error::invalid_options(
            "DetectOptions: cascade stage words must be strictly ascending");
      }
      if (!std::isfinite(stage.reject_below)) {
        return Error::invalid_options(
            "DetectOptions: cascade stage threshold not finite");
      }
      prev_words = stage.words;
    }
    if (table.prescreen_words > 0) {
      if (!std::isfinite(table.prescreen_reject_below)) {
        return Error::invalid_options(
            "DetectOptions: cascade prescreen threshold not finite");
      }
      if (!std::isfinite(table.prescreen_vmax) || table.prescreen_vmax <= 0.0) {
        return Error::invalid_options(
            "DetectOptions: cascade prescreen normalization scale must be "
            "positive and finite");
      }
      if (!std::isfinite(table.prescreen_spread_below) ||
          table.prescreen_spread_below < 0.0) {
        return Error::invalid_options(
            "DetectOptions: cascade prescreen spread floor must be finite "
            "and >= 0");
      }
    }
  }
  return std::nullopt;
}

}  // namespace hdface::api
