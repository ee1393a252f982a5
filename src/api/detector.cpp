#include "api/detector.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "core/kernels/kernels.hpp"
#include "core/op_counter.hpp"
#include "dataset/dataset.hpp"
#include "image/pnm.hpp"
#include "pipeline/cascade.hpp"
#include "pipeline/fault_injection.hpp"
#include "pipeline/hdface_pipeline.hpp"
#include "pipeline/multiscale.hpp"
#include "pipeline/parallel_detect.hpp"
#include "pipeline/sliding_window.hpp"

namespace hdface::api {

namespace {

// Everything that makes a scan unrunnable before it starts, shared by every
// detect entry point (the Request path returns the Error, the legacy wrappers
// throw it): options that fail validate(), an orig-HOG pipeline, which has
// no per-cell hypervector encode to scan with, and a NaN pixel, which has no
// item-memory level (the engine's index_of treats one as a contract
// violation).
std::optional<Error> scan_error(pipeline::HdFacePipeline& pipeline,
                                const DetectOptions& options,
                                const image::Image& scene) {
  if (auto err = validate(options)) return err;
  if (pipeline.hd_extractor() == nullptr) {
    return Error::invalid_options(
        "Detector: scene scans need an HD-HOG pipeline (orig-HOG features "
        "have no cell-plane encode)");
  }
  const auto pixels = scene.pixels();
  if (std::any_of(pixels.begin(), pixels.end(),
                  [](float p) { return std::isnan(p); })) {
    return Error::invalid_options("Detector: scene has a NaN pixel");
  }
  return std::nullopt;
}

void check_or_throw(pipeline::HdFacePipeline& pipeline,
                    const DetectOptions& options, const image::Image& scene) {
  if (auto err = scan_error(pipeline, options, scene)) {
    throw InvalidOptionsError(std::move(*err));
  }
}

// Builds the per-call staged scorer for calibrated cascade requests (exact
// mode and cascade-free calls return nullopt — the engine then runs the
// pre-cascade path untouched). The Cascade constructor re-validates the
// table against the trained classifier (dim/classes/positive_class), so a
// table calibrated for a different model throws std::invalid_argument —
// typed kInvalidOptions on the Request path.
std::optional<pipeline::Cascade> make_cascade(
    const pipeline::HdFacePipeline& pipeline, const DetectOptions& options) {
  if (!options.cascade ||
      options.cascade->mode != pipeline::CascadeMode::kCalibrated) {
    return std::nullopt;
  }
  return pipeline::Cascade(pipeline.classifier(), options.cascade->table);
}

}  // namespace

Detector::Detector(std::shared_ptr<pipeline::HdFacePipeline> pipeline,
                   std::size_t window)
    : pipeline_(std::move(pipeline)), window_(window) {
  if (!pipeline_) throw std::invalid_argument("Detector: null pipeline");
  if (window_ == 0) throw std::invalid_argument("Detector: window 0");
}

void Detector::fit(const dataset::Dataset& train) { pipeline_->fit(train); }

double Detector::evaluate(const dataset::Dataset& test) {
  return pipeline_->evaluate(test);
}

int Detector::predict(const image::Image& window_img) {
  return pipeline_->predict(window_img);
}

pipeline::ParallelDetectConfig Detector::engine_config(
    const DetectOptions& options, const pipeline::Cascade* cascade) const {
  pipeline::ParallelDetectConfig engine;
  engine.threads = options.threads;
  // The sinks point into caller-owned storage that outlives the call.
  if (options.telemetry) {
    engine.feature_counter = options.telemetry->feature_ops;
    engine.cache_stats = options.telemetry->encode_cache;
    engine.cascade_stats = options.telemetry->cascade;
    engine.cascade_per_scale = options.telemetry->cascade_per_scale;
  }
  // Points into the caller's options, which outlive the scan call.
  engine.fault_plan = options.fault_plan ? &*options.fault_plan : nullptr;
  engine.encode_mode = options.encode_mode;
  engine.cascade = cascade;
  return engine;
}

pipeline::DetectionMap Detector::detect_map(const image::Image& scene,
                                            const DetectOptions& options) {
  check_or_throw(*pipeline_, options, scene);
  const core::kernels::ScopedBackend backend(options.kernel_backend);
  if (options.fault_plan) {
    // Inject the plan's stored-memory faults for the duration of the scan;
    // restore() is explicit so verification errors surface to the caller.
    // (validate() already rejected cascade+fault_plan, so no cascade here.)
    pipeline::FaultSession session(*pipeline_, *options.fault_plan);
    auto map = pipeline::detect_windows_parallel(*pipeline_, scene, window_,
                                                 options.stride,
                                                 options.positive_class,
                                                 engine_config(options));
    session.restore();
    return map;
  }
  const std::optional<pipeline::Cascade> cascade =
      make_cascade(*pipeline_, options);
  return pipeline::detect_windows_parallel(
      *pipeline_, scene, window_, options.stride, options.positive_class,
      engine_config(options, cascade ? &*cascade : nullptr));
}

std::vector<pipeline::Detection> Detector::detect_validated(
    const image::Image& scene, const DetectOptions& options) {
  const core::kernels::ScopedBackend backend(options.kernel_backend);
  const bool single_scale =
      options.scales.size() == 1 && options.scales.front() == 1.0;
  if (single_scale) {
    const auto map = detect_map(scene, options);
    // NMS off: every positive window is its own box (the raw Fig 6 view);
    // iou_threshold > 1 means nothing ever suppresses.
    const double iou = options.nms ? options.nms_iou : 2.0;
    return pipeline::map_detections(map, options.positive_class,
                                    options.score_threshold, iou);
  }
  pipeline::MultiScaleConfig ms;
  ms.scales = options.scales;
  ms.stride = options.stride;
  ms.score_threshold = options.score_threshold;
  // The multiscale merge always suppresses cross-scale duplicates of one
  // face; options.nms_iou only tunes how aggressively.
  ms.iou_threshold = options.nms ? options.nms_iou : 0.3;
  pipeline::MultiScaleDetector det(pipeline_, window_, ms);
  if (options.fault_plan) {
    // One session spans every pyramid level: a persistent storage fault
    // corrupts all scales of a scan, not each independently.
    // (validate() already rejected cascade+fault_plan, so no cascade here.)
    pipeline::FaultSession session(*pipeline_, *options.fault_plan);
    auto boxes = det.detect(scene, engine_config(options));
    session.restore();
    return boxes;
  }
  const std::optional<pipeline::Cascade> cascade =
      make_cascade(*pipeline_, options);
  return det.detect(scene,
                    engine_config(options, cascade ? &*cascade : nullptr));
}

std::vector<pipeline::Detection> Detector::detect(const image::Image& scene,
                                                  const DetectOptions& options) {
  check_or_throw(*pipeline_, options, scene);
  return detect_validated(scene, options);
}

Outcome<Response> Detector::detect(const Request& request) {
  if (auto err = scan_error(*pipeline_, request.options, request.scene)) {
    return std::move(*err);
  }
  if (request.scene.width() < window_ || request.scene.height() < window_) {
    return Error::invalid_options("Request: scene smaller than the detector window");
  }
  Response response;
  response.id = request.id;
  response.tenant = request.tenant;
  try {
    response.detections = detect_validated(request.scene, request.options);
  } catch (const std::invalid_argument& e) {
    // Engine-level rejections (unavailable kernel backend, a cascade table
    // that does not fit the model, degenerate geometry) stay typed.
    return Error::invalid_options(e.what());
  } catch (const std::exception& e) {
    return Error::internal(e.what());
  }
  return response;
}

image::RgbImage Detector::render_overlay(const image::Image& scene,
                                         const pipeline::DetectionMap& map,
                                         int positive_class) const {
  pipeline::SlidingWindowDetector det(pipeline_, map.window, map.stride,
                                      positive_class);
  return det.render_overlay(scene, map);
}

image::RgbImage Detector::render(
    const image::Image& scene,
    const std::vector<pipeline::Detection>& detections) const {
  return pipeline::render_detections(scene, detections);
}

// --- DetectorBuilder --------------------------------------------------------

namespace {

pipeline::HdFaceConfig default_builder_config() {
  pipeline::HdFaceConfig c;
  c.hog.cell_size = 4;
  return c;
}

}  // namespace

DetectorBuilder::DetectorBuilder()
    : config_(std::make_unique<pipeline::HdFaceConfig>(default_builder_config())) {}

DetectorBuilder::~DetectorBuilder() = default;

DetectorBuilder::DetectorBuilder(const DetectorBuilder& other)
    : window_(other.window_),
      classes_(other.classes_),
      config_(std::make_unique<pipeline::HdFaceConfig>(*other.config_)) {}

DetectorBuilder& DetectorBuilder::operator=(const DetectorBuilder& other) {
  if (this != &other) {
    window_ = other.window_;
    classes_ = other.classes_;
    *config_ = *other.config_;
  }
  return *this;
}

DetectorBuilder::DetectorBuilder(DetectorBuilder&&) noexcept = default;
DetectorBuilder& DetectorBuilder::operator=(DetectorBuilder&&) noexcept = default;

DetectorBuilder& DetectorBuilder::window(std::size_t w) {
  window_ = w;
  return *this;
}
DetectorBuilder& DetectorBuilder::classes(std::size_t c) {
  classes_ = c;
  return *this;
}
DetectorBuilder& DetectorBuilder::dim(std::size_t d) {
  config_->dim = d;
  return *this;
}
DetectorBuilder& DetectorBuilder::mode(pipeline::HdFaceMode m) {
  config_->mode = m;
  return *this;
}
DetectorBuilder& DetectorBuilder::hd_hog_mode(hog::HdHogMode m) {
  config_->hd_hog_mode = m;
  return *this;
}
DetectorBuilder& DetectorBuilder::cell_size(std::size_t c) {
  config_->hog.cell_size = c;
  return *this;
}
DetectorBuilder& DetectorBuilder::bins(std::size_t b) {
  config_->hog.bins = b;
  return *this;
}
DetectorBuilder& DetectorBuilder::epochs(std::size_t e) {
  config_->epochs = e;
  return *this;
}
DetectorBuilder& DetectorBuilder::seed(std::uint64_t s) {
  config_->seed = s;
  return *this;
}
DetectorBuilder& DetectorBuilder::config(const pipeline::HdFaceConfig& c) {
  *config_ = c;
  return *this;
}

Detector DetectorBuilder::build() const {
  if (classes_ < 2) throw std::invalid_argument("DetectorBuilder: classes < 2");
  if (config_->hog.cell_size == 0 || window_ % config_->hog.cell_size != 0) {
    // The HOG layers silently drop partial cells; at the facade a window that
    // is not a whole number of cells is almost certainly a typo.
    throw std::invalid_argument("DetectorBuilder: window not tiled by cell_size");
  }
  auto pipeline = std::make_shared<pipeline::HdFacePipeline>(
      *config_, window_, window_, classes_);
  return Detector(std::move(pipeline), window_);
}

}  // namespace hdface::api
