#pragma once

// hdface::api — the unified public facade.
//
// Everything an application needs — training a model, classifying single
// windows, scanning scenes (single- or multi-scale, serial or parallel),
// and rendering overlays — behind two types:
//
//   api::Detector det = api::DetectorBuilder()
//                           .window(32)
//                           .classes(2)
//                           .dim(4096)
//                           .build();
//   det.fit(train);
//   auto boxes = det.detect(scene, {.threads = 8, .scales = {1.0, 0.5}});
//
// or, in the redesigned request/response form shared with the serving layer
// (serve/server.hpp):
//
//   api::Outcome<api::Response> out = det.detect(api::Request{
//       .id = 1, .scene = scene, .options = {.threads = 8}});
//   if (out.ok()) use(out.value().detections);
//
// The facade owns the pipeline via shared_ptr, so detectors are cheap to
// copy/move and every lower-level component (SlidingWindowDetector,
// MultiScaleDetector, FaceTracker feeds) can share the same trained model.
// The same builder serves face and emotion workloads — a workload is just a
// (window, classes, dataset) triple.
//
// This header is deliberately light: it includes only the api value types
// (api/types.hpp) and forward-declares the pipeline machinery, so facade
// users compile standalone and a pipeline-internal edit no longer rebuilds
// every downstream TU (tests/api/header_standalone.cpp pins this). Lower-
// level headers (pipeline/*.hpp) remain public for research code; include
// them directly where their types are used.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "api/types.hpp"

namespace hdface::dataset {
struct Dataset;
}
namespace hdface::image {
struct RgbImage;
}
namespace hdface::hog {
enum class HdHogMode;
}
namespace hdface::pipeline {
class Cascade;
class HdFacePipeline;
struct HdFaceConfig;
enum class HdFaceMode;
struct ParallelDetectConfig;
}

namespace hdface::api {

class Detector {
 public:
  // Most callers build via DetectorBuilder; wrapping an existing pipeline is
  // for code migrating from the pipeline layer.
  Detector(std::shared_ptr<pipeline::HdFacePipeline> pipeline,
           std::size_t window);

  // --- training / classification ------------------------------------------

  // Train on window-sized images (faces, emotions, any labeled windows).
  void fit(const dataset::Dataset& train);
  double evaluate(const dataset::Dataset& test);
  int predict(const image::Image& window_img);

  // --- scene scanning -------------------------------------------------------

  // The redesigned entry point: one request schema for one-shot, batched and
  // served execution. Never throws on a malformed request — returns a typed
  // kInvalidOptions Error (or kInternal if execution raises), so serving
  // workers survive any input, a scene with a NaN pixel included. Detections are bit-identical to
  // detect(request.scene, request.options).
  Outcome<Response> detect(const Request& request);

  // Single-scale batched scan: the full per-window map (paper Fig 6 shape).
  // Uses options.threads/stride; scales/nms do not apply to the map view.
  // Throws InvalidOptionsError (a std::invalid_argument) on bad options, an
  // orig-HOG pipeline (scans need the HD-HOG cell encode) or a NaN pixel.
  pipeline::DetectionMap detect_map(const image::Image& scene,
                                    const DetectOptions& options = {});

  // Boxes after scale merge (and NMS when enabled): single-scale when
  // options.scales == {1.0}, image-pyramid otherwise. Sorted by descending
  // score. Throws InvalidOptionsError (a std::invalid_argument) on bad
  // options, an orig-HOG pipeline or a NaN pixel.
  std::vector<pipeline::Detection> detect(const image::Image& scene,
                                          const DetectOptions& options = {});

  // --- rendering ------------------------------------------------------------

  image::RgbImage render_overlay(const image::Image& scene,
                                 const pipeline::DetectionMap& map,
                                 int positive_class = 1) const;
  image::RgbImage render(const image::Image& scene,
                         const std::vector<pipeline::Detection>& detections) const;

  // --- escape hatches -------------------------------------------------------

  std::size_t window() const { return window_; }
  const std::shared_ptr<pipeline::HdFacePipeline>& pipeline() const {
    return pipeline_;
  }

 private:
  // `cascade` is the per-call staged scorer built from options.cascade (null
  // for exact mode — the engine then runs the pre-cascade path untouched);
  // it must outlive the scan the returned config drives.
  pipeline::ParallelDetectConfig engine_config(
      const DetectOptions& options,
      const pipeline::Cascade* cascade = nullptr) const;
  std::vector<pipeline::Detection> detect_validated(const image::Image& scene,
                                                    const DetectOptions& options);

  std::shared_ptr<pipeline::HdFacePipeline> pipeline_;
  std::size_t window_;
};

// Fluent construction of a Detector. Every knob has the repository-standard
// default, so `DetectorBuilder().window(32).build()` is a working binary
// face/no-face detector awaiting fit(). The pipeline config lives behind a
// unique_ptr (deep-copied with the builder) so this header does not pull
// pipeline/hdface_pipeline.hpp.
class DetectorBuilder {
 public:
  DetectorBuilder();
  ~DetectorBuilder();
  DetectorBuilder(const DetectorBuilder& other);
  DetectorBuilder& operator=(const DetectorBuilder& other);
  DetectorBuilder(DetectorBuilder&&) noexcept;
  DetectorBuilder& operator=(DetectorBuilder&&) noexcept;

  DetectorBuilder& window(std::size_t w);
  DetectorBuilder& classes(std::size_t c);
  DetectorBuilder& dim(std::size_t d);
  DetectorBuilder& mode(pipeline::HdFaceMode m);
  DetectorBuilder& hd_hog_mode(hog::HdHogMode m);
  DetectorBuilder& cell_size(std::size_t c);
  DetectorBuilder& bins(std::size_t b);
  DetectorBuilder& epochs(std::size_t e);
  DetectorBuilder& seed(std::uint64_t s);
  // Full pipeline-config override for knobs without a dedicated setter.
  DetectorBuilder& config(const pipeline::HdFaceConfig& c);

  // Throws std::invalid_argument on unusable geometry (window 0, classes < 2,
  // window not tiled by cells — the same validation the pipeline applies).
  Detector build() const;

 private:
  std::size_t window_ = 32;
  std::size_t classes_ = 2;
  std::unique_ptr<pipeline::HdFaceConfig> config_;
};

}  // namespace hdface::api
