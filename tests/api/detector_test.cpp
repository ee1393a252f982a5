#include "api/detector.hpp"

#include <limits>
#include <stdexcept>

#include <gtest/gtest.h>

#include "core/kernels/kernels.hpp"
#include "dataset/background_generator.hpp"
#include "dataset/emotion_generator.hpp"
#include "dataset/face_generator.hpp"
#include "hog/hd_hog.hpp"
#include "image/pnm.hpp"
#include "image/transform.hpp"
#include "pipeline/hdface_pipeline.hpp"
#include "pipeline/multiscale.hpp"

namespace hdface::api {
namespace {

Detector small_face_detector() {
  return DetectorBuilder()
      .window(16)
      .dim(2048)
      .hd_hog_mode(hog::HdHogMode::kDecodeShortcut)
      .epochs(5)
      .build();
}

TEST(DetectorBuilder, RejectsUnusableGeometry) {
  EXPECT_THROW(DetectorBuilder().window(0).build(), std::invalid_argument);
  EXPECT_THROW(DetectorBuilder().classes(1).build(), std::invalid_argument);
  // 18 is not tiled by the default cell size of 4.
  EXPECT_THROW(DetectorBuilder().window(18).build(), std::invalid_argument);
}

TEST(DetectorBuilder, DefaultsProduceWorkingDetector) {
  Detector det = DetectorBuilder().build();
  EXPECT_EQ(det.window(), 32u);
  ASSERT_NE(det.pipeline(), nullptr);
  EXPECT_EQ(det.pipeline()->classifier().config().classes, 2u);
}

TEST(Detector, FitEvaluatePredictFace) {
  dataset::FaceDatasetConfig data_cfg;
  data_cfg.image_size = 16;
  data_cfg.num_samples = 60;
  const auto train = dataset::make_face_dataset(data_cfg);
  data_cfg.num_samples = 24;
  data_cfg.seed = 999;
  const auto test = dataset::make_face_dataset(data_cfg);

  Detector det = small_face_detector();
  det.fit(train);
  const double acc = det.evaluate(test);
  EXPECT_GT(acc, 0.6);  // synthetic faces vs clutter separates easily
  const int pred = det.predict(test.images.front());
  EXPECT_TRUE(pred == 0 || pred == 1);
}

TEST(Detector, DetectMapAndBoxesOnPlantedFace) {
  dataset::FaceDatasetConfig data_cfg;
  data_cfg.image_size = 16;
  data_cfg.num_samples = 60;
  Detector det = small_face_detector();
  det.fit(dataset::make_face_dataset(data_cfg));

  image::Image scene(48, 48, 0.5f);
  core::Rng rng(33);
  dataset::render_background(scene, dataset::BackgroundKind::kValueNoise, rng);
  image::paste(scene, dataset::render_face_window(16, 1234), 16, 16);

  DetectOptions opts;
  opts.threads = 1;
  opts.stride = 8;
  const auto map = det.detect_map(scene, opts);
  EXPECT_EQ(map.steps_x, 5u);
  EXPECT_EQ(map.steps_y, 5u);

  // NMS off (default): one box per positive window.
  const auto raw = det.detect(scene, opts);
  std::size_t positives = 0;
  for (const auto p : map.predictions) positives += (p == 1);
  EXPECT_EQ(raw.size(), positives);

  // NMS on: never more boxes than raw positives.
  opts.nms = true;
  const auto merged = det.detect(scene, opts);
  EXPECT_LE(merged.size(), raw.size());
  // Boxes sorted by descending score.
  for (std::size_t i = 1; i < merged.size(); ++i) {
    EXPECT_GE(merged[i - 1].score, merged[i].score);
  }

  const auto overlay = det.render_overlay(scene, map);
  EXPECT_EQ(overlay.width, scene.width());
  const auto boxes_img = det.render(scene, merged);
  EXPECT_EQ(boxes_img.height, scene.height());
}

TEST(Detector, NmsOffByDefaultMatchesRawMapDetections) {
  // The default DetectOptions must reproduce the seed's raw Fig 6 view:
  // detect() without nms is exactly map_detections over the same map with a
  // never-suppressing IoU threshold — same boxes, same scores, same order.
  dataset::FaceDatasetConfig data_cfg;
  data_cfg.image_size = 16;
  data_cfg.num_samples = 60;
  Detector det = small_face_detector();
  det.fit(dataset::make_face_dataset(data_cfg));

  image::Image scene(48, 48, 0.5f);
  core::Rng rng(44);
  dataset::render_background(scene, dataset::BackgroundKind::kMixed, rng);
  image::paste(scene, dataset::render_face_window(16, 555), 8, 24);

  DetectOptions opts;
  opts.threads = 1;
  EXPECT_FALSE(opts.nms);
  const auto map = det.detect_map(scene, opts);
  const auto expected = pipeline::map_detections(
      map, opts.positive_class, opts.score_threshold, /*iou_threshold=*/2.0);
  const auto raw = det.detect(scene, opts);
  ASSERT_EQ(raw.size(), expected.size());
  for (std::size_t i = 0; i < raw.size(); ++i) {
    EXPECT_EQ(raw[i].x, expected[i].x);
    EXPECT_EQ(raw[i].y, expected[i].y);
    EXPECT_EQ(raw[i].size, expected[i].size);
    EXPECT_EQ(raw[i].score, expected[i].score);
  }
}

TEST(Detector, DetectIsThreadCountInvariant) {
  dataset::FaceDatasetConfig data_cfg;
  data_cfg.image_size = 16;
  data_cfg.num_samples = 60;
  Detector det = small_face_detector();
  det.fit(dataset::make_face_dataset(data_cfg));

  image::Image scene(48, 32, 0.5f);
  core::Rng rng(7);
  dataset::render_background(scene, dataset::BackgroundKind::kMixed, rng);

  DetectOptions one;
  one.threads = 1;
  DetectOptions four;
  four.threads = 4;
  const auto a = det.detect_map(scene, one);
  const auto b = det.detect_map(scene, four);
  ASSERT_EQ(a.scores.size(), b.scores.size());
  for (std::size_t i = 0; i < a.scores.size(); ++i) {
    EXPECT_EQ(a.scores[i], b.scores[i]) << "window " << i;
    EXPECT_EQ(a.predictions[i], b.predictions[i]) << "window " << i;
  }
}

// Golden determinism across kernel backends: a full detect map forced to the
// scalar reference must be bit-identical to the automatic (best SIMD)
// backend, in both plane modes. This is the end-to-end counterpart of the
// per-kernel property suite in tests/core/kernels_test.cpp and what licenses
// treating the backend as a pure performance knob.
TEST(Detector, DetectMapBitIdenticalAcrossKernelBackends) {
  dataset::FaceDatasetConfig data_cfg;
  data_cfg.image_size = 16;
  data_cfg.num_samples = 60;
  Detector det = small_face_detector();
  det.fit(dataset::make_face_dataset(data_cfg));

  image::Image scene(48, 32, 0.5f);
  core::Rng rng(19);
  dataset::render_background(scene, dataset::BackgroundKind::kMixed, rng);
  image::paste(scene, dataset::render_face_window(16, 555), 24, 8);

  DetectOptions scalar;
  scalar.threads = 1;
  scalar.kernel_backend = core::kernels::Backend::kScalar;
  DetectOptions fastest = scalar;
  fastest.kernel_backend.reset();  // automatic choice (best supported)
  const auto a = det.detect_map(scene, scalar);
  const auto b = det.detect_map(scene, fastest);
  ASSERT_EQ(a.scores.size(), b.scores.size());
  for (std::size_t i = 0; i < a.scores.size(); ++i) {
    EXPECT_EQ(a.scores[i], b.scores[i]) << "window " << i;
    EXPECT_EQ(a.predictions[i], b.predictions[i]) << "window " << i;
  }
  // The scan-scoped force is restored once detect_map returns.
  EXPECT_FALSE(core::kernels::forced_backend().has_value());
}

TEST(Detector, RejectsUnavailableKernelBackend) {
  Detector det = small_face_detector();
  image::Image scene(32, 32, 0.5f);
  DetectOptions opts;
#if defined(__aarch64__)
  opts.kernel_backend = core::kernels::Backend::kAvx2;
#else
  opts.kernel_backend = core::kernels::Backend::kNeon;
#endif
  EXPECT_THROW((void)det.detect_map(scene, opts), std::invalid_argument);
  EXPECT_FALSE(core::kernels::forced_backend().has_value());
}

TEST(Detector, MultiScaleOptionsUsePyramid) {
  dataset::FaceDatasetConfig data_cfg;
  data_cfg.image_size = 16;
  data_cfg.num_samples = 60;
  Detector det = small_face_detector();
  det.fit(dataset::make_face_dataset(data_cfg));

  image::Image scene(64, 48, 0.5f);
  core::Rng rng(11);
  dataset::render_background(scene, dataset::BackgroundKind::kValueNoise, rng);
  image::paste(scene, dataset::render_face_window(32, 77), 24, 8);

  DetectOptions opts;
  opts.threads = 1;
  opts.stride = 8;
  opts.scales = {1.0, 0.5};
  opts.nms = true;
  const auto boxes = det.detect(scene, opts);
  // The pyramid path may return any box count, but every box must fit the
  // scene and carry one of the two pyramid sizes.
  for (const auto& b : boxes) {
    EXPECT_TRUE(b.size == 16 || b.size == 32) << b.size;
    EXPECT_LE(b.x + b.size, scene.width());
    EXPECT_LE(b.y + b.size, scene.height());
  }
}

TEST(Detector, EmotionWorkloadSevenClasses) {
  dataset::EmotionDatasetConfig data_cfg;
  data_cfg.num_samples = 70;
  const auto train = dataset::make_emotion_dataset(data_cfg);

  Detector det = DetectorBuilder()
                     .window(48)
                     .classes(dataset::kNumEmotions)
                     .dim(2048)
                     .hd_hog_mode(hog::HdHogMode::kDecodeShortcut)
                     .epochs(3)
                     .build();
  det.fit(train);
  const int pred = det.predict(train.images.front());
  EXPECT_GE(pred, 0);
  EXPECT_LT(pred, static_cast<int>(dataset::kNumEmotions));
}

TEST(Detector, RequestPathMatchesLegacyDetect) {
  dataset::FaceDatasetConfig data_cfg;
  data_cfg.image_size = 16;
  data_cfg.num_samples = 60;
  Detector det = small_face_detector();
  det.fit(dataset::make_face_dataset(data_cfg));

  image::Image scene(48, 48, 0.5f);
  core::Rng rng(21);
  dataset::render_background(scene, dataset::BackgroundKind::kMixed, rng);
  image::paste(scene, dataset::render_face_window(16, 321), 16, 8);

  Request request;
  request.id = 7;
  request.tenant = 3;
  request.scene = scene;
  request.options.threads = 1;
  request.options.stride = 8;

  auto outcome = det.detect(request);
  ASSERT_TRUE(outcome.ok()) << outcome.error().message;
  EXPECT_EQ(outcome.value().id, 7u);
  EXPECT_EQ(outcome.value().tenant, 3u);
  // The sync wrapper never reads clocks; timing stays zero.
  EXPECT_EQ(outcome.value().timing.total, 0u);

  const auto legacy = det.detect(scene, request.options);
  const auto& served = outcome.value().detections;
  ASSERT_EQ(served.size(), legacy.size());
  for (std::size_t i = 0; i < served.size(); ++i) {
    EXPECT_EQ(served[i].x, legacy[i].x);
    EXPECT_EQ(served[i].y, legacy[i].y);
    EXPECT_EQ(served[i].size, legacy[i].size);
    EXPECT_EQ(served[i].score, legacy[i].score);
  }
}

TEST(Detector, RequestPathReturnsTypedErrorsInsteadOfThrowing) {
  Detector det = small_face_detector();

  Request bad_options;
  bad_options.scene = image::Image(32, 32, 0.5f);
  bad_options.options.stride = 0;
  auto outcome = det.detect(bad_options);
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.error().code, ErrorCode::kInvalidOptions);

  Request tiny_scene;
  tiny_scene.scene = image::Image(8, 8, 0.5f);  // smaller than the window
  outcome = det.detect(tiny_scene);
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.error().code, ErrorCode::kInvalidOptions);

  // The legacy wrappers keep throwing — now the typed exception form.
  DetectOptions opts;
  opts.scales = {};
  EXPECT_THROW((void)det.detect_map(tiny_scene.scene, opts),
               InvalidOptionsError);
  EXPECT_THROW((void)det.detect(tiny_scene.scene, opts), std::invalid_argument);
}

// The old feature_counter/encode_cache_stats alias fields are gone, so the
// telemetry struct alone decides where a scan's accounting goes: every sink it
// names receives counts, and a later scan without telemetry adds nothing.
TEST(Detector, TelemetrySinkWinsOverDeprecatedAliases) {
  dataset::FaceDatasetConfig data_cfg;
  data_cfg.image_size = 16;
  data_cfg.num_samples = 40;
  Detector det = small_face_detector();
  det.fit(dataset::make_face_dataset(data_cfg));

  core::OpCounter ops;
  pipeline::EncodeCacheStats cache;
  DetectOptions opts;
  opts.threads = 2;
  opts.telemetry = Telemetry{&ops, &cache};
  const image::Image scene(32, 32, 0.5f);
  det.detect_map(scene, opts);
  const auto ops_total = ops.total();
  const auto cells = cache.cells_computed;
  EXPECT_GT(ops_total, 0u);
  EXPECT_GT(cells, 0u);

  opts.telemetry.reset();
  det.detect_map(scene, opts);
  EXPECT_EQ(ops.total(), ops_total);
  EXPECT_EQ(cache.cells_computed, cells);
}

TEST(Detector, TelemetryEncodeCacheSinkSeesCellPlaneTraffic) {
  dataset::FaceDatasetConfig data_cfg;
  data_cfg.image_size = 16;
  data_cfg.num_samples = 40;
  Detector det = small_face_detector();
  det.fit(dataset::make_face_dataset(data_cfg));

  pipeline::EncodeCacheStats cache;
  DetectOptions opts;
  opts.threads = 1;
  opts.telemetry = Telemetry{nullptr, &cache};
  det.detect_map(image::Image(32, 32, 0.5f), opts);
  EXPECT_GT(cache.cells_computed, 0u);
  EXPECT_GT(cache.windows_assembled, 0u);
}

TEST(Detector, FeatureCounterAccumulatesThroughOptions) {
  dataset::FaceDatasetConfig data_cfg;
  data_cfg.image_size = 16;
  data_cfg.num_samples = 40;
  Detector det = small_face_detector();
  det.fit(dataset::make_face_dataset(data_cfg));

  core::OpCounter ops;
  DetectOptions opts;
  opts.threads = 2;
  opts.telemetry = Telemetry{&ops, nullptr};
  det.detect_map(image::Image(32, 32, 0.5f), opts);
  EXPECT_GT(ops.total(), 0u);
}

void expect_boxes_identical(const std::vector<pipeline::Detection>& a,
                            const std::vector<pipeline::Detection>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].x, b[i].x) << "box " << i;
    EXPECT_EQ(a[i].y, b[i].y) << "box " << i;
    EXPECT_EQ(a[i].size, b[i].size) << "box " << i;
    EXPECT_EQ(a[i].score, b[i].score) << "box " << i;
  }
}

// DetectOptions{} is the fast path: its scans are bit-identical to an
// explicit cell-plane scan at one and at four threads, for the single-scale
// map and for a two-level pyramid with NMS.
TEST(Detector, DefaultOptionsMatchExplicitCellPlaneScans) {
  dataset::FaceDatasetConfig data_cfg;
  data_cfg.image_size = 16;
  data_cfg.num_samples = 60;
  Detector det = small_face_detector();
  det.fit(dataset::make_face_dataset(data_cfg));

  image::Image scene(64, 48, 0.5f);
  core::Rng rng(23);
  dataset::render_background(scene, dataset::BackgroundKind::kMixed, rng);
  image::paste(scene, dataset::render_face_window(16, 808), 8, 8);
  image::paste(scene, dataset::render_face_window(32, 809), 32, 16);

  const DetectOptions defaults;
  const auto base_map = det.detect_map(scene, defaults);
  DetectOptions pyramid;
  pyramid.scales = {1.0, 0.5};
  pyramid.nms = true;
  const auto base_boxes = det.detect(scene, pyramid);

  for (const std::size_t threads : {1u, 4u}) {
    SCOPED_TRACE(testing::Message() << threads << " threads");
    DetectOptions opts;
    opts.threads = threads;
    opts.encode_mode = pipeline::EncodeMode::kCellPlane;
    const auto map = det.detect_map(scene, opts);
    ASSERT_EQ(map.scores.size(), base_map.scores.size());
    for (std::size_t i = 0; i < map.scores.size(); ++i) {
      EXPECT_EQ(map.scores[i], base_map.scores[i]) << "window " << i;
      EXPECT_EQ(map.predictions[i], base_map.predictions[i])
          << "window " << i;
    }
    opts.scales = pyramid.scales;
    opts.nms = true;
    expect_boxes_identical(det.detect(scene, opts), base_boxes);
  }
}

// Scans need the HD-HOG cell encode. An orig-HOG detector still classifies
// windows, but every scan entry point rejects it up front with a typed
// kInvalidOptions error instead of failing inside the engine.
TEST(Detector, OrigHogScansFailWithTypedErrors) {
  dataset::FaceDatasetConfig data_cfg;
  data_cfg.image_size = 16;
  data_cfg.num_samples = 40;
  Detector det = DetectorBuilder()
                     .window(16)
                     .dim(1024)
                     .mode(pipeline::HdFaceMode::kOrigHogEncoder)
                     .epochs(3)
                     .build();
  det.fit(dataset::make_face_dataset(data_cfg));
  const image::Image scene(32, 32, 0.5f);
  const int pred = det.predict(image::Image(16, 16, 0.5f));
  EXPECT_TRUE(pred == 0 || pred == 1);

  Request request;
  request.scene = scene;
  auto outcome = det.detect(request);
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.error().code, ErrorCode::kInvalidOptions);
  EXPECT_NE(outcome.error().message.find("HD-HOG"), std::string::npos);
  request.options.scales = {1.0, 0.5};
  outcome = det.detect(request);
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.error().code, ErrorCode::kInvalidOptions);

  EXPECT_THROW((void)det.detect_map(scene, {}), InvalidOptionsError);
  EXPECT_THROW((void)det.detect(scene, DetectOptions{}), InvalidOptionsError);
  DetectOptions pyramid;
  pyramid.scales = {1.0, 0.5};
  EXPECT_THROW((void)det.detect(scene, pyramid), InvalidOptionsError);
}

// A NaN pixel has no item-memory level. Every scan entry point rejects it up
// front with a typed error instead of handing it to the engine.
TEST(Detector, NanPixelScansFailWithTypedErrors) {
  dataset::FaceDatasetConfig data_cfg;
  data_cfg.image_size = 16;
  data_cfg.num_samples = 40;
  Detector det = small_face_detector();
  det.fit(dataset::make_face_dataset(data_cfg));
  image::Image scene(32, 32, 0.5f);
  scene.at(17, 9) = std::numeric_limits<float>::quiet_NaN();

  Request request;
  request.scene = scene;
  for (const std::vector<double>& scales :
       {std::vector<double>{1.0}, std::vector<double>{1.0, 0.5}}) {
    request.options.scales = scales;
    const auto outcome = det.detect(request);
    ASSERT_FALSE(outcome.ok());
    EXPECT_EQ(outcome.error().code, ErrorCode::kInvalidOptions);
    EXPECT_NE(outcome.error().message.find("NaN"), std::string::npos);
  }

  EXPECT_THROW((void)det.detect_map(scene, {}), InvalidOptionsError);
  EXPECT_THROW((void)det.detect(scene, DetectOptions{}), InvalidOptionsError);
  DetectOptions pyramid;
  pyramid.scales = {1.0, 0.5};
  EXPECT_THROW((void)det.detect(scene, pyramid), InvalidOptionsError);

  // The same scene without the NaN scans normally.
  scene.at(17, 9) = 0.5f;
  request.scene = scene;
  EXPECT_TRUE(det.detect(request).ok());
}

}  // namespace
}  // namespace hdface::api
