#include "pipeline/sliding_window.hpp"

#include <memory>
#include <stdexcept>

#include <gtest/gtest.h>

#include "dataset/background_generator.hpp"
#include "dataset/face_generator.hpp"
#include "image/transform.hpp"
#include "pipeline/parallel_detect.hpp"

namespace hdface::pipeline {
namespace {

HdFaceConfig detector_config() {
  HdFaceConfig c;
  c.dim = 2048;
  c.mode = HdFaceMode::kHdHog;
  // Cheap mode keeps this test fast; detection quality is what's under test.
  c.hd_hog_mode = hog::HdHogMode::kDecodeShortcut;
  c.hog.cell_size = 4;
  c.hog.bins = 8;
  c.epochs = 5;
  return c;
}

std::shared_ptr<HdFacePipeline> make_pipeline() {
  return std::make_shared<HdFacePipeline>(detector_config(), 16, 16, 2);
}

ParallelDetectConfig serial_scan() {
  ParallelDetectConfig cfg;
  cfg.threads = 1;
  return cfg;
}

TEST(SlidingWindow, ValidatesGeometry) {
  const auto pipe = make_pipeline();
  EXPECT_THROW(SlidingWindowDetector(pipe, 0, 8), std::invalid_argument);
  EXPECT_THROW(SlidingWindowDetector(pipe, 16, 0), std::invalid_argument);
  EXPECT_THROW(SlidingWindowDetector(nullptr, 16, 8), std::invalid_argument);
}

TEST(SlidingWindow, RejectsSceneSmallerThanWindow) {
  SlidingWindowDetector det(make_pipeline(), 16, 8);
  EXPECT_THROW(det.detect(image::Image(8, 8, 0.5f), serial_scan()),
               std::invalid_argument);
}

TEST(SlidingWindow, MapGeometryMatchesStride) {
  SlidingWindowDetector det(make_pipeline(), 16, 8);
  const auto map = det.detect(image::Image(48, 32, 0.5f), serial_scan());
  EXPECT_EQ(map.steps_x, 5u);  // (48-16)/8+1
  EXPECT_EQ(map.steps_y, 3u);
  EXPECT_EQ(map.predictions.size(), 15u);
  EXPECT_EQ(map.scores.size(), 15u);
}

TEST(SlidingWindow, FindsPlantedFace) {
  // Train a detector, then plant one face in a clutter scene: windows over
  // the face should score higher (positive-class cosine) than far-away
  // windows.
  dataset::FaceDatasetConfig data_cfg;
  data_cfg.num_samples = 80;
  data_cfg.image_size = 16;
  const auto train = make_face_dataset(data_cfg);
  const auto pipe = make_pipeline();
  pipe->fit(train);

  image::Image scene(48, 48, 0.5f);
  core::Rng rng(33);
  dataset::render_background(scene, dataset::BackgroundKind::kValueNoise, rng);
  const auto face = dataset::render_face_window(16, 1234);
  image::paste(scene, face, 16, 16);

  SlidingWindowDetector det(pipe, 16, 8);
  const auto map = det.detect(scene, serial_scan());
  // Face window sits at step (2, 2); compare its score against the average
  // of all windows that do not overlap the face at all.
  const double face_score = map.scores[2 * map.steps_x + 2];
  double off_face = 0.0;
  int n_off = 0;
  for (std::size_t sy = 0; sy < map.steps_y; ++sy) {
    for (std::size_t sx = 0; sx < map.steps_x; ++sx) {
      const std::size_t px = sx * map.stride;
      const std::size_t py = sy * map.stride;
      const bool overlaps = px + 16 > 16 && px < 32 && py + 16 > 16 && py < 32;
      if (!overlaps) {
        off_face += map.scores[sy * map.steps_x + sx];
        ++n_off;
      }
    }
  }
  ASSERT_GT(n_off, 0);
  EXPECT_GT(face_score, off_face / n_off - 0.02);
}

TEST(SlidingWindow, OverlayTintsDetections) {
  SlidingWindowDetector det(make_pipeline(), 16, 16);
  image::Image scene(32, 32, 0.5f);
  DetectionMap map;
  map.window = 16;
  map.stride = 16;
  map.steps_x = 2;
  map.steps_y = 2;
  map.predictions = {1, 0, 0, 0};
  map.scores = {0.9, 0.1, 0.1, 0.1};
  const auto overlay = det.render_overlay(scene, map);
  // Top-left window tinted blue; bottom-right untouched gray.
  EXPECT_GT(overlay.at(4, 4)[2], overlay.at(4, 4)[0]);
  EXPECT_EQ(overlay.at(20, 20)[0], overlay.at(20, 20)[2]);
}

TEST(SlidingWindow, OverlayTintsOverlappingWindowsOnce) {
  // Two positive windows overlapping at stride < window: pixels in the
  // overlap must carry exactly the same tint as pixels covered by a single
  // window. (The seed tinted per window, so overlaps were darkened twice and
  // dense detection clusters rendered near-black instead of highlighted.)
  SlidingWindowDetector det(make_pipeline(), 16, 8);
  image::Image scene(32, 32, 0.5f);
  DetectionMap map;
  map.window = 16;
  map.stride = 8;
  map.steps_x = 3;
  map.steps_y = 3;
  map.predictions = {1, 1, 0, 0, 0, 0, 0, 0, 0};
  map.scores = {0.9, 0.9, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1};
  const auto overlay = det.render_overlay(scene, map);
  // (4, 4) is covered only by window 0; (12, 4) by both windows 0 and 1.
  const auto& once = overlay.at(4, 4);
  const auto& twice = overlay.at(12, 4);
  EXPECT_EQ(once[0], twice[0]);
  EXPECT_EQ(once[1], twice[1]);
  EXPECT_EQ(once[2], twice[2]);
}

}  // namespace
}  // namespace hdface::pipeline
