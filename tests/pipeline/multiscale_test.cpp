#include "pipeline/multiscale.hpp"

#include <memory>
#include <stdexcept>

#include <gtest/gtest.h>

#include "dataset/background_generator.hpp"
#include "dataset/face_generator.hpp"
#include "image/transform.hpp"

namespace hdface::pipeline {
namespace {

TEST(BoxIou, IdenticalBoxesAreOne) {
  const Detection a{10, 10, 20, 0.9};
  EXPECT_DOUBLE_EQ(box_iou(a, a), 1.0);
}

TEST(BoxIou, DisjointBoxesAreZero) {
  const Detection a{0, 0, 10, 0.9};
  const Detection b{50, 50, 10, 0.8};
  EXPECT_DOUBLE_EQ(box_iou(a, b), 0.0);
}

TEST(BoxIou, HalfOverlap) {
  const Detection a{0, 0, 10, 0.9};
  const Detection b{5, 0, 10, 0.8};
  // intersection 5x10=50, union 200-50=150.
  EXPECT_NEAR(box_iou(a, b), 50.0 / 150.0, 1e-9);
}

TEST(Nms, KeepsHighestOfOverlappingGroup) {
  std::vector<Detection> input = {{0, 0, 20, 0.5}, {2, 2, 20, 0.9}, {4, 0, 20, 0.7}};
  const auto kept = non_max_suppression(input, 0.3);
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_DOUBLE_EQ(kept[0].score, 0.9);
}

TEST(Nms, KeepsSeparatedDetections) {
  std::vector<Detection> input = {{0, 0, 10, 0.5}, {100, 100, 10, 0.9}};
  const auto kept = non_max_suppression(input, 0.3);
  EXPECT_EQ(kept.size(), 2u);
}

TEST(DetectionBefore, TotalOrderOnScoreThenPosition) {
  EXPECT_TRUE(detection_before({5, 5, 10, 0.9}, {0, 0, 10, 0.5}));
  // Equal score: y breaks first, then x, then size ascending.
  EXPECT_TRUE(detection_before({9, 2, 10, 0.5}, {0, 3, 10, 0.5}));
  EXPECT_TRUE(detection_before({1, 2, 10, 0.5}, {4, 2, 10, 0.5}));
  EXPECT_TRUE(detection_before({1, 2, 10, 0.5}, {1, 2, 20, 0.5}));
  // Irreflexive on identical boxes.
  EXPECT_FALSE(detection_before({1, 2, 10, 0.5}, {1, 2, 10, 0.5}));
}

TEST(Nms, EqualScoreTieBreaksDeterministically) {
  // Three fully-overlapping boxes with the same score: the winner must be
  // the detection_before minimum (topmost, then leftmost), regardless of the
  // order the candidates arrive in.
  const std::vector<Detection> boxes = {
      {4, 2, 20, 0.7}, {2, 2, 20, 0.7}, {3, 5, 20, 0.7}};
  std::vector<std::vector<Detection>> orders = {
      {boxes[0], boxes[1], boxes[2]},
      {boxes[2], boxes[0], boxes[1]},
      {boxes[1], boxes[2], boxes[0]}};
  for (const auto& input : orders) {
    const auto kept = non_max_suppression(input, 0.3);
    ASSERT_EQ(kept.size(), 1u);
    EXPECT_EQ(kept[0].x, 2u);
    EXPECT_EQ(kept[0].y, 2u);
  }
}

TEST(Nms, EqualScoreNestedTieBreaksOnSize) {
  // Same corner, same score, one nested in the other (IoU 16²/20² = 0.64):
  // the smaller box sorts first and suppresses the larger.
  const auto kept = non_max_suppression(
      {{8, 8, 20, 0.6}, {8, 8, 16, 0.6}}, 0.3);
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept[0].size, 16u);
}

TEST(Nms, NestedBoxSuppressionFollowsIouThreshold) {
  // A size-10 box nested in a size-20 box shares 100 of 400 pixels
  // (IoU 0.25): kept at threshold 0.3, suppressed at 0.2.
  const std::vector<Detection> input = {{0, 0, 20, 0.9}, {0, 0, 10, 0.8}};
  EXPECT_EQ(non_max_suppression(input, 0.3).size(), 2u);
  const auto tight = non_max_suppression(input, 0.2);
  ASSERT_EQ(tight.size(), 1u);
  EXPECT_DOUBLE_EQ(tight[0].score, 0.9);
}

HdFaceConfig detector_config() {
  HdFaceConfig c;
  c.dim = 2048;
  c.hd_hog_mode = hog::HdHogMode::kDecodeShortcut;
  c.hog.cell_size = 4;
  c.epochs = 5;
  return c;
}

std::shared_ptr<HdFacePipeline> make_pipeline() {
  return std::make_shared<HdFacePipeline>(detector_config(), 16, 16, 2);
}

TEST(MultiScale, ValidatesConfig) {
  const auto pipe = make_pipeline();
  MultiScaleConfig cfg;
  cfg.scales = {};
  EXPECT_THROW(MultiScaleDetector(pipe, 16, cfg), std::invalid_argument);
  cfg.scales = {1.5};
  EXPECT_THROW(MultiScaleDetector(pipe, 16, cfg), std::invalid_argument);
}

TEST(MultiScale, FindsOversizedFaceThroughPyramid) {
  // Train on 16x16 windows; plant a 32x32 face: only the 0.5 pyramid level
  // can match it.
  dataset::FaceDatasetConfig data_cfg;
  data_cfg.num_samples = 100;
  data_cfg.image_size = 16;
  const auto train = make_face_dataset(data_cfg);
  const auto pipe = make_pipeline();
  pipe->fit(train);

  image::Image scene(64, 64, 0.5f);
  core::Rng rng(5);
  dataset::render_background(scene, dataset::BackgroundKind::kValueNoise, rng);
  image::paste(scene, dataset::render_face_window(32, 7), 16, 16);

  MultiScaleConfig cfg;
  cfg.scales = {1.0, 0.5};
  cfg.stride = 8;
  MultiScaleDetector det(pipe, 16, cfg);
  ParallelDetectConfig engine;
  engine.threads = 1;
  const auto detections = det.detect(scene, engine);
  bool found_large = false;
  for (const auto& d : detections) {
    if (d.size >= 28 && box_iou(d, Detection{16, 16, 32, 1.0}) > 0.2) {
      found_large = true;
    }
  }
  EXPECT_TRUE(found_large) << detections.size() << " detections";
}

TEST(MultiScale, RenderMarksBoxes) {
  MultiScaleConfig cfg;
  MultiScaleDetector det(make_pipeline(), 16, cfg);
  image::Image scene(32, 32, 0.5f);
  const auto rgb = det.render(scene, {{4, 4, 10, 0.9}});
  // Box corner pixel tinted blue.
  EXPECT_GT(rgb.at(4, 4)[2], rgb.at(20, 20)[2]);
}

}  // namespace
}  // namespace hdface::pipeline
