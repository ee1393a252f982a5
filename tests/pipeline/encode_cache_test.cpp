#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "dataset/background_generator.hpp"
#include "dataset/face_generator.hpp"
#include "hog/cell_plane.hpp"
#include "image/transform.hpp"
#include "pipeline/multiscale.hpp"
#include "pipeline/parallel_detect.hpp"

namespace hdface::pipeline {
namespace {

HdFaceConfig engine_config() {
  HdFaceConfig c;
  c.dim = 2048;
  c.mode = HdFaceMode::kHdHog;
  c.hd_hog_mode = hog::HdHogMode::kDecodeShortcut;
  c.hog.cell_size = 4;
  c.hog.bins = 8;
  c.epochs = 5;
  return c;
}

// One trained pipeline + clutter scene with a planted face, shared across the
// suite (training dominates the test's runtime). Same geometry as the
// parallel_detect suite: 16px window, 48px scene.
struct CacheFixture {
  CacheFixture() : pipeline(engine_config(), 16, 16, 2), scene(48, 48, 0.5f) {
    dataset::FaceDatasetConfig data_cfg;
    data_cfg.num_samples = 60;
    data_cfg.image_size = 16;
    pipeline.fit(make_face_dataset(data_cfg));
    core::Rng rng(33);
    dataset::render_background(scene, dataset::BackgroundKind::kValueNoise, rng);
    image::paste(scene, dataset::render_face_window(16, 1234), 16, 16);
  }

  HdFacePipeline pipeline;
  image::Image scene;
};

CacheFixture& fixture() {
  static CacheFixture f;
  return f;
}

ParallelDetectConfig plane_config(std::size_t threads) {
  ParallelDetectConfig cfg;
  cfg.threads = threads;
  cfg.min_chunk = 1;  // force real chunking even on a small grid
  return cfg;
}

void expect_maps_identical(const DetectionMap& a, const DetectionMap& b) {
  ASSERT_EQ(a.steps_x, b.steps_x);
  ASSERT_EQ(a.steps_y, b.steps_y);
  ASSERT_EQ(a.predictions.size(), b.predictions.size());
  for (std::size_t i = 0; i < a.predictions.size(); ++i) {
    EXPECT_EQ(a.predictions[i], b.predictions[i]) << "window " << i;
    EXPECT_EQ(a.scores[i], b.scores[i]) << "window " << i;
  }
}

TEST(CellPlaneSeed, IsAPureKeyOfAllFourInputs) {
  const auto base = hog::cell_plane_seed(7, 0, 0, 0);
  EXPECT_EQ(base, hog::cell_plane_seed(7, 0, 0, 0));
  EXPECT_NE(base, hog::cell_plane_seed(8, 0, 0, 0));
  EXPECT_NE(base, hog::cell_plane_seed(7, 1, 0, 0));
  EXPECT_NE(base, hog::cell_plane_seed(7, 0, 1, 0));
  EXPECT_NE(base, hog::cell_plane_seed(7, 0, 0, 1));
  // (gx, gy) must not be interchangeable.
  EXPECT_NE(hog::cell_plane_seed(7, 0, 2, 5), hog::cell_plane_seed(7, 0, 5, 2));
}

TEST(CellPlaneGeometry, ValidatesInputs) {
  EXPECT_THROW(hog::make_cell_plane_geometry(48, 48, 0, 8, 1, 0),
               std::invalid_argument);
  EXPECT_THROW(hog::make_cell_plane_geometry(48, 48, 4, 8, 0, 0),
               std::invalid_argument);
  // grid_step must divide cell_size (3 does not divide 4).
  EXPECT_THROW(hog::make_cell_plane_geometry(48, 48, 4, 8, 3, 0),
               std::invalid_argument);
  // Scene smaller than one cell.
  EXPECT_THROW(hog::make_cell_plane_geometry(2, 48, 4, 8, 4, 0),
               std::invalid_argument);
  const auto plane = hog::make_cell_plane_geometry(48, 40, 4, 8, 4, 3);
  EXPECT_EQ(plane.grid_x, 12u);  // (48-4)/4+1
  EXPECT_EQ(plane.grid_y, 10u);
  EXPECT_EQ(plane.scale_index, 3u);
  EXPECT_EQ(plane.values.size(), 12u * 10u * 8u);
}

TEST(BuildSceneCellPlane, BitIdenticalAcrossThreadCounts) {
  auto& f = fixture();
  const auto base = build_scene_cell_plane(f.pipeline, f.scene, 4,
                                           plane_config(1));
  EXPECT_EQ(base.cells(), 12u * 12u);
  for (std::size_t threads : {4u, 8u}) {
    SCOPED_TRACE(testing::Message() << threads << " threads");
    const auto plane = build_scene_cell_plane(f.pipeline, f.scene, 4,
                                              plane_config(threads));
    ASSERT_EQ(plane.values.size(), base.values.size());
    for (std::size_t i = 0; i < base.values.size(); ++i) {
      // Bit-identical doubles: every cell reseeds from the pure
      // (seed, scale, gx, gy) key, so chunking cannot leak in.
      EXPECT_EQ(base.values[i], plane.values[i]) << "slot " << i;
    }
  }
}

TEST(BuildSceneCellPlane, ScaleIndexSelectsAnIndependentStream) {
  auto& f = fixture();
  auto cfg0 = plane_config(1);
  auto cfg1 = plane_config(1);
  cfg1.scale_index = 1;
  const auto a = build_scene_cell_plane(f.pipeline, f.scene, 4, cfg0);
  const auto b = build_scene_cell_plane(f.pipeline, f.scene, 4, cfg1);
  ASSERT_EQ(a.values.size(), b.values.size());
  std::size_t differing = 0;
  for (std::size_t i = 0; i < a.values.size(); ++i) {
    if (a.values[i] != b.values[i]) ++differing;
  }
  // Different stochastic streams over the same pixels: decoded values agree
  // statistically but not bit-for-bit across most slots.
  EXPECT_GT(differing, a.values.size() / 4);
}

TEST(BuildSceneCellPlane, RequiresHdHogPipeline) {
  HdFaceConfig classical;
  classical.dim = 1024;
  classical.mode = HdFaceMode::kOrigHogEncoder;
  classical.hog.cell_size = 4;
  HdFacePipeline pipeline(classical, 16, 16, 2);
  const image::Image scene(32, 32, 0.5f);
  EXPECT_THROW(build_scene_cell_plane(pipeline, scene, 4),
               std::invalid_argument);
  ParallelDetectConfig cfg = plane_config(1);
  EXPECT_THROW(detect_windows_parallel(pipeline, scene, 16, 8, 1, cfg),
               std::invalid_argument);
}

TEST(ExtractFromPlane, RejectsOffGridAndMismatchedGeometry) {
  auto& f = fixture();
  const auto plane = build_scene_cell_plane(f.pipeline, f.scene, 4,
                                            plane_config(1));
  auto* hd = f.pipeline.hd_extractor();
  ASSERT_NE(hd, nullptr);
  // Origin not a multiple of grid_step.
  EXPECT_THROW(hd->extract_from_plane(plane, 2, 0, nullptr),
               std::invalid_argument);
  // Window hangs off the plane.
  EXPECT_THROW(hd->extract_from_plane(plane, 36, 0, nullptr),
               std::invalid_argument);
  EXPECT_NO_THROW(hd->extract_from_plane(plane, 32, 32, nullptr));
}

TEST(CellPlaneDetect, BitIdenticalAcrossThreadCounts) {
  auto& f = fixture();
  const auto base =
      detect_windows_parallel(f.pipeline, f.scene, 16, 8, 1, plane_config(1));
  for (std::size_t threads : {4u, 8u}) {
    SCOPED_TRACE(testing::Message() << threads << " threads");
    const auto map = detect_windows_parallel(f.pipeline, f.scene, 16, 8, 1,
                                             plane_config(threads));
    expect_maps_identical(base, map);
  }
}

TEST(CellPlaneDetect, RepeatedCallsAreIdentical) {
  auto& f = fixture();
  const auto a =
      detect_windows_parallel(f.pipeline, f.scene, 16, 8, 1, plane_config(2));
  const auto b =
      detect_windows_parallel(f.pipeline, f.scene, 16, 8, 1, plane_config(2));
  expect_maps_identical(a, b);
}

// Reference scan that encodes every cropped window on its own with the
// pipeline's per-image encode (HdFacePipeline::encode_image, the path
// classification uses) — the oracle the cell-plane scan is compared with.
// Each window reseeds its scratch from (seed, salt, window index), the
// stream the agreement floor below was measured on.
DetectionMap per_window_reference(HdFacePipeline& pipeline,
                                  const image::Image& scene,
                                  std::size_t window, std::size_t stride) {
  DetectionMap map;
  map.window = window;
  map.stride = stride;
  map.steps_x = (scene.width() - window) / stride + 1;
  map.steps_y = (scene.height() - window) / stride + 1;
  pipeline.prepare_concurrent();
  const std::uint64_t seed_base =
      core::mix64(pipeline.config().seed, 0xBA7C4ED0ULL);
  core::StochasticContext scratch = pipeline.fork_context(seed_base);
  image::Image patch;
  for (std::size_t sy = 0; sy < map.steps_y; ++sy) {
    for (std::size_t sx = 0; sx < map.steps_x; ++sx) {
      scratch.reseed(core::mix64(seed_base, sy * map.steps_x + sx));
      image::crop_into(scene, sx * stride, sy * stride, window, window, patch);
      const auto scores =
          pipeline.classifier().scores(pipeline.encode_image(patch, scratch));
      map.predictions.push_back(static_cast<int>(
          std::max_element(scores.begin(), scores.end()) - scores.begin()));
      map.scores.push_back(scores[1]);
    }
  }
  return map;
}

TEST(CellPlaneDetect, AgreesWithPerWindowEncode) {
  // The cell plane and a per-window encode draw different deterministic
  // random streams (and cell-plane gradients see true scene neighbors where
  // a cropped window sees clamped edges), so maps agree statistically, not
  // bit-for-bit. The agreement floor is pinned: a regression that breaks
  // window assembly (wrong cells, wrong normalization) collapses agreement
  // to chance (~0.5).
  auto& f = fixture();
  // Stride 4 (81 windows) for statistical power; grid_step stays gcd(4,4)=4.
  const auto reference = per_window_reference(f.pipeline, f.scene, 16, 4);
  const auto cached =
      detect_windows_parallel(f.pipeline, f.scene, 16, 4, 1, plane_config(1));
  ASSERT_EQ(reference.predictions.size(), cached.predictions.size());
  std::size_t agree = 0;
  double sum_abs_delta = 0.0;
  for (std::size_t i = 0; i < reference.predictions.size(); ++i) {
    if (reference.predictions[i] == cached.predictions[i]) ++agree;
    sum_abs_delta += std::abs(reference.scores[i] - cached.scores[i]);
  }
  const double agreement =
      static_cast<double>(agree) /
      static_cast<double>(reference.predictions.size());
  const double mean_abs_delta =
      sum_abs_delta / static_cast<double>(reference.scores.size());
  // Pinned at the measured fixture values with margin: agreement 0.79 and
  // mean |Δscore| ≈ 0.05 at dim 2048 (disagreements are boundary windows —
  // the two streams' decode noise is ~1/√dim each; broken assembly collapses
  // agreement to chance ≈ 0.5 and blows up the score delta).
  EXPECT_GE(agreement, 0.70) << "agreement " << agreement;
  EXPECT_LE(mean_abs_delta, 0.10) << "mean |Δscore| " << mean_abs_delta;
}

TEST(CellPlaneDetect, CacheStatsAreExactAndThreadCountInvariant) {
  auto& f = fixture();
  // 48px scene, 16px window, stride 8 → 5×5 windows; grid_step gcd(8,4)=4 →
  // 12×12 cells; 16px window at cell 4 → 16 slots/window of 8 bins.
  const std::uint64_t windows = 25;
  const std::uint64_t cells = 144;
  const std::uint64_t slots_per_window = 4 * 4 * 8;
  for (std::size_t threads : {1u, 4u, 8u}) {
    SCOPED_TRACE(testing::Message() << threads << " threads");
    EncodeCacheStats stats;
    auto cfg = plane_config(threads);
    cfg.cache_stats = &stats;
    detect_windows_parallel(f.pipeline, f.scene, 16, 8, 1, cfg);
    EXPECT_EQ(stats.cells_computed, cells);
    EXPECT_EQ(stats.windows_assembled, windows);
    EXPECT_EQ(stats.slot_reads, windows * slots_per_window);
  }
}

TEST(CellPlaneDetect, FeatureCounterTotalsMatchAcrossThreadCounts) {
  auto& f = fixture();
  std::vector<core::OpCounter> counters(3);
  const std::size_t thread_counts[] = {1, 4, 8};
  for (std::size_t i = 0; i < 3; ++i) {
    auto cfg = plane_config(thread_counts[i]);
    cfg.feature_counter = &counters[i];
    detect_windows_parallel(f.pipeline, f.scene, 16, 8, 1, cfg);
  }
  EXPECT_GT(counters[0].total(), 0u);
  for (std::size_t i = 1; i < 3; ++i) {
    for (std::size_t k = 0; k < core::kOpKindCount; ++k) {
      EXPECT_EQ(counters[0].counts[k], counters[i].counts[k])
          << op_kind_name(static_cast<core::OpKind>(k)) << " at "
          << thread_counts[i] << " threads";
    }
  }
}

TEST(CellPlaneDetect, MultiScaleIsThreadCountInvariant) {
  auto& f = fixture();
  auto shared =
      std::shared_ptr<HdFacePipeline>(&f.pipeline, [](HdFacePipeline*) {});
  MultiScaleConfig ms;
  ms.scales = {1.0, 0.75};
  ms.stride = 8;
  MultiScaleDetector det(shared, 16, ms);
  const auto a = det.detect(f.scene, plane_config(1));
  const auto b = det.detect(f.scene, plane_config(4));
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].x, b[i].x);
    EXPECT_EQ(a[i].y, b[i].y);
    EXPECT_EQ(a[i].size, b[i].size);
    EXPECT_EQ(a[i].score, b[i].score);
  }
}

}  // namespace
}  // namespace hdface::pipeline
