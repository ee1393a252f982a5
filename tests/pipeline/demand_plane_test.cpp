// Demand-set scan suite (DESIGN.md §14). detect_windows_parallel fills only
// the cells its windows read — the prescreen's parity cells, then the cells
// of the prescreen's survivors — so its DetectionMap must equal a scan on a
// fully built plane (build_scene_cell_plane + detect_windows_on_plane) at
// every thread count, with the cascade on or off, with and without the
// prescreen, single-scale and through the pyramid. On top of identity the
// suite pins the demand set itself (exact EncodeCacheStats, equal to the
// counts of the lazy plane this scan replaced), prescreen calibration's
// zero-false-reject contract, the v1/v2 threshold-table serialization, and
// the per-cell building blocks: window_on_grid geometry, the level-index
// plane, and the fused cell kernel against the reference chain (bytes and
// op charges). The LazyPlane.* names predate the demand-set scan and are
// kept so each test's history stays continuous.
//
// The fixture trains in kFaithful HD-HOG mode on purpose: that is the mode
// whose fills dispatch the fused batched cell kernel, so every identity below
// also exercises fused-vs-fused determinism under threads.

#include "pipeline/parallel_detect.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "api/detector.hpp"
#include "core/kernels/kernels.hpp"
#include "core/stochastic.hpp"
#include "dataset/face_generator.hpp"
#include "hog/cell_plane.hpp"
#include "hog/gradient.hpp"
#include "hog/hd_hog.hpp"
#include "image/image.hpp"
#include "pipeline/cascade.hpp"
#include "pipeline/multiscale.hpp"

namespace hdface::pipeline {
namespace {

HdFaceConfig demand_test_config() {
  HdFaceConfig c;
  c.dim = 1024;
  c.mode = HdFaceMode::kHdHog;
  c.hd_hog_mode = hog::HdHogMode::kFaithful;  // arms the fused cell kernel
  c.hog.cell_size = 4;
  c.hog.bins = 8;
  c.epochs = 5;
  return c;
}

// One trained faithful pipeline, calibration scenes, a plain cascade table,
// a prescreen-carrying table, and golden exact maps — shared by every test
// (training + calibration dominate the suite's runtime).
struct LazyFixture {
  static constexpr std::size_t kWindow = 16;
  static constexpr std::size_t kStride = 8;

  LazyFixture() : pipeline(demand_test_config(), kWindow, kWindow, 2) {
    dataset::FaceDatasetConfig data_cfg;
    data_cfg.num_samples = 60;
    data_cfg.image_size = kWindow;
    pipeline.fit(make_face_dataset(data_cfg));
    // Cascade margins live in binarized-prototype Hamming space.
    pipeline.mutable_classifier().set_binary_override(
        pipeline.classifier().binary_prototypes());

    scenes = cascade_calibration_scenes(2, kWindow, 64, 48, 1, 0x5EED);

    CascadeCalibrationConfig cc;
    cc.stage_fractions = {0.25, 0.5};
    cc.slack = 0.01;
    cc.window = kWindow;
    cc.stride = kStride;
    table = calibrate_cascade(pipeline, scenes, cc);

    cc.prescreen = true;
    cc.prescreen_fraction = 0.25;
    prescreen_table = calibrate_cascade(pipeline, scenes, cc);

    ParallelDetectConfig exact;
    exact.threads = 1;
    for (const auto& scene : scenes) {
      golden.push_back(
          detect_windows_parallel(pipeline, scene, kWindow, kStride, 1, exact));
    }
  }

  HdFacePipeline pipeline;
  std::vector<image::Image> scenes;
  CascadeTable table;
  CascadeTable prescreen_table;
  std::vector<DetectionMap> golden;
};

LazyFixture& fixture() {
  static LazyFixture f;
  return f;
}

ParallelDetectConfig plane_cfg(std::size_t threads,
                               const Cascade* cascade = nullptr) {
  ParallelDetectConfig cfg;
  cfg.threads = threads;
  cfg.min_chunk = 1;  // force real chunking at small scene sizes
  cfg.cascade = cascade;
  return cfg;
}

// The full-plane scan: every plane cell encoded up front, then the scoring
// phases on the complete plane.
DetectionMap full_plane_scan(const image::Image& scene,
                             const ParallelDetectConfig& cfg) {
  auto& f = fixture();
  const hog::CellPlane plane =
      build_scene_cell_plane(f.pipeline, scene, 4, cfg);
  return detect_windows_on_plane(f.pipeline, scene, plane,
                                 LazyFixture::kWindow, LazyFixture::kStride, 1,
                                 cfg);
}

DetectionMap demand_scan(const image::Image& scene,
                         const ParallelDetectConfig& cfg) {
  return detect_windows_parallel(fixture().pipeline, scene,
                                 LazyFixture::kWindow, LazyFixture::kStride, 1,
                                 cfg);
}

// 64×48 flat background with one face pasted into the left half: the
// prescreen rejects the windows away from the face.
image::Image flat_face_scene() {
  image::Image scene(64, 48);
  for (float& p : scene.pixels()) p = 0.5f;
  dataset::FaceDatasetConfig face_cfg;
  face_cfg.num_samples = 1;
  face_cfg.image_size = LazyFixture::kWindow;
  const auto faces = make_face_dataset(face_cfg);
  for (std::size_t y = 0; y < LazyFixture::kWindow; ++y) {
    for (std::size_t x = 0; x < LazyFixture::kWindow; ++x) {
      scene.at(8 + x, 16 + y) = faces.images[0].at(x, y);
    }
  }
  return scene;
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

void expect_cache_stats_equal(const EncodeCacheStats& a,
                              const EncodeCacheStats& b) {
  EXPECT_EQ(a.cells_computed, b.cells_computed);
  EXPECT_EQ(a.cells_total, b.cells_total);
  EXPECT_EQ(a.cells_forced_prescreen, b.cells_forced_prescreen);
  EXPECT_EQ(a.ensure_checks, b.ensure_checks);
  EXPECT_EQ(a.slot_reads, b.slot_reads);
  EXPECT_EQ(a.windows_assembled, b.windows_assembled);
}

// --- bit-identity: the demand set is a pure scheduling choice ---------------

TEST(LazyPlane, BitIdenticalToEagerWithoutCascadeAtEveryThreadCount) {
  auto& f = fixture();
  for (const std::size_t threads : {1u, 4u, 8u}) {
    SCOPED_TRACE(testing::Message() << threads << " threads");
    for (std::size_t i = 0; i < f.scenes.size(); ++i) {
      const auto demand = demand_scan(f.scenes[i], plane_cfg(threads));
      expect_maps_identical(f.golden[i], demand);
      expect_maps_identical(full_plane_scan(f.scenes[i], plane_cfg(threads)),
                            demand);
    }
  }
}

TEST(LazyPlane, BitIdenticalToEagerUnderCascadeAtEveryThreadCount) {
  auto& f = fixture();
  for (const CascadeTable* table : {&f.table, &f.prescreen_table}) {
    const Cascade cascade(f.pipeline.classifier(), *table);
    // One full-plane reference per scene; the demand-set scan and the
    // full-plane scan at several thread counts must reproduce it bit for bit
    // (including prescreen-rejected verdicts).
    for (std::size_t i = 0; i < f.scenes.size(); ++i) {
      const auto full = full_plane_scan(f.scenes[i], plane_cfg(1, &cascade));
      for (const std::size_t threads : {1u, 4u, 8u}) {
        SCOPED_TRACE(testing::Message() << threads << " threads");
        expect_maps_identical(
            full, demand_scan(f.scenes[i], plane_cfg(threads, &cascade)));
        expect_maps_identical(
            full, full_plane_scan(f.scenes[i], plane_cfg(threads, &cascade)));
      }
    }
  }
}

// The pyramid {1, 0.5}: every level's demand-set map equals its full-plane
// map (each level on its own scale_index), and the facade's NMS boxes are
// the same at every thread count, with and without the cascade.
TEST(DemandPlane, PyramidLevelsMatchFullPlaneAndBoxesAreThreadInvariant) {
  auto& f = fixture();
  const Cascade cascade(f.pipeline.classifier(), f.prescreen_table);
  const ScalePyramid pyramid =
      build_pyramid(f.scenes[0], LazyFixture::kWindow, {1.0, 0.5});
  ASSERT_EQ(pyramid.levels.size(), 2u);
  for (const Cascade* c : {static_cast<const Cascade*>(nullptr), &cascade}) {
    SCOPED_TRACE(c == nullptr ? "exact" : "cascade");
    for (std::size_t level = 0; level < pyramid.levels.size(); ++level) {
      auto cfg = plane_cfg(1, c);
      cfg.scale_index = level;
      const auto full = full_plane_scan(pyramid.levels[level], cfg);
      for (const std::size_t threads : {1u, 4u, 8u}) {
        SCOPED_TRACE(testing::Message()
                     << "level " << level << ", " << threads << " threads");
        cfg.threads = threads;
        expect_maps_identical(full, demand_scan(pyramid.levels[level], cfg));
      }
    }
  }

  api::Detector det(
      std::shared_ptr<HdFacePipeline>(&f.pipeline, [](HdFacePipeline*) {}),
      LazyFixture::kWindow);
  for (const bool with_cascade : {false, true}) {
    api::DetectOptions opts;
    opts.stride = LazyFixture::kStride;
    opts.scales = {1.0, 0.5};
    opts.nms = true;
    if (with_cascade) {
      opts.cascade = CascadeConfig{CascadeMode::kCalibrated, f.prescreen_table};
    }
    opts.threads = 1;
    const auto base = det.detect(f.scenes[0], opts);
    for (const std::size_t threads : {4u, 8u}) {
      opts.threads = threads;
      const auto boxes = det.detect(f.scenes[0], opts);
      ASSERT_EQ(boxes.size(), base.size());
      for (std::size_t i = 0; i < boxes.size(); ++i) {
        EXPECT_EQ(boxes[i].x, base[i].x) << "box " << i;
        EXPECT_EQ(boxes[i].y, base[i].y) << "box " << i;
        EXPECT_EQ(boxes[i].size, base[i].size) << "box " << i;
        EXPECT_EQ(boxes[i].score, base[i].score) << "box " << i;
      }
    }
  }
}

// --- prescreen: calibration contract and verdict accounting ------------------

TEST(LazyPlane, PrescreenZeroFalseRejectsOnCalibrationScenes) {
  auto& f = fixture();
  ASSERT_GT(f.prescreen_table.prescreen_words, 0u);
  const Cascade cascade(f.pipeline.classifier(), f.prescreen_table);
  for (std::size_t i = 0; i < f.scenes.size(); ++i) {
    CascadeStats stats;
    ParallelDetectConfig cfg = plane_cfg(1, &cascade);
    cfg.cascade_stats = &stats;
    const auto map = demand_scan(f.scenes[i], cfg);
    for (std::size_t idx = 0; idx < map.predictions.size(); ++idx) {
      if (f.golden[i].predictions[idx] == 1) {
        // Zero false rejects by construction of the prescreen threshold —
        // and survivors score exactly the exact-scan value.
        EXPECT_EQ(map.predictions[idx], 1) << "scene " << i << " window " << idx;
        EXPECT_EQ(map.scores[idx], f.golden[i].scores[idx])
            << "scene " << i << " window " << idx;
      }
    }
    // Every window enters the prescreen; only survivors enter the staged
    // cascade. The two verdict pools partition the scan grid.
    EXPECT_EQ(stats.prescreen_entered, map.predictions.size());
    EXPECT_EQ(stats.windows + stats.prescreen_rejected, stats.prescreen_entered);
  }
}

// --- the demand set: rejected regions stay unencoded -------------------------

TEST(LazyPlane, PrescreenRejectedRegionsLeaveCellsUnmaterialized) {
  auto& f = fixture();
  // Flat background (zero gradient parks every cell's histogram mass in bin
  // 0, so the orientation-spread floor fires) with one face in the left
  // half. A rejected window demands nothing beyond the parity subgrid — the
  // right half's off-parity cells must never be encoded.
  const Cascade cascade(f.pipeline.classifier(), f.prescreen_table);
  CascadeStats cstats;
  EncodeCacheStats estats;
  ParallelDetectConfig cfg = plane_cfg(1, &cascade);
  cfg.cascade_stats = &cstats;
  cfg.cache_stats = &estats;
  (void)demand_scan(flat_face_scene(), cfg);
  ASSERT_GT(cstats.prescreen_rejected, 0u);
  EXPECT_LT(estats.cells_computed, estats.cells_total);
  EXPECT_GT(estats.cells_forced_prescreen, 0u);
  EXPECT_LE(estats.cells_forced_prescreen, estats.cells_computed);
  // 64×48 scene, grid_step 4 → 16×12 cells, even/even subgrid 8×6.
  EXPECT_EQ(estats.cells_total, 16u * 12u);
  EXPECT_LE(estats.cells_forced_prescreen, 8u * 6u);
  // Every read either demanded a cell or hit one demanded earlier.
  EXPECT_GE(estats.ensure_checks, estats.cells_computed);
}

// The counts the lazy plane (a per-cell once-gate filled on first read)
// reported on these scenes, pinned before the demand-set scan replaced it:
// the demand set must be exactly the set of cells the lazy plane
// materialized, read exactly as often.
TEST(DemandPlane, CountersMatchLazyPlanePins) {
  auto& f = fixture();
  struct Pin {
    const image::Image* scene;
    const CascadeTable* table;  // nullptr = no cascade
    EncodeCacheStats want;
  };
  const image::Image flat = flat_face_scene();
  const Pin pins[] = {
      {&f.scenes[0], nullptr, {192, 192, 0, 560, 4480, 35}},
      {&f.scenes[1], nullptr, {192, 192, 0, 560, 4480, 35}},
      {&f.scenes[0], &f.table, {192, 192, 0, 560, 4480, 35}},
      {&f.scenes[1], &f.table, {192, 192, 0, 560, 4480, 35}},
      {&f.scenes[0], &f.prescreen_table, {177, 192, 48, 524, 4192, 35}},
      {&f.scenes[1], &f.prescreen_table, {189, 192, 48, 668, 5344, 35}},
      {&flat, &f.prescreen_table, {105, 192, 48, 268, 2144, 35}},
  };
  for (std::size_t p = 0; p < std::size(pins); ++p) {
    const std::optional<Cascade> cascade =
        pins[p].table ? std::optional<Cascade>(std::in_place,
                                               f.pipeline.classifier(),
                                               *pins[p].table)
                      : std::nullopt;
    for (const std::size_t threads : {1u, 4u}) {
      SCOPED_TRACE(testing::Message() << "pin " << p << ", " << threads
                                      << " threads");
      EncodeCacheStats stats;
      ParallelDetectConfig cfg =
          plane_cfg(threads, cascade ? &*cascade : nullptr);
      cfg.cache_stats = &stats;
      (void)demand_scan(*pins[p].scene, cfg);
      expect_cache_stats_equal(pins[p].want, stats);
    }
  }
}

// --- stats: exact and thread-invariant ---------------------------------------

TEST(LazyPlane, CacheStatsExactWithoutCascade) {
  auto& f = fixture();
  EncodeCacheStats stats;
  ParallelDetectConfig cfg = plane_cfg(1);
  cfg.cache_stats = &stats;
  (void)demand_scan(f.scenes[0], cfg);
  // 64×48 scene, 16px window, stride 8 → 7×5 = 35 windows; grid_step
  // gcd(8, 4) = 4 → 16×12 = 192 cells; 4×4 cells of 8 bins per window.
  EXPECT_EQ(stats.windows_assembled, 35u);
  EXPECT_EQ(stats.cells_total, 192u);
  // No cascade: every window reads all its cells, so the whole plane is
  // demanded (the scan grid covers every cell at this geometry)...
  EXPECT_EQ(stats.cells_computed, 192u);
  EXPECT_EQ(stats.cells_forced_prescreen, 0u);
  // ...through one read per (window, cell) pair and one slot read per
  // (window, cell, bin).
  EXPECT_EQ(stats.ensure_checks, 35u * 16u);
  EXPECT_EQ(stats.slot_reads, 35u * 16u * 8u);

  // A scan on a prebuilt plane reads the same (window, cell) pairs and
  // computes nothing; the build computes the whole plane.
  EncodeCacheStats build_stats;
  EncodeCacheStats scan_stats;
  ParallelDetectConfig build_cfg = plane_cfg(1);
  build_cfg.cache_stats = &build_stats;
  const hog::CellPlane plane =
      build_scene_cell_plane(f.pipeline, f.scenes[0], 4, build_cfg);
  ParallelDetectConfig scan_cfg = plane_cfg(1);
  scan_cfg.cache_stats = &scan_stats;
  (void)detect_windows_on_plane(f.pipeline, f.scenes[0], plane,
                                LazyFixture::kWindow, LazyFixture::kStride, 1,
                                scan_cfg);
  EXPECT_EQ(build_stats.cells_computed, 192u);
  EXPECT_EQ(build_stats.cells_total, 192u);
  EXPECT_EQ(scan_stats.cells_computed, 0u);
  EXPECT_EQ(scan_stats.ensure_checks, stats.ensure_checks);
  EXPECT_EQ(scan_stats.slot_reads, stats.slot_reads);
  EXPECT_EQ(scan_stats.windows_assembled, stats.windows_assembled);
}

TEST(LazyPlane, StatsThreadInvariantUnderPrescreenCascade) {
  auto& f = fixture();
  const Cascade cascade(f.pipeline.classifier(), f.prescreen_table);
  CascadeStats cstats1;
  EncodeCacheStats estats1;
  {
    ParallelDetectConfig cfg = plane_cfg(1, &cascade);
    cfg.cascade_stats = &cstats1;
    cfg.cache_stats = &estats1;
    (void)demand_scan(f.scenes[0], cfg);
  }
  for (const std::size_t threads : {4u, 8u}) {
    CascadeStats cstats;
    EncodeCacheStats estats;
    ParallelDetectConfig cfg = plane_cfg(threads, &cascade);
    cfg.cascade_stats = &cstats;
    cfg.cache_stats = &estats;
    (void)demand_scan(f.scenes[0], cfg);
    expect_cache_stats_equal(estats1, estats);
    EXPECT_EQ(cstats1.prescreen_entered, cstats.prescreen_entered);
    EXPECT_EQ(cstats1.prescreen_rejected, cstats.prescreen_rejected);
    EXPECT_EQ(cstats1.windows, cstats.windows);
    EXPECT_EQ(cstats1.exact_scored, cstats.exact_scored);
  }
}

// Accounting scans run the fused kernel now, and it charges the reference
// chain's counts: the demand-set scan's op totals equal the full-plane
// scan's whenever both encode the same cells (no prescreen here), at every
// thread count.
TEST(DemandPlane, OpTotalsMatchFullPlaneScan) {
  auto& f = fixture();
  const Cascade cascade(f.pipeline.classifier(), f.table);
  for (const Cascade* c : {static_cast<const Cascade*>(nullptr), &cascade}) {
    core::OpCounter full_ops;
    ParallelDetectConfig full_cfg = plane_cfg(1, c);
    full_cfg.feature_counter = &full_ops;
    (void)full_plane_scan(f.scenes[0], full_cfg);
    ASSERT_GT(full_ops.total(), 0u);
    for (const std::size_t threads : {1u, 4u, 8u}) {
      core::OpCounter ops;
      ParallelDetectConfig cfg = plane_cfg(threads, c);
      cfg.feature_counter = &ops;
      (void)demand_scan(f.scenes[0], cfg);
      for (std::size_t k = 0; k < core::kOpKindCount; ++k) {
        EXPECT_EQ(ops.counts[k], full_ops.counts[k])
            << op_kind_name(static_cast<core::OpKind>(k)) << " at " << threads
            << " threads";
      }
    }
  }
}

// A 68-wide scene at window 16, stride 8 has a 17-column plane (grid step
// 4), but the last window starts at x = 48 and reads columns 12..15: column
// 16 is read by no window. The demand set leaves it unfilled — so the scan
// computes, and charges ops for, fewer cells than the full plane — and the
// map is unchanged.
TEST(DemandPlane, PlaneMarginNoWindowReadsStaysUnfilled) {
  auto& f = fixture();
  const image::Image scene = cascade_calibration_scenes(
      1, LazyFixture::kWindow, 68, 48, 1, 0xA11CE)[0];
  const Cascade cascade(f.pipeline.classifier(), f.table);
  const Cascade prescreen(f.pipeline.classifier(), f.prescreen_table);
  for (const Cascade* c : {static_cast<const Cascade*>(nullptr), &cascade,
                           &prescreen}) {
    for (const std::size_t threads : {1u, 4u}) {
      SCOPED_TRACE(testing::Message()
                   << threads << " threads, cascade " << (c != nullptr));
      EncodeCacheStats stats;
      core::OpCounter ops;
      ParallelDetectConfig cfg = plane_cfg(threads, c);
      cfg.cache_stats = &stats;
      cfg.feature_counter = &ops;
      const auto demand = demand_scan(scene, cfg);

      core::OpCounter full_ops;
      ParallelDetectConfig full_cfg = plane_cfg(threads, c);
      full_cfg.feature_counter = &full_ops;
      expect_maps_identical(full_plane_scan(scene, full_cfg), demand);

      EXPECT_EQ(stats.cells_total, 17u * 12u);
      EXPECT_LT(stats.cells_computed, stats.cells_total);
      if (c != &prescreen) {
        // Every window survives: the demand set is every column but the
        // last, on every row.
        EXPECT_EQ(stats.cells_computed, 16u * 12u);
      }
      EXPECT_LT(ops.total(), full_ops.total());
    }
  }
}

// --- facade ------------------------------------------------------------------

TEST(LazyPlane, FacadeLazyMatchesEagerAndFillsTelemetry) {
  auto& f = fixture();
  api::Detector det(
      std::shared_ptr<HdFacePipeline>(&f.pipeline, [](HdFacePipeline*) {}),
      LazyFixture::kWindow);
  api::DetectOptions opts;
  opts.threads = 4;
  opts.stride = LazyFixture::kStride;
  opts.cascade = CascadeConfig{CascadeMode::kCalibrated, f.prescreen_table};
  EncodeCacheStats cache;
  CascadeStats cascade_stats;
  api::Telemetry telemetry;
  telemetry.encode_cache = &cache;
  telemetry.cascade = &cascade_stats;
  opts.telemetry = telemetry;
  const auto map = det.detect_map(f.scenes[0], opts);

  const Cascade cascade(f.pipeline.classifier(), f.prescreen_table);
  expect_maps_identical(full_plane_scan(f.scenes[0], plane_cfg(4, &cascade)),
                        map);
  EXPECT_GT(cache.cells_total, 0u);
  EXPECT_LE(cache.cells_computed, cache.cells_total);
  EXPECT_EQ(cascade_stats.prescreen_entered, map.predictions.size());
}

TEST(LazyPlane, MultiscaleLazyMatchesEager) {
  auto& f = fixture();
  // The facade's pyramid scan equals MultiScaleDetector's merge of per-level
  // full-plane maps: both run the same per-level engine and merge.
  api::Detector det(
      std::shared_ptr<HdFacePipeline>(&f.pipeline, [](HdFacePipeline*) {}),
      LazyFixture::kWindow);
  api::DetectOptions opts;
  opts.threads = 4;
  opts.stride = LazyFixture::kStride;
  opts.scales = {1.0, 0.5};
  const auto boxes = det.detect(f.scenes[0], opts);

  const ScalePyramid pyramid =
      build_pyramid(f.scenes[0], LazyFixture::kWindow, opts.scales);
  std::vector<Detection> all;
  for (std::size_t level = 0; level < pyramid.levels.size(); ++level) {
    auto cfg = plane_cfg(4);
    cfg.scale_index = level;
    const auto map = full_plane_scan(pyramid.levels[level], cfg);
    for (const Detection& d : map_detections(map, 1, 0.0, 2.0)) {
      const auto up = [&](std::size_t v) {
        return static_cast<std::size_t>(std::lround(
            static_cast<double>(v) / pyramid.scales[level]));
      };
      all.push_back({up(d.x), up(d.y), up(d.size), d.score});
    }
  }
  auto expected = non_max_suppression(std::move(all), 0.3);
  std::sort(expected.begin(), expected.end(), detection_before);
  ASSERT_EQ(boxes.size(), expected.size());
  for (std::size_t i = 0; i < boxes.size(); ++i) {
    EXPECT_EQ(boxes[i].x, expected[i].x) << "box " << i;
    EXPECT_EQ(boxes[i].y, expected[i].y) << "box " << i;
    EXPECT_EQ(boxes[i].size, expected[i].size) << "box " << i;
    EXPECT_EQ(boxes[i].score, expected[i].score) << "box " << i;
  }
}

// --- threshold-table serialization: v1 stability, v2 round-trip --------------

TEST(CascadeTableText, PrescreenFreeTablesKeepV1Bytes) {
  auto& f = fixture();
  ASSERT_EQ(f.table.prescreen_words, 0u);
  const std::string text = cascade_table_to_text(f.table);
  // A table with no prescreen serializes in the v1 dialect — old readers
  // keep working, and the bytes carry no prescreen line at all.
  EXPECT_NE(text.find("hdface-cascade-table v1\n"), std::string::npos);
  EXPECT_EQ(text.find("prescreen"), std::string::npos);
  const CascadeTable parsed = cascade_table_from_text(text);
  EXPECT_EQ(parsed.prescreen_words, 0u);
  EXPECT_EQ(cascade_table_to_text(parsed), text);
}

TEST(CascadeTableText, PrescreenTablesRoundTripAsV2) {
  auto& f = fixture();
  ASSERT_GT(f.prescreen_table.prescreen_words, 0u);
  const std::string text = cascade_table_to_text(f.prescreen_table);
  EXPECT_NE(text.find("hdface-cascade-table v2\n"), std::string::npos);
  EXPECT_NE(text.find("prescreen "), std::string::npos);
  const CascadeTable parsed = cascade_table_from_text(text);
  EXPECT_EQ(parsed.prescreen_words, f.prescreen_table.prescreen_words);
  EXPECT_EQ(parsed.prescreen_reject_below,
            f.prescreen_table.prescreen_reject_below);
  EXPECT_EQ(parsed.prescreen_vmax, f.prescreen_table.prescreen_vmax);
  EXPECT_EQ(parsed.prescreen_spread_below,
            f.prescreen_table.prescreen_spread_below);
  ASSERT_EQ(parsed.stages.size(), f.prescreen_table.stages.size());
  for (std::size_t s = 0; s < parsed.stages.size(); ++s) {
    EXPECT_EQ(parsed.stages[s].words, f.prescreen_table.stages[s].words);
    EXPECT_EQ(parsed.stages[s].reject_below,
              f.prescreen_table.stages[s].reject_below);
  }
  EXPECT_EQ(cascade_table_to_text(parsed), text);
}

}  // namespace
}  // namespace hdface::pipeline

namespace hdface::hog {
namespace {

constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();

// --- window_on_grid overflow hardening --------------------------------------

TEST(CellPlaneGeometry, WindowOnGridAcceptsInBoundsWindows) {
  const CellPlane plane = make_cell_plane_geometry(64, 48, 4, 8, 4, 0);
  EXPECT_TRUE(plane.window_on_grid(0, 0, 4, 4));
  EXPECT_TRUE(plane.window_on_grid(48, 32, 4, 4));  // last 16px window
  EXPECT_FALSE(plane.window_on_grid(52, 32, 4, 4)); // falls off the right edge
  EXPECT_FALSE(plane.window_on_grid(2, 0, 4, 4));   // off-grid origin
  EXPECT_FALSE(plane.window_on_grid(0, 0, 0, 4));   // degenerate extent
}

TEST(CellPlaneGeometry, WindowOnGridRejectsOverflowingOriginInsteadOfWrapping) {
  const CellPlane plane = make_cell_plane_geometry(64, 48, 4, 8, 4, 0);
  // SIZE_MAX − 3 is a multiple of grid_step 4; origin + cells·cell_size wraps
  // to a tiny value, which an unchecked far-corner computation would read as
  // "inside the plane". The contract is rejection, never acceptance-by-wrap.
  const std::size_t wrapping_origin = kMax - 3;
  ASSERT_EQ(wrapping_origin % 4, 0u);
  EXPECT_FALSE(plane.window_on_grid(wrapping_origin, 0, 1, 1));
  EXPECT_FALSE(plane.window_on_grid(0, wrapping_origin, 1, 1));
  EXPECT_FALSE(plane.window_on_grid(wrapping_origin, wrapping_origin, 1, 1));
}

TEST(CellPlaneGeometry, WindowOnGridRejectsOverflowingExtentInsteadOfWrapping) {
  const CellPlane plane = make_cell_plane_geometry(64, 48, 4, 8, 4, 0);
  // cells · cell_size alone overflows 64-bit; wrapped arithmetic would fold
  // these extents back onto the plane.
  EXPECT_FALSE(plane.window_on_grid(0, 0, kMax / 4 + 1, 1));
  EXPECT_FALSE(plane.window_on_grid(0, 0, 1, kMax / 4 + 1));
  EXPECT_FALSE(plane.window_on_grid(0, 0, kMax, kMax));
  // origin + (cells · cell_size) overflows even though each factor fits.
  EXPECT_FALSE(plane.window_on_grid(60, 0, (kMax - 60) / 4, 1));
}

// --- fused batched kernel vs the reference per-pixel chain -------------------

std::vector<core::kernels::Backend> usable_backends() {
  std::vector<core::kernels::Backend> out;
  for (const core::kernels::KernelTable* t : core::kernels::compiled_tables()) {
    if (core::kernels::backend_supported(t->backend)) out.push_back(t->backend);
  }
  return out;
}

image::Image random_image(std::size_t w, std::size_t h, unsigned seed) {
  std::mt19937 gen(seed);
  std::uniform_real_distribution<float> dist(0.0f, 1.0f);
  image::Image img(w, h);
  for (auto& p : img.pixels()) p = dist(gen);
  return img;
}

TEST(FusedCellKernel, BitIdenticalToReferenceChain) {
  core::StochasticContext ctx(1024, 0xABCD);
  ctx.warm_pool();
  ASSERT_TRUE(ctx.pooled_fast_path());
  HdHogConfig cfg;
  cfg.hog.cell_size = 4;
  cfg.hog.bins = 8;
  // Faithful mode is what arms the fused dispatch; anything else would make
  // this test compare the reference chain against itself.
  ASSERT_EQ(cfg.mode, HdHogMode::kFaithful);
  const HdHogExtractor hd(ctx, cfg, 16, 16);

  const image::Image img = random_image(16, 16, 7);
  const LevelIndexPlane levels = build_level_index_plane(img, hd.item_memory());

  double reference[8];
  double fused[8];
  double fused_with_levels[8];
  for (std::size_t cy = 0; cy < 3; ++cy) {
    for (std::size_t cx = 0; cx < 3; ++cx) {
      // Identical reseed per variant: any difference is the implementation,
      // not the stream.
      const std::uint64_t seed = 0x1234 + cx * 17 + cy;
      auto ref_ctx = ctx.fork(seed);
      hd.cell_raw_values_reference(img, cx * 4, cy * 4, ref_ctx, reference);
      auto fused_ctx = ctx.fork(seed);
      hd.cell_raw_values(img, nullptr, cx * 4, cy * 4, fused_ctx, fused);
      auto plane_ctx = ctx.fork(seed);
      hd.cell_raw_values(img, &levels, cx * 4, cy * 4, plane_ctx,
                         fused_with_levels);
      for (std::size_t b = 0; b < 8; ++b) {
        EXPECT_EQ(reference[b], fused[b])
            << "cell (" << cx << "," << cy << ") bin " << b;
        EXPECT_EQ(reference[b], fused_with_levels[b])
            << "cell (" << cx << "," << cy << ") bin " << b << " (levels)";
      }
    }
  }
}

// The fused kernel charges the op counter itself, and the charges are the
// reference chain's: per-cell totals are equal kind by kind, on random
// scenes (every cell of each, so flat and busy cells, early and late sqrt
// breaks and repeat bin hits all occur), on every usable kernel backend.
TEST(FusedCellKernel, ChargesMatchReferenceChain) {
  HdHogConfig cfg;
  cfg.hog.cell_size = 4;
  cfg.hog.bins = 8;
  ASSERT_EQ(cfg.mode, HdHogMode::kFaithful);
  for (const auto backend : usable_backends()) {
    const core::kernels::ScopedBackend forced(backend);
    for (const std::size_t dim : {1024u, 2048u}) {
      core::StochasticContext ctx(dim, 0xC0FFEE + dim);
      ctx.warm_pool();
      ASSERT_TRUE(ctx.pooled_fast_path());
      const HdHogExtractor hd(ctx, cfg, 16, 16);
      for (const unsigned scene_seed : {3u, 29u}) {
        SCOPED_TRACE(std::string(core::kernels::backend_name(backend)) +
                     " dim " + std::to_string(dim) + " scene " +
                     std::to_string(scene_seed));
        image::Image img = random_image(24, 20, scene_seed);
        // A flat patch: zero gradients park every pixel in one bin.
        for (std::size_t y = 0; y < 8; ++y) {
          for (std::size_t x = 0; x < 8; ++x) img.at(x, y) = 0.5f;
        }
        const LevelIndexPlane levels =
            build_level_index_plane(img, hd.item_memory());
        for (std::size_t y0 = 0; y0 + 4 <= img.height(); y0 += 4) {
          for (std::size_t x0 = 0; x0 + 4 <= img.width(); x0 += 4) {
            const std::uint64_t seed = cell_plane_seed(scene_seed, 0, x0, y0);
            core::OpCounter ref_ops;
            core::OpCounter fused_ops;
            auto ref_ctx = ctx.fork(seed);
            ref_ctx.set_counter(&ref_ops);
            auto fused_ctx = ctx.fork(seed);
            fused_ctx.set_counter(&fused_ops);
            double reference[8];
            double fused[8];
            hd.cell_raw_values_reference(img, x0, y0, ref_ctx, reference);
            hd.cell_raw_values(img, &levels, x0, y0, fused_ctx, fused);
            ASSERT_GT(ref_ops.total(), 0u);
            for (std::size_t k = 0; k < core::kOpKindCount; ++k) {
              EXPECT_EQ(fused_ops.counts[k], ref_ops.counts[k])
                  << op_kind_name(static_cast<core::OpKind>(k)) << " at ("
                  << x0 << "," << y0 << ")";
            }
            for (std::size_t b = 0; b < 8; ++b) {
              EXPECT_EQ(reference[b], fused[b])
                  << "(" << x0 << "," << y0 << ") bin " << b;
            }
          }
        }
      }
    }
  }
}

TEST(LevelIndexPlane, MatchesOnTheFlyQuantization) {
  core::StochasticContext ctx(512, 0x77);
  ctx.warm_pool();
  HdHogConfig cfg;
  cfg.hog.cell_size = 4;
  cfg.hog.bins = 8;
  const HdHogExtractor hd(ctx, cfg, 16, 16);
  const image::Image img = random_image(20, 12, 11);
  const LevelIndexPlane levels = build_level_index_plane(img, hd.item_memory());
  ASSERT_EQ(levels.width, img.width());
  ASSERT_EQ(levels.height, img.height());
  for (std::size_t y = 0; y < img.height(); ++y) {
    for (std::size_t x = 0; x < img.width(); ++x) {
      EXPECT_EQ(levels.at_clamped(static_cast<std::ptrdiff_t>(x),
                                  static_cast<std::ptrdiff_t>(y)),
                hd.item_memory().index_of(static_cast<double>(img.at(x, y))))
          << "(" << x << "," << y << ")";
    }
  }
  // Clamping mirrors the gradient operator's edge handling.
  EXPECT_EQ(levels.at_clamped(static_cast<std::ptrdiff_t>(img.width()) + 5, 3),
            levels.at_clamped(static_cast<std::ptrdiff_t>(img.width()) - 1, 3));
}

}  // namespace
}  // namespace hdface::hog
