// Lazy-vs-eager plane property suite (DESIGN.md §14): a lazy scan is a pure
// scheduling choice — DetectionMaps are bit-identical to the eager plane at
// every thread count, with the cascade on or off, with and without the
// prescreen, and through the facade/multiscale paths. On top of identity the
// suite pins the lazy win itself (a prescreen-rejected region leaves cells
// unmaterialized), the exactness and thread-invariance of the new
// EncodeCacheStats fields, prescreen calibration's zero-false-reject
// contract, and the v1/v2 threshold-table serialization (v1 bytes are stable
// when no prescreen is calibrated).
//
// The fixture trains in kFaithful HD-HOG mode on purpose: that is the mode
// whose plane builds dispatch the fused batched cell kernel, so every
// identity below also exercises fused-vs-fused determinism under threads.

#include "pipeline/parallel_detect.hpp"

#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/detector.hpp"
#include "dataset/face_generator.hpp"
#include "hog/cell_plane.hpp"
#include "pipeline/cascade.hpp"
#include "pipeline/multiscale.hpp"

namespace hdface::pipeline {
namespace {

HdFaceConfig lazy_test_config() {
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
// a prescreen-carrying table, and golden eager-exact maps — shared by every
// test (training + calibration dominate the suite's runtime).
struct LazyFixture {
  static constexpr std::size_t kWindow = 16;
  static constexpr std::size_t kStride = 8;

  LazyFixture() : pipeline(lazy_test_config(), kWindow, kWindow, 2) {
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

ParallelDetectConfig plane_cfg(std::size_t threads, PlaneMode mode,
                               const Cascade* cascade = nullptr) {
  ParallelDetectConfig cfg;
  cfg.threads = threads;
  cfg.min_chunk = 1;  // force real chunking at small scene sizes
  cfg.plane_mode = mode;
  cfg.cascade = cascade;
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

void expect_cache_stats_equal(const EncodeCacheStats& a,
                              const EncodeCacheStats& b) {
  EXPECT_EQ(a.cells_computed, b.cells_computed);
  EXPECT_EQ(a.cells_total, b.cells_total);
  EXPECT_EQ(a.cells_forced_prescreen, b.cells_forced_prescreen);
  EXPECT_EQ(a.ensure_checks, b.ensure_checks);
  EXPECT_EQ(a.slot_reads, b.slot_reads);
  EXPECT_EQ(a.windows_assembled, b.windows_assembled);
}

// --- bit-identity: lazy is a pure scheduling choice --------------------------

TEST(LazyPlane, BitIdenticalToEagerWithoutCascadeAtEveryThreadCount) {
  auto& f = fixture();
  for (const std::size_t threads : {1u, 4u, 8u}) {
    for (std::size_t i = 0; i < f.scenes.size(); ++i) {
      const auto lazy = detect_windows_parallel(
          f.pipeline, f.scenes[i], LazyFixture::kWindow, LazyFixture::kStride,
          1, plane_cfg(threads, PlaneMode::kLazy));
      expect_maps_identical(f.golden[i], lazy);
    }
  }
}

TEST(LazyPlane, BitIdenticalToEagerUnderCascadeAtEveryThreadCount) {
  auto& f = fixture();
  for (const CascadeTable* table : {&f.table, &f.prescreen_table}) {
    const Cascade cascade(f.pipeline.classifier(), *table);
    // One eager reference per scene; lazy at several thread counts must
    // reproduce it bit for bit (including prescreen-rejected verdicts).
    for (std::size_t i = 0; i < f.scenes.size(); ++i) {
      const auto eager = detect_windows_parallel(
          f.pipeline, f.scenes[i], LazyFixture::kWindow, LazyFixture::kStride,
          1, plane_cfg(1, PlaneMode::kEager, &cascade));
      for (const std::size_t threads : {1u, 4u, 8u}) {
        const auto lazy = detect_windows_parallel(
            f.pipeline, f.scenes[i], LazyFixture::kWindow, LazyFixture::kStride,
            1, plane_cfg(threads, PlaneMode::kLazy, &cascade));
        expect_maps_identical(eager, lazy);
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
    ParallelDetectConfig cfg = plane_cfg(1, PlaneMode::kLazy, &cascade);
    cfg.cascade_stats = &stats;
    const auto map = detect_windows_parallel(
        f.pipeline, f.scenes[i], LazyFixture::kWindow, LazyFixture::kStride, 1,
        cfg);
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

// --- the lazy win: rejected regions stay unmaterialized ----------------------

TEST(LazyPlane, PrescreenRejectedRegionsLeaveCellsUnmaterialized) {
  auto& f = fixture();
  // A scene the prescreen can actually prune: flat background (zero gradient
  // parks every cell's histogram mass in bin 0, so the orientation-spread
  // floor fires) with one face pasted into the left half. Windows away from
  // the face are prescreen-rejected, and a rejected window forces nothing
  // beyond the parity subgrid — the right half's off-parity cells must never
  // materialize.
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
  const Cascade cascade(f.pipeline.classifier(), f.prescreen_table);
  CascadeStats cstats;
  EncodeCacheStats estats;
  ParallelDetectConfig cfg = plane_cfg(1, PlaneMode::kLazy, &cascade);
  cfg.cascade_stats = &cstats;
  cfg.cache_stats = &estats;
  (void)detect_windows_parallel(f.pipeline, scene, LazyFixture::kWindow,
                                LazyFixture::kStride, 1, cfg);
  ASSERT_GT(cstats.prescreen_rejected, 0u);
  // ...and cells belonging only to rejected windows are never encoded. The
  // parity subgrid is what the prescreen itself forces.
  EXPECT_LT(estats.cells_computed, estats.cells_total);
  EXPECT_GT(estats.cells_forced_prescreen, 0u);
  EXPECT_LE(estats.cells_forced_prescreen, estats.cells_computed);
  // 64×48 scene, grid_step 4 → 16×12 cells, even/even subgrid 8×6.
  EXPECT_EQ(estats.cells_total, 16u * 12u);
  EXPECT_LE(estats.cells_forced_prescreen, 8u * 6u);
  // Every probe either materialized a cell or hit one.
  EXPECT_GE(estats.ensure_checks, estats.cells_computed);
}

// --- stats: exact and thread-invariant ---------------------------------------

TEST(LazyPlane, CacheStatsExactWithoutCascade) {
  auto& f = fixture();
  EncodeCacheStats stats;
  ParallelDetectConfig cfg = plane_cfg(1, PlaneMode::kLazy);
  cfg.cache_stats = &stats;
  (void)detect_windows_parallel(f.pipeline, f.scenes[0], LazyFixture::kWindow,
                                LazyFixture::kStride, 1, cfg);
  // 64×48 scene, 16px window, stride 8 → 7×5 = 35 windows; grid_step
  // gcd(8, 4) = 4 → 16×12 = 192 cells; 4×4 cells of 8 bins per window.
  EXPECT_EQ(stats.windows_assembled, 35u);
  EXPECT_EQ(stats.cells_total, 192u);
  // No cascade: every window reads all its cells, so the whole plane
  // materializes (the scan grid covers every cell at this geometry)...
  EXPECT_EQ(stats.cells_computed, 192u);
  EXPECT_EQ(stats.cells_forced_prescreen, 0u);
  // ...through one gate probe per (window, cell) pair and one slot read per
  // (window, cell, bin).
  EXPECT_EQ(stats.ensure_checks, 35u * 16u);
  EXPECT_EQ(stats.slot_reads, 35u * 16u * 8u);
}

TEST(LazyPlane, StatsThreadInvariantUnderPrescreenCascade) {
  auto& f = fixture();
  const Cascade cascade(f.pipeline.classifier(), f.prescreen_table);
  CascadeStats cstats1;
  EncodeCacheStats estats1;
  {
    ParallelDetectConfig cfg = plane_cfg(1, PlaneMode::kLazy, &cascade);
    cfg.cascade_stats = &cstats1;
    cfg.cache_stats = &estats1;
    (void)detect_windows_parallel(f.pipeline, f.scenes[0], LazyFixture::kWindow,
                                  LazyFixture::kStride, 1, cfg);
  }
  for (const std::size_t threads : {4u, 8u}) {
    CascadeStats cstats;
    EncodeCacheStats estats;
    ParallelDetectConfig cfg = plane_cfg(threads, PlaneMode::kLazy, &cascade);
    cfg.cascade_stats = &cstats;
    cfg.cache_stats = &estats;
    (void)detect_windows_parallel(f.pipeline, f.scenes[0], LazyFixture::kWindow,
                                  LazyFixture::kStride, 1, cfg);
    expect_cache_stats_equal(estats1, estats);
    EXPECT_EQ(cstats1.prescreen_entered, cstats.prescreen_entered);
    EXPECT_EQ(cstats1.prescreen_rejected, cstats.prescreen_rejected);
    EXPECT_EQ(cstats1.windows, cstats.windows);
    EXPECT_EQ(cstats1.exact_scored, cstats.exact_scored);
  }
}

// --- facade and multiscale ---------------------------------------------------

TEST(LazyPlane, FacadeLazyMatchesEagerAndFillsTelemetry) {
  auto& f = fixture();
  api::Detector det(
      std::shared_ptr<HdFacePipeline>(&f.pipeline, [](HdFacePipeline*) {}),
      LazyFixture::kWindow);
  api::DetectOptions opts;
  opts.threads = 4;
  opts.stride = LazyFixture::kStride;
  opts.cascade = CascadeConfig{CascadeMode::kCalibrated, f.prescreen_table};

  const auto eager_map = det.detect_map(f.scenes[0], opts);

  opts.plane_mode = PlaneMode::kLazy;
  EncodeCacheStats cache;
  CascadeStats cascade_stats;
  api::Telemetry telemetry;
  telemetry.encode_cache = &cache;
  telemetry.cascade = &cascade_stats;
  opts.telemetry = telemetry;
  const auto lazy_map = det.detect_map(f.scenes[0], opts);

  expect_maps_identical(eager_map, lazy_map);
  EXPECT_GT(cache.cells_total, 0u);
  EXPECT_LE(cache.cells_computed, cache.cells_total);
  EXPECT_EQ(cascade_stats.prescreen_entered, lazy_map.predictions.size());
}

TEST(LazyPlane, MultiscaleLazyMatchesEager) {
  auto& f = fixture();
  api::Detector det(
      std::shared_ptr<HdFacePipeline>(&f.pipeline, [](HdFacePipeline*) {}),
      LazyFixture::kWindow);
  api::DetectOptions opts;
  opts.threads = 4;
  opts.stride = LazyFixture::kStride;
  opts.scales = {1.0, 0.5};

  const auto eager_boxes = det.detect(f.scenes[0], opts);
  opts.plane_mode = PlaneMode::kLazy;
  const auto lazy_boxes = det.detect(f.scenes[0], opts);
  ASSERT_EQ(eager_boxes.size(), lazy_boxes.size());
  for (std::size_t i = 0; i < eager_boxes.size(); ++i) {
    EXPECT_EQ(eager_boxes[i].x, lazy_boxes[i].x) << "box " << i;
    EXPECT_EQ(eager_boxes[i].y, lazy_boxes[i].y) << "box " << i;
    EXPECT_EQ(eager_boxes[i].size, lazy_boxes[i].size) << "box " << i;
    EXPECT_EQ(eager_boxes[i].score, lazy_boxes[i].score) << "box " << i;
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
