// Golden-parity regression suite for the early-reject cascade (DESIGN.md
// §13): staged assembly is bit-identical to one-shot assembly, prefix
// distances tile exactly, exact mode is bit-identical to the cascade-free
// scan at every thread count, calibrated mode reports zero false rejects on
// the calibration scenes with bit-identical survivors, calibration is
// byte-deterministic, and the threshold-table text form round-trips.

#include "pipeline/cascade.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/detector.hpp"
#include "dataset/face_generator.hpp"
#include "hog/cell_plane.hpp"
#include "noise/fault_model.hpp"
#include "pipeline/multiscale.hpp"
#include "pipeline/parallel_detect.hpp"

namespace hdface::pipeline {
namespace {

HdFaceConfig cascade_test_config() {
  HdFaceConfig c;
  c.dim = 1024;
  c.mode = HdFaceMode::kHdHog;
  c.hd_hog_mode = hog::HdHogMode::kDecodeShortcut;
  c.hog.cell_size = 4;
  c.hog.bins = 8;
  c.epochs = 5;
  return c;
}

// One trained pipeline in binary-inference mode plus calibration scenes,
// golden maps and a calibrated table, shared by every test (training and
// calibration dominate the suite's runtime).
struct CascadeFixture {
  static constexpr std::size_t kWindow = 16;
  static constexpr std::size_t kStride = 8;

  CascadeFixture() : pipeline(cascade_test_config(), kWindow, kWindow, 2) {
    dataset::FaceDatasetConfig data_cfg;
    data_cfg.num_samples = 60;
    data_cfg.image_size = kWindow;
    pipeline.fit(make_face_dataset(data_cfg));
    // The cascade's margin statistic lives in binarized-prototype Hamming
    // space; golden decisions must live there too (see bench/cascade.cpp).
    pipeline.mutable_classifier().set_binary_override(
        pipeline.classifier().binary_prototypes());

    scenes = cascade_calibration_scenes(2, kWindow, 64, 48, 1, 0x5EED);

    CascadeCalibrationConfig cc;
    cc.stage_fractions = {0.25, 0.5};
    cc.slack = 0.01;
    cc.window = kWindow;
    cc.stride = kStride;
    calibration = cc;
    table = calibrate_cascade(pipeline, scenes, cc);

    ParallelDetectConfig exact;
    exact.threads = 1;
    for (const auto& scene : scenes) {
      golden.push_back(
          detect_windows_parallel(pipeline, scene, kWindow, kStride, 1, exact));
    }
  }

  HdFacePipeline pipeline;
  std::vector<image::Image> scenes;
  CascadeCalibrationConfig calibration;
  CascadeTable table;
  std::vector<DetectionMap> golden;
};

CascadeFixture& fixture() {
  static CascadeFixture f;
  return f;
}

void expect_maps_identical(const DetectionMap& a, const DetectionMap& b) {
  ASSERT_EQ(a.steps_x, b.steps_x);
  ASSERT_EQ(a.steps_y, b.steps_y);
  for (std::size_t i = 0; i < a.predictions.size(); ++i) {
    EXPECT_EQ(a.predictions[i], b.predictions[i]) << "window " << i;
    EXPECT_EQ(a.scores[i], b.scores[i]) << "window " << i;
  }
}

void expect_stats_equal(const CascadeStats& a, const CascadeStats& b) {
  ASSERT_EQ(a.stages.size(), b.stages.size());
  for (std::size_t s = 0; s < a.stages.size(); ++s) {
    EXPECT_EQ(a.stages[s].entered, b.stages[s].entered) << "stage " << s;
    EXPECT_EQ(a.stages[s].rejected, b.stages[s].rejected) << "stage " << s;
  }
  EXPECT_EQ(a.windows, b.windows);
  EXPECT_EQ(a.exact_scored, b.exact_scored);
}

// --- staged assembly ---------------------------------------------------------

TEST(StagedWindow, MatchesOneShotAssemblyAtEveryPrefix) {
  auto& f = fixture();
  ParallelDetectConfig cfg;
  cfg.threads = 1;
  const auto plane = build_scene_cell_plane(f.pipeline, f.scenes[0], 4, cfg);
  const hog::HdHogExtractor& extractor = *f.pipeline.hd_extractor();
  hog::HdHogExtractor::StagedWindow win(extractor);
  const std::size_t total = win.total_words();
  ASSERT_GT(total, 2u);
  for (const auto& [x, y] : {std::pair<std::size_t, std::size_t>{0, 0},
                            {8, 0},
                            {16, 8},
                            {48, 32}}) {
    const core::Hypervector want =
        extractor.extract_from_plane(plane, x, y, nullptr);
    // Word-at-a-time staging and one-shot staging must both equal the
    // unstaged path bit for bit (shared tie-break RNG stream).
    win.reset(plane, x, y);
    for (std::size_t w = 1; w <= total; ++w) (void)win.assemble_to(w);
    EXPECT_EQ(win.feature(), want) << "incremental (" << x << "," << y << ")";
    win.reset(plane, x, y);
    EXPECT_EQ(win.assemble_to(total), want) << "one-shot (" << x << "," << y << ")";
  }
}

TEST(StagedWindow, OpChargesTileToTheUnstagedTotal) {
  auto& f = fixture();
  ParallelDetectConfig cfg;
  cfg.threads = 1;
  const auto plane = build_scene_cell_plane(f.pipeline, f.scenes[0], 4, cfg);
  const hog::HdHogExtractor& extractor = *f.pipeline.hd_extractor();
  core::OpCounter one_shot, staged;
  (void)extractor.extract_from_plane(plane, 8, 8, &one_shot);
  ASSERT_GT(one_shot.total(), 0u);
  hog::HdHogExtractor::StagedWindow win(extractor);
  win.reset(plane, 8, 8);
  (void)win.assemble_to(2, &staged);
  (void)win.assemble_to(win.total_words(), &staged);
  for (const auto kind :
       {core::OpKind::kWordLogic, core::OpKind::kIntAdd, core::OpKind::kRngWord}) {
    EXPECT_EQ(one_shot.get(kind), staged.get(kind))
        << core::op_kind_name(kind);
  }
}

TEST(StagedWindow, RejectsShrinkingAndOverlongPrefixes) {
  auto& f = fixture();
  ParallelDetectConfig cfg;
  cfg.threads = 1;
  const auto plane = build_scene_cell_plane(f.pipeline, f.scenes[0], 4, cfg);
  hog::HdHogExtractor::StagedWindow win(*f.pipeline.hd_extractor());
  win.reset(plane, 0, 0);
  (void)win.assemble_to(2);
  EXPECT_THROW((void)win.assemble_to(1), std::invalid_argument);
  EXPECT_THROW((void)win.assemble_to(win.total_words() + 1),
               std::invalid_argument);
}

TEST(Cascade, PrefixDistancesTileToFullHammingMany) {
  auto& f = fixture();
  const Cascade cascade(f.pipeline.classifier(), f.table);
  ParallelDetectConfig cfg;
  cfg.threads = 1;
  const auto plane = build_scene_cell_plane(f.pipeline, f.scenes[0], 4, cfg);
  hog::HdHogExtractor::StagedWindow win(*f.pipeline.hd_extractor());
  win.reset(plane, 16, 16);
  const std::size_t total = win.total_words();
  const core::Hypervector& feature = win.assemble_to(total);
  const auto full = cascade.prototypes().hamming_many(feature);
  // Uneven ascending tiling of [0, total) accumulates to the full distances.
  std::vector<std::size_t> cum(full.size(), 0), part(full.size());
  const std::size_t cuts[] = {0, 1, 3, total / 2, total};
  for (std::size_t s = 0; s + 1 < std::size(cuts); ++s) {
    if (cuts[s] == cuts[s + 1]) continue;
    cascade.prototypes().hamming_many_range(feature, cuts[s], cuts[s + 1],
                                            part);
    for (std::size_t c = 0; c < cum.size(); ++c) cum[c] += part[c];
  }
  EXPECT_EQ(cum, full);
  // A prefix distance can never exceed the full distance (monotone
  // consistency: distances only accumulate).
  std::vector<std::size_t> prefix(full.size());
  cascade.prototypes().hamming_many_range(feature, 0, total / 2, prefix);
  for (std::size_t c = 0; c < full.size(); ++c) {
    EXPECT_LE(prefix[c], full[c]) << "class " << c;
  }
}

// --- exact mode --------------------------------------------------------------

TEST(Cascade, ExactModeBitIdenticalToGoldenMapsAtEveryThreadCount) {
  auto& f = fixture();
  // Exact mode = null engine cascade: the facade maps CascadeMode::kExact to
  // exactly this config, so the scan runs the pre-cascade path untouched.
  for (const std::size_t threads : {1u, 4u, 8u}) {
    ParallelDetectConfig cfg;
    cfg.threads = threads;
    for (std::size_t i = 0; i < f.scenes.size(); ++i) {
      const auto map = detect_windows_parallel(
          f.pipeline, f.scenes[i], CascadeFixture::kWindow,
          CascadeFixture::kStride, 1, cfg);
      expect_maps_identical(f.golden[i], map);
    }
  }
}

TEST(Cascade, ExactModeThroughFacadeMatchesAndLeavesStatsUntouched) {
  auto& f = fixture();
  api::Detector det(
      std::shared_ptr<HdFacePipeline>(&f.pipeline, [](HdFacePipeline*) {}),
      CascadeFixture::kWindow);
  api::DetectOptions opts;
  opts.threads = 1;
  opts.stride = CascadeFixture::kStride;
  opts.cascade = CascadeConfig{CascadeMode::kExact, f.table};
  CascadeStats stats;
  api::Telemetry telemetry;
  telemetry.cascade = &stats;
  opts.telemetry = telemetry;
  const auto map = det.detect_map(f.scenes[0], opts);
  expect_maps_identical(f.golden[0], map);
  EXPECT_TRUE(stats.stages.empty());
  EXPECT_EQ(stats.windows, 0u);
}

// --- calibrated mode ---------------------------------------------------------

TEST(Cascade, CalibratedModeZeroFalseRejectsAndBitIdenticalSurvivors) {
  auto& f = fixture();
  const Cascade cascade(f.pipeline.classifier(), f.table);
  for (std::size_t i = 0; i < f.scenes.size(); ++i) {
    ParallelDetectConfig cfg;
    cfg.threads = 1;
    cfg.cascade = &cascade;
    CascadeStats stats;
    cfg.cascade_stats = &stats;
    const auto map = detect_windows_parallel(
        f.pipeline, f.scenes[i], CascadeFixture::kWindow,
        CascadeFixture::kStride, 1, cfg);
    std::size_t positives = 0;
    for (std::size_t idx = 0; idx < map.predictions.size(); ++idx) {
      if (f.golden[i].predictions[idx] == 1) {
        ++positives;
        // Zero false rejects on the calibration scenes, by construction of
        // the thresholds — and survivors are bit-identical to the exact scan.
        EXPECT_EQ(map.predictions[idx], 1) << "scene " << i << " window " << idx;
        EXPECT_EQ(map.scores[idx], f.golden[i].scores[idx])
            << "scene " << i << " window " << idx;
      }
    }
    EXPECT_GT(positives, 0u) << "scene " << i;
    EXPECT_EQ(stats.windows, map.predictions.size());
    ASSERT_EQ(stats.stages.size(), f.table.stages.size());
    const std::size_t rejected = std::accumulate(
        stats.stages.begin(), stats.stages.end(), std::size_t{0},
        [](std::size_t acc, const CascadeStageCounters& c) {
          return acc + c.rejected;
        });
    EXPECT_EQ(stats.exact_scored + rejected, stats.windows);
    EXPECT_EQ(stats.stages.front().entered, stats.windows);
  }
}

TEST(Cascade, CalibratedMapAndStatsAreThreadCountInvariant) {
  auto& f = fixture();
  const Cascade cascade(f.pipeline.classifier(), f.table);
  DetectionMap base;
  CascadeStats base_stats;
  for (const std::size_t threads : {1u, 4u, 8u}) {
    ParallelDetectConfig cfg;
    cfg.threads = threads;
    cfg.cascade = &cascade;
    CascadeStats stats;
    cfg.cascade_stats = &stats;
    const auto map = detect_windows_parallel(
        f.pipeline, f.scenes[0], CascadeFixture::kWindow,
        CascadeFixture::kStride, 1, cfg);
    if (threads == 1u) {
      base = map;
      base_stats = stats;
    } else {
      expect_maps_identical(base, map);
      expect_stats_equal(base_stats, stats);
    }
  }
}

TEST(Cascade, ScanOnPrebuiltPlaneMatchesEndToEnd) {
  auto& f = fixture();
  // bench/cascade's plane-amortized decomposition leans on this contract:
  // the scan stage over a prebuilt plane — exact and cascaded — reproduces
  // the end-to-end kCellPlane scan bit-for-bit.
  ParallelDetectConfig cfg;
  cfg.threads = 1;
  const std::size_t cell = f.pipeline.config().hog.cell_size;
  const std::size_t grid_step = std::gcd(CascadeFixture::kStride, cell);
  const hog::CellPlane plane =
      build_scene_cell_plane(f.pipeline, f.scenes[0], grid_step, cfg);

  const auto exact_on_plane = detect_windows_on_plane(
      f.pipeline, f.scenes[0], plane, CascadeFixture::kWindow,
      CascadeFixture::kStride, 1, cfg);
  expect_maps_identical(f.golden[0], exact_on_plane);

  const Cascade cascade(f.pipeline.classifier(), f.table);
  ParallelDetectConfig cascaded_cfg = cfg;
  cascaded_cfg.cascade = &cascade;
  CascadeStats end_to_end_stats;
  cascaded_cfg.cascade_stats = &end_to_end_stats;
  const auto end_to_end = detect_windows_parallel(
      f.pipeline, f.scenes[0], CascadeFixture::kWindow, CascadeFixture::kStride,
      1, cascaded_cfg);
  CascadeStats on_plane_stats;
  cascaded_cfg.cascade_stats = &on_plane_stats;
  const auto cascaded_on_plane = detect_windows_on_plane(
      f.pipeline, f.scenes[0], plane, CascadeFixture::kWindow,
      CascadeFixture::kStride, 1, cascaded_cfg);
  expect_maps_identical(end_to_end, cascaded_on_plane);
  expect_stats_equal(end_to_end_stats, on_plane_stats);
}

TEST(Cascade, ScanOnPlaneRejectsIncompatiblePlanes) {
  auto& f = fixture();
  ParallelDetectConfig cfg;
  cfg.threads = 1;
  const std::size_t cell = f.pipeline.config().hog.cell_size;
  const std::size_t bins = f.pipeline.config().hog.bins;
  // Wrong bin count: shape mismatch against the extractor.
  const hog::CellPlane wrong_bins = hog::make_cell_plane_geometry(
      f.scenes[0].width(), f.scenes[0].height(), cell, bins + 1, cell, 0);
  EXPECT_THROW((void)detect_windows_on_plane(
                   f.pipeline, f.scenes[0], wrong_bins, CascadeFixture::kWindow,
                   CascadeFixture::kStride, 1, cfg),
               std::invalid_argument);
  // A plane built over a smaller scene cannot cover the scan grid.
  const hog::CellPlane undersized = hog::make_cell_plane_geometry(
      CascadeFixture::kWindow, CascadeFixture::kWindow, cell, bins, cell, 0);
  EXPECT_THROW((void)detect_windows_on_plane(
                   f.pipeline, f.scenes[0], undersized, CascadeFixture::kWindow,
                   CascadeFixture::kStride, 1, cfg),
               std::invalid_argument);
  // A stride off the plane's grid would put window origins between cells.
  const hog::CellPlane coarse = hog::make_cell_plane_geometry(
      f.scenes[0].width(), f.scenes[0].height(), cell, bins, cell, 0);
  EXPECT_THROW(
      (void)detect_windows_on_plane(f.pipeline, f.scenes[0], coarse,
                                    CascadeFixture::kWindow, cell + 2, 1, cfg),
      std::invalid_argument);
}

TEST(Cascade, RejectEverythingTableShortCircuitsAllWindows) {
  auto& f = fixture();
  CascadeTable reject_all = f.table;
  // No margin can reach +2, so stage 0 rejects every window: nothing is
  // exact-scored and no window can be predicted positive.
  reject_all.stages = {{f.table.stages.front().words, 2.0}};
  const Cascade cascade(f.pipeline.classifier(), reject_all);
  ParallelDetectConfig cfg;
  cfg.threads = 1;
  cfg.cascade = &cascade;
  CascadeStats stats;
  cfg.cascade_stats = &stats;
  const auto map = detect_windows_parallel(f.pipeline, f.scenes[0],
                                           CascadeFixture::kWindow,
                                           CascadeFixture::kStride, 1, cfg);
  EXPECT_EQ(stats.exact_scored, 0u);
  EXPECT_EQ(stats.stages.front().rejected, stats.windows);
  for (std::size_t idx = 0; idx < map.predictions.size(); ++idx) {
    EXPECT_NE(map.predictions[idx], 1) << "window " << idx;
  }
}

TEST(Cascade, MultiscalePerScaleStatsMergeToTheScanTotal) {
  auto& f = fixture();
  const Cascade cascade(f.pipeline.classifier(), f.table);
  MultiScaleConfig ms;
  ms.scales = {1.0, 0.5};
  ms.stride = CascadeFixture::kStride;
  MultiScaleDetector det(
      std::shared_ptr<HdFacePipeline>(&f.pipeline, [](HdFacePipeline*) {}),
      CascadeFixture::kWindow, ms);
  ParallelDetectConfig engine;
  engine.threads = 1;
  engine.cascade = &cascade;
  CascadeStats total;
  std::vector<CascadeStats> per_scale;
  engine.cascade_stats = &total;
  engine.cascade_per_scale = &per_scale;
  (void)det.detect(f.scenes[0], engine);
  ASSERT_EQ(per_scale.size(), 2u);  // both pyramid levels fit the window
  CascadeStats merged;
  for (const auto& s : per_scale) merged.merge(s);
  expect_stats_equal(total, merged);
  EXPECT_GT(total.windows, per_scale[0].windows);
}

// --- calibration -------------------------------------------------------------

TEST(Cascade, CalibrationIsByteDeterministic) {
  auto& f = fixture();
  const CascadeTable again =
      calibrate_cascade(f.pipeline, f.scenes, f.calibration);
  EXPECT_EQ(cascade_table_to_text(f.table), cascade_table_to_text(again));
}

TEST(Cascade, CalibratedTableHasTheConfiguredShape) {
  auto& f = fixture();
  ASSERT_EQ(f.table.stages.size(), 2u);
  EXPECT_LT(f.table.stages[0].words, f.table.stages[1].words);
  EXPECT_EQ(f.table.dim, 1024u);
  EXPECT_EQ(f.table.classes, 2u);
  EXPECT_EQ(f.table.positive_class, 1);
  EXPECT_EQ(f.table.window, CascadeFixture::kWindow);
  EXPECT_EQ(f.table.stride, CascadeFixture::kStride);
}

TEST(Cascade, CalibrationRejectsDegenerateInputs) {
  auto& f = fixture();
  EXPECT_THROW(calibrate_cascade(f.pipeline, {}, f.calibration),
               std::invalid_argument);
  auto bad = f.calibration;
  bad.stage_fractions = {};
  EXPECT_THROW(calibrate_cascade(f.pipeline, f.scenes, bad),
               std::invalid_argument);
  auto negative = f.calibration;
  negative.stage_fractions = {-0.5};
  EXPECT_THROW(calibrate_cascade(f.pipeline, f.scenes, negative),
               std::invalid_argument);
}

TEST(Cascade, CalibrationScenesAreDeterministic) {
  const auto a = cascade_calibration_scenes(2, 16, 64, 48, 1, 0x5EED);
  const auto b = cascade_calibration_scenes(2, 16, 64, 48, 1, 0x5EED);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto pa = a[i].pixels();
    const auto pb = b[i].pixels();
    ASSERT_TRUE(std::equal(pa.begin(), pa.end(), pb.begin(), pb.end()))
        << "scene " << i;
  }
  const auto other = cascade_calibration_scenes(2, 16, 64, 48, 1, 0x5EEE);
  const auto pa = a[0].pixels();
  const auto po = other[0].pixels();
  EXPECT_FALSE(std::equal(pa.begin(), pa.end(), po.begin(), po.end()));
}

// --- table I/O and construction ---------------------------------------------

TEST(CascadeTable, TextFormRoundTripsExactly) {
  auto& f = fixture();
  const std::string text = cascade_table_to_text(f.table);
  const CascadeTable parsed = cascade_table_from_text(text);
  EXPECT_EQ(cascade_table_to_text(parsed), text);
  EXPECT_EQ(parsed.dim, f.table.dim);
  EXPECT_EQ(parsed.seed, f.table.seed);
  ASSERT_EQ(parsed.stages.size(), f.table.stages.size());
  for (std::size_t s = 0; s < parsed.stages.size(); ++s) {
    EXPECT_EQ(parsed.stages[s].words, f.table.stages[s].words);
    // Hexfloat serialization: thresholds survive bit-exactly.
    EXPECT_EQ(parsed.stages[s].reject_below, f.table.stages[s].reject_below);
  }
}

TEST(CascadeTable, SaveLoadRoundTripsThroughDisk) {
  auto& f = fixture();
  const std::string path = ::testing::TempDir() + "cascade_table.txt";
  save_cascade_table(path, f.table);
  const CascadeTable loaded = load_cascade_table(path);
  EXPECT_EQ(cascade_table_to_text(loaded), cascade_table_to_text(f.table));
  EXPECT_THROW((void)load_cascade_table(path + ".missing"),
               std::runtime_error);
}

TEST(CascadeTable, ParserRejectsMalformedInput) {
  auto& f = fixture();
  const std::string text = cascade_table_to_text(f.table);
  EXPECT_THROW((void)cascade_table_from_text(""), std::runtime_error);
  EXPECT_THROW((void)cascade_table_from_text("not-a-table v1\n"),
               std::runtime_error);
  // Version bump must be rejected, not misparsed.
  std::string bumped = text;
  bumped.replace(bumped.find("v1"), 2, "v9");
  EXPECT_THROW((void)cascade_table_from_text(bumped), std::runtime_error);
  // Truncated stage list.
  const std::string truncated = text.substr(0, text.rfind("stage"));
  EXPECT_THROW((void)cascade_table_from_text(truncated), std::runtime_error);
}

TEST(Cascade, ConstructorValidatesTableAgainstClassifier) {
  auto& f = fixture();
  auto wrong_dim = f.table;
  wrong_dim.dim = 2 * f.table.dim;
  EXPECT_THROW(Cascade(f.pipeline.classifier(), wrong_dim),
               std::invalid_argument);
  auto wrong_classes = f.table;
  wrong_classes.classes = 3;
  EXPECT_THROW(Cascade(f.pipeline.classifier(), wrong_classes),
               std::invalid_argument);
  auto bad_positive = f.table;
  bad_positive.positive_class = 7;
  EXPECT_THROW(Cascade(f.pipeline.classifier(), bad_positive),
               std::invalid_argument);
  auto not_ascending = f.table;
  not_ascending.stages = {{4, -0.1}, {4, -0.05}};
  EXPECT_THROW(Cascade(f.pipeline.classifier(), not_ascending),
               std::invalid_argument);
  auto too_wide = f.table;
  too_wide.stages = {{f.table.dim / 64 + 1, -0.1}};
  EXPECT_THROW(Cascade(f.pipeline.classifier(), too_wide),
               std::invalid_argument);
}

TEST(Cascade, EngineRejectsCascadeWithFaultPlanOrWrongPositiveClass) {
  auto& f = fixture();
  const Cascade cascade(f.pipeline.classifier(), f.table);
  ParallelDetectConfig cfg;
  cfg.threads = 1;
  cfg.cascade = &cascade;
  const noise::FaultPlan plan;
  cfg.fault_plan = &plan;
  EXPECT_THROW(
      (void)detect_windows_parallel(f.pipeline, f.scenes[0],
                                    CascadeFixture::kWindow,
                                    CascadeFixture::kStride, 1, cfg),
      std::invalid_argument);
  cfg.fault_plan = nullptr;
  EXPECT_THROW(
      (void)detect_windows_parallel(f.pipeline, f.scenes[0],
                                    CascadeFixture::kWindow,
                                    CascadeFixture::kStride, 0, cfg),
      std::invalid_argument);
}

}  // namespace
}  // namespace hdface::pipeline
