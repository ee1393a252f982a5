// Golden pins for stored-memory fault injection.
//
// One fault plan per FaultKind is injected into a trained D=2048 detector.
// For each kind the suite pins three numbers: the digest of the faulted
// storage, the session's disturbed_bits(), and a faulted detect hash (the
// full score map plus the boxes). The storage digests and disturbed-bit
// counts were recorded before fault sampling was batched, so they prove the
// batched path draws the same patterns as the per-target one; the detect
// hashes were re-pinned when the cell plane became the only scan encode.
// Every kernel backend the CPU supports must reproduce them. Independently of the pins, every patched word must equal
// the clean word with the per-target noise::sample_fault_mask applied.

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/detector.hpp"
#include "core/kernels/kernels.hpp"
#include "dataset/background_generator.hpp"
#include "dataset/face_generator.hpp"
#include "image/transform.hpp"
#include "pipeline/fault_injection.hpp"

namespace hdface::pipeline {
namespace {

HdFaceConfig golden_config() {
  HdFaceConfig c;
  c.dim = 2048;
  c.mode = HdFaceMode::kHdHog;
  c.hd_hog_mode = hog::HdHogMode::kDecodeShortcut;
  c.hog.cell_size = 4;
  c.hog.bins = 8;
  c.epochs = 5;
  return c;
}

struct GoldenFixture {
  GoldenFixture()
      : detector(api::DetectorBuilder()
                     .window(16)
                     .config(golden_config())
                     .build()),
        scene(48, 48, 0.5f) {
    dataset::FaceDatasetConfig data_cfg;
    data_cfg.num_samples = 60;
    data_cfg.image_size = 16;
    detector.fit(dataset::make_face_dataset(data_cfg));
    core::Rng rng(0x601D);
    dataset::render_background(scene, dataset::BackgroundKind::kValueNoise, rng);
    image::paste(scene, dataset::render_face_window(16, 4321), 16, 8);
  }

  api::Detector detector;
  image::Image scene;
};

GoldenFixture& fixture() {
  static GoldenFixture f;
  return f;
}

// Every stored hypervector a session patches, in the order FaultSession
// numbers them: item levels, histogram levels, then the mask-pool entries
// counted across buckets.
struct StoredTarget {
  noise::FaultTarget target;
  std::uint64_t index;
  core::Hypervector* stored;
};

std::vector<StoredTarget> stored_targets(HdFacePipeline& pipe) {
  pipe.prepare_concurrent();
  std::vector<StoredTarget> out;
  auto& im = pipe.hd_extractor()->mutable_item_memory();
  for (std::size_t i = 0; i < im.levels(); ++i) {
    out.push_back({noise::FaultTarget::kItemMemory, i, &im.mutable_level(i)});
  }
  auto& hm = pipe.hd_extractor()->mutable_histogram_memory();
  for (std::size_t i = 0; i < hm.levels(); ++i) {
    out.push_back(
        {noise::FaultTarget::kHistogramMemory, i, &hm.mutable_level(i)});
  }
  auto& ctx = pipe.context();
  std::uint64_t entry = 0;
  for (std::size_t b = 0; b < ctx.pool_buckets(); ++b) {
    for (auto& v : ctx.mutable_pool_bucket(b)) {
      out.push_back({noise::FaultTarget::kMaskPool, entry++, &v});
    }
  }
  return out;
}

std::uint64_t storage_digest(const std::vector<StoredTarget>& targets) {
  std::uint64_t h = 0x601DE7ULL;
  for (const auto& t : targets) {
    for (const std::uint64_t w : t.stored->words()) h = core::mix64(h, w);
  }
  return h;
}

std::uint64_t detect_hash(const DetectionMap& map,
                          const std::vector<Detection>& boxes) {
  std::uint64_t h = core::mix64(map.steps_x, map.steps_y);
  for (std::size_t i = 0; i < map.scores.size(); ++i) {
    h = core::mix64(h, static_cast<std::uint64_t>(map.predictions[i]));
    h = core::mix64(h, std::bit_cast<std::uint64_t>(map.scores[i]));
  }
  h = core::mix64(h, boxes.size());
  for (const auto& b : boxes) {
    h = core::mix64(h, b.x);
    h = core::mix64(h, b.y);
    h = core::mix64(h, b.size);
    h = core::mix64(h, std::bit_cast<std::uint64_t>(b.score));
  }
  return h;
}

struct Golden {
  noise::FaultKind kind;
  std::uint64_t storage_digest;
  std::uint64_t disturbed_bits;
  std::uint64_t detect_hash;
};

constexpr double kGoldenRate = 0.03;
constexpr std::uint64_t kGoldenSeed = 0x60D5EEDULL;

constexpr Golden kGoldens[] = {
    {noise::FaultKind::kTransientFlip, 0x66095380E6EC84F4ULL, 1026664ULL,
     0xC816B9D408CF3691ULL},
    {noise::FaultKind::kStuckAtZero, 0xF07689296A82D16DULL, 513041ULL,
     0x7ACD5E5699135BEAULL},
    {noise::FaultKind::kStuckAtOne, 0x9A3A8A6A691523B0ULL, 513623ULL,
     0x93951DBCED5AA793ULL},
    {noise::FaultKind::kWordBurst, 0x0C87DF1E1427C0B7ULL, 1020224ULL,
     0x724D43010F3398E4ULL},
};

noise::FaultPlan golden_plan(noise::FaultKind kind) {
  noise::FaultPlan plan;
  plan.model = {kind, kGoldenRate};
  plan.seed = kGoldenSeed;
  return plan;
}

std::vector<core::kernels::Backend> supported_backends() {
  std::vector<core::kernels::Backend> out;
  for (const auto* t : core::kernels::compiled_tables()) {
    if (core::kernels::backend_supported(t->backend)) out.push_back(t->backend);
  }
  return out;
}

TEST(FaultGolden, FaultedStorageMatchesPinsOnEveryBackend) {
  auto& f = fixture();
  auto& pipe = *f.detector.pipeline();
  const auto targets = stored_targets(pipe);
  ASSERT_EQ(targets.size(), 320u + 256u * 64u);
  const std::uint64_t clean_digest = storage_digest(targets);
  for (const auto backend : supported_backends()) {
    const core::kernels::ScopedBackend forced(backend);
    for (const auto& g : kGoldens) {
      SCOPED_TRACE(std::string(core::kernels::backend_name(backend)) + " " +
                   noise::fault_kind_name(g.kind));
      FaultSession session(pipe, golden_plan(g.kind));
      EXPECT_EQ(storage_digest(targets), g.storage_digest);
      EXPECT_EQ(session.disturbed_bits(), g.disturbed_bits);
      session.restore();
      EXPECT_EQ(storage_digest(targets), clean_digest);
    }
  }
}

TEST(FaultGolden, FaultedWordsEqualPerTargetMasks) {
  // The expected faulted words are rebuilt here one target at a time from
  // noise::sample_fault_mask, the per-target reference the pins came from.
  auto& f = fixture();
  auto& pipe = *f.detector.pipeline();
  const auto targets = stored_targets(pipe);
  std::vector<core::Hypervector> clean;
  clean.reserve(targets.size());
  for (const auto& t : targets) clean.push_back(*t.stored);
  for (const auto backend : supported_backends()) {
    const core::kernels::ScopedBackend forced(backend);
    for (const auto& g : kGoldens) {
      SCOPED_TRACE(std::string(core::kernels::backend_name(backend)) + " " +
                   noise::fault_kind_name(g.kind));
      const noise::FaultPlan plan = golden_plan(g.kind);
      FaultSession session(pipe, plan);
      std::size_t mismatches = 0;
      for (std::size_t i = 0; i < targets.size(); ++i) {
        core::Rng rng(noise::fault_seed(plan.seed, targets[i].target,
                                        targets[i].index));
        const noise::FaultMask mask =
            noise::sample_fault_mask(plan.model, clean[i].dim(), rng);
        mismatches += mask.applied(clean[i]) != *targets[i].stored;
      }
      EXPECT_EQ(mismatches, 0u);
      session.restore();
    }
  }
}

TEST(FaultGolden, FaultedDetectMatchesPinsOnEveryBackend) {
  auto& f = fixture();
  for (const auto backend : supported_backends()) {
    for (const auto& g : kGoldens) {
      SCOPED_TRACE(std::string(core::kernels::backend_name(backend)) + " " +
                   noise::fault_kind_name(g.kind));
      api::DetectOptions options;
      options.threads = 2;
      options.kernel_backend = backend;
      options.fault_plan = golden_plan(g.kind);
      const auto map = f.detector.detect_map(f.scene, options);
      const auto boxes = f.detector.detect(f.scene, options);
      EXPECT_EQ(detect_hash(map, boxes), g.detect_hash);
    }
  }
}

// The default faulted request — DetectOptions{} plus a fault plan, no
// telemetry sinks — validates, runs on the cell-plane scan, returns exactly
// the legacy wrapper's boxes, and leaves the model's storage as it found it.
TEST(FaultGolden, DefaultFaultedRequestRunsWithoutTelemetry) {
  auto& f = fixture();
  const auto targets = stored_targets(*f.detector.pipeline());
  const std::uint64_t clean_digest = storage_digest(targets);
  api::Request request;
  request.scene = f.scene;
  request.options.fault_plan = golden_plan(noise::FaultKind::kTransientFlip);
  ASSERT_FALSE(request.options.telemetry.has_value());
  ASSERT_EQ(api::validate(request.options), std::nullopt);
  const auto outcome = f.detector.detect(request);
  ASSERT_TRUE(outcome.ok()) << outcome.error().message;
  EXPECT_EQ(storage_digest(targets), clean_digest);
  const auto direct = f.detector.detect(f.scene, request.options);
  const auto& served = outcome.value().detections;
  ASSERT_EQ(served.size(), direct.size());
  for (std::size_t i = 0; i < served.size(); ++i) {
    EXPECT_EQ(served[i].x, direct[i].x);
    EXPECT_EQ(served[i].y, direct[i].y);
    EXPECT_EQ(served[i].size, direct[i].size);
    EXPECT_EQ(served[i].score, direct[i].score);
  }
}

}  // namespace
}  // namespace hdface::pipeline
