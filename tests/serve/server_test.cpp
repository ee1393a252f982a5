#include "serve/server.hpp"

#include <limits>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "dataset/background_generator.hpp"
#include "dataset/face_generator.hpp"
#include "hog/hd_hog.hpp"
#include "image/transform.hpp"
#include "learn/hdc_model.hpp"
#include "pipeline/hdface_pipeline.hpp"

namespace hdface::serve {
namespace {

constexpr std::size_t kWindow = 16;

api::Detector trained_detector() {
  dataset::FaceDatasetConfig data_cfg;
  data_cfg.image_size = kWindow;
  data_cfg.num_samples = 40;
  api::Detector det = api::DetectorBuilder()
                          .window(kWindow)
                          .dim(1024)
                          .hd_hog_mode(hog::HdHogMode::kDecodeShortcut)
                          .epochs(2)
                          .build();
  det.fit(dataset::make_face_dataset(data_cfg));
  return det;
}

image::Image test_scene(std::size_t side, std::uint64_t seed) {
  image::Image scene(side, side, 0.5f);
  core::Rng rng(seed);
  dataset::render_background(scene, dataset::BackgroundKind::kMixed, rng);
  image::paste(scene, dataset::render_face_window(kWindow, seed), 0, 0);
  return scene;
}

api::Request valid_request(std::uint64_t id, std::uint32_t tenant = 0) {
  api::Request request;
  request.id = id;
  request.tenant = tenant;
  request.scene = test_scene(kWindow, 100 + id);
  request.options.threads = 1;
  request.options.stride = kWindow;
  return request;
}

ServerConfig manual_config(std::size_t queue_depth) {
  ServerConfig config;
  config.queue_depth = queue_depth;
  config.start_workers = false;
  return config;
}

// The admission-determinism satellite: with no concurrent consumer (manual
// mode), a fixed submission schedule against a fixed queue depth yields
// EXACT rejection counts — run twice, the counters agree.
TEST(DetectionServer, QueueFullRejectionsAreDeterministic) {
  const api::Detector det = trained_detector();
  for (int run = 0; run < 2; ++run) {
    DetectionServer server(det, manual_config(4));
    std::vector<DetectionServer::Submission> submissions;
    for (std::uint64_t i = 0; i < 10; ++i) {
      submissions.push_back(server.submit(valid_request(i)));
    }
    std::size_t admitted = 0;
    for (std::size_t i = 0; i < submissions.size(); ++i) {
      if (i < 4) {
        ASSERT_TRUE(submissions[i].admitted()) << "run " << run << " i " << i;
        admitted += 1;
      } else {
        ASSERT_FALSE(submissions[i].admitted()) << "run " << run << " i " << i;
        EXPECT_EQ(submissions[i].rejected->code, api::ErrorCode::kQueueFull);
      }
    }
    const ServerStats before = server.stats();
    EXPECT_EQ(before.counters.submitted, 10u);
    EXPECT_EQ(before.counters.admitted, 4u);
    EXPECT_EQ(before.counters.rejected_queue_full, 6u);
    EXPECT_EQ(before.in_flight, 4u);
    EXPECT_TRUE(before.conserved());

    // Drain on this thread; every admitted future resolves ok.
    std::size_t steps = 0;
    while (server.step()) steps += 1;
    EXPECT_EQ(steps, admitted);
    for (std::size_t i = 0; i < 4; ++i) {
      auto outcome = submissions[i].response.get();
      ASSERT_TRUE(outcome.ok()) << outcome.error().message;
      EXPECT_EQ(outcome.value().id, i);
    }
    const ServerStats after = server.stats();
    EXPECT_EQ(after.counters.completed, 4u);
    EXPECT_EQ(after.counters.failed, 0u);
    EXPECT_EQ(after.in_flight, 0u);
    EXPECT_TRUE(after.conserved());
  }
}

TEST(DetectionServer, BackpressureSignalReportsOccupancy) {
  const api::Detector det = trained_detector();
  DetectionServer server(det, manual_config(4));
  for (std::uint64_t i = 0; i < 4; ++i) {
    const auto submission = server.submit(valid_request(i));
    ASSERT_TRUE(submission.admitted());
    EXPECT_EQ(submission.queue_depth, i + 1);  // occupancy after admission
    EXPECT_EQ(submission.queue_capacity, 4u);
  }
  const auto rejected = server.submit(valid_request(99));
  EXPECT_FALSE(rejected.admitted());
  EXPECT_EQ(rejected.queue_depth, 4u);  // the client sees why
}

TEST(DetectionServer, PerTenantCapRejectsAndReleases) {
  const api::Detector det = trained_detector();
  ServerConfig config = manual_config(8);
  config.per_tenant_inflight = 2;
  DetectionServer server(det, config);

  ASSERT_TRUE(server.submit(valid_request(0, /*tenant=*/7)).admitted());
  ASSERT_TRUE(server.submit(valid_request(1, /*tenant=*/7)).admitted());
  const auto third = server.submit(valid_request(2, /*tenant=*/7));
  ASSERT_FALSE(third.admitted());
  EXPECT_EQ(third.rejected->code, api::ErrorCode::kTenantOverLimit);
  // Another tenant is unaffected.
  ASSERT_TRUE(server.submit(valid_request(3, /*tenant=*/8)).admitted());

  // Completion releases the slot.
  while (server.step()) {
  }
  EXPECT_TRUE(server.submit(valid_request(4, /*tenant=*/7)).admitted());
  const auto stats = server.stats();
  EXPECT_EQ(stats.counters.rejected_tenant, 1u);
  EXPECT_TRUE(stats.conserved());
}

TEST(DetectionServer, TypedRejectionOfInvalidRequests) {
  const api::Detector det = trained_detector();
  DetectionServer server(det, manual_config(4));

  api::Request bad_stride = valid_request(0);
  bad_stride.options.stride = 0;
  auto s = server.submit(std::move(bad_stride));
  ASSERT_FALSE(s.admitted());
  EXPECT_EQ(s.rejected->code, api::ErrorCode::kInvalidOptions);

  api::Request no_scales = valid_request(1);
  no_scales.options.scales = {};
  s = server.submit(std::move(no_scales));
  ASSERT_FALSE(s.admitted());
  EXPECT_EQ(s.rejected->code, api::ErrorCode::kInvalidOptions);

  // kernel_backend is a process-global force: never valid on a served
  // request, even when the backend itself is available.
  api::Request forced_backend = valid_request(2);
  forced_backend.options.kernel_backend = core::kernels::Backend::kScalar;
  s = server.submit(std::move(forced_backend));
  ASSERT_FALSE(s.admitted());
  EXPECT_EQ(s.rejected->code, api::ErrorCode::kInvalidOptions);

  api::Request tiny_scene = valid_request(3);
  tiny_scene.scene = image::Image(kWindow / 2, kWindow / 2, 0.5f);
  s = server.submit(std::move(tiny_scene));
  ASSERT_FALSE(s.admitted());
  EXPECT_EQ(s.rejected->code, api::ErrorCode::kInvalidOptions);

  const auto stats = server.stats();
  EXPECT_EQ(stats.counters.rejected_invalid, 4u);
  EXPECT_EQ(stats.counters.admitted, 0u);
  EXPECT_EQ(stats.queue_depth, 0u);  // invalid requests never queue
  EXPECT_TRUE(stats.conserved());
}

// A request that passes admission but cannot run on this model — a scan on
// an orig-HOG detector, which has no cell-plane encode — resolves with a
// typed kInvalidOptions error. The worker survives it and goes on serving
// the requests queued behind it, and the accounting stays conserved.
TEST(DetectionServer, OrigHogScanResolvesTypedErrorAndWorkerKeepsServing) {
  dataset::FaceDatasetConfig data_cfg;
  data_cfg.image_size = kWindow;
  data_cfg.num_samples = 40;
  api::Detector det = api::DetectorBuilder()
                          .window(kWindow)
                          .dim(1024)
                          .mode(pipeline::HdFaceMode::kOrigHogEncoder)
                          .epochs(2)
                          .build();
  det.fit(dataset::make_face_dataset(data_cfg));
  ServerConfig config;
  config.workers = 1;
  DetectionServer server(det, config);
  std::vector<DetectionServer::Submission> submissions;
  for (std::uint64_t i = 0; i < 3; ++i) {
    submissions.push_back(server.submit(valid_request(i)));
    ASSERT_TRUE(submissions.back().admitted());
  }
  for (auto& s : submissions) {
    const auto outcome = s.response.get();
    ASSERT_FALSE(outcome.ok());
    EXPECT_EQ(outcome.error().code, api::ErrorCode::kInvalidOptions);
  }
  server.shutdown();
  const auto stats = server.stats();
  EXPECT_EQ(stats.counters.admitted, 3u);
  EXPECT_EQ(stats.counters.failed, 3u);
  EXPECT_EQ(stats.in_flight, 0u);
  EXPECT_TRUE(stats.conserved());
}

TEST(DetectionServer, NanPixelRequestResolvesTypedErrorAndWorkerKeepsServing) {
  const api::Detector det = trained_detector();
  ServerConfig config;
  config.workers = 1;
  DetectionServer server(det, config);
  api::Request poisoned = valid_request(0);
  poisoned.scene.at(3, 5) = std::numeric_limits<float>::quiet_NaN();
  auto bad = server.submit(poisoned);
  auto good = server.submit(valid_request(1));
  ASSERT_TRUE(bad.admitted());
  ASSERT_TRUE(good.admitted());
  const auto bad_outcome = bad.response.get();
  ASSERT_FALSE(bad_outcome.ok());
  EXPECT_EQ(bad_outcome.error().code, api::ErrorCode::kInvalidOptions);
  // The same worker serves the next request.
  EXPECT_TRUE(good.response.get().ok());
  server.shutdown();
  const auto stats = server.stats();
  EXPECT_EQ(stats.counters.admitted, 2u);
  EXPECT_EQ(stats.counters.failed, 1u);
  EXPECT_EQ(stats.counters.completed, 1u);
  EXPECT_EQ(stats.in_flight, 0u);
  EXPECT_TRUE(stats.conserved());
}

TEST(DetectionServer, ShutdownDrainsAdmittedAndRejectsNew) {
  const api::Detector det = trained_detector();
  DetectionServer server(det, manual_config(4));
  auto first = server.submit(valid_request(0));
  auto second = server.submit(valid_request(1));
  ASSERT_TRUE(first.admitted());
  ASSERT_TRUE(second.admitted());

  server.shutdown();
  // Admitted work was drained, not dropped.
  EXPECT_TRUE(first.response.get().ok());
  EXPECT_TRUE(second.response.get().ok());

  const auto rejected = server.submit(valid_request(2));
  ASSERT_FALSE(rejected.admitted());
  EXPECT_EQ(rejected.rejected->code, api::ErrorCode::kShutdown);

  server.shutdown();  // idempotent
  const auto stats = server.stats();
  EXPECT_EQ(stats.counters.completed, 2u);
  EXPECT_EQ(stats.counters.rejected_shutdown, 1u);
  EXPECT_EQ(stats.in_flight, 0u);
  EXPECT_TRUE(stats.conserved());
}

TEST(DetectionServer, HistogramCountsMatchResolvedRequests) {
  const api::Detector det = trained_detector();
  DetectionServer server(det, manual_config(8));
  std::vector<DetectionServer::Submission> submissions;
  for (std::uint64_t i = 0; i < 5; ++i) {
    submissions.push_back(server.submit(valid_request(i)));
    ASSERT_TRUE(submissions.back().admitted());
  }
  while (server.step()) {
  }
  const auto stats = server.stats();
  const auto resolved = stats.counters.completed + stats.counters.failed;
  EXPECT_EQ(stats.queue_wait.count(), resolved);
  EXPECT_EQ(stats.execute.count(), resolved);
  EXPECT_EQ(stats.e2e.count(), resolved);
  // e2e >= execute for every request, so the merged maxima order too.
  EXPECT_GE(stats.e2e.max(), stats.execute.max());
  // Served timing is reported on the response.
  const auto outcome = submissions.front().response.get();
  ASSERT_TRUE(outcome.ok());
  EXPECT_GT(outcome.value().timing.total, 0u);
  EXPECT_GE(outcome.value().timing.total, outcome.value().timing.execute);
}

// Served results must be bit-identical to direct Detector::detect calls —
// at any worker count, under concurrent submission, for clean and faulted
// requests alike (faulted scans mutate shared pipeline state under the
// model lock; a clean scan racing one must stay unaffected).
TEST(DetectionServer, ConcurrentServingIsBitIdenticalToDirectCalls) {
  const api::Detector det = trained_detector();

  // A mixed stream: single-window, wide-scene multiscale, faulted.
  std::vector<api::Request> requests;
  for (std::uint64_t i = 0; i < 12; ++i) {
    api::Request request;
    request.id = i;
    request.options.threads = 1;
    request.options.stride = kWindow / 2;
    switch (i % 3) {
      case 0:
        request.scene = test_scene(kWindow, 300 + i);
        request.options.stride = kWindow;
        break;
      case 1:
        request.scene = test_scene(3 * kWindow, 300 + i);
        request.options.scales = {1.0, 0.5};
        request.options.nms = true;
        break;
      default: {
        request.scene = test_scene(3 * kWindow, 300 + i);
        noise::FaultPlan plan;
        plan.model.kind = noise::FaultKind::kTransientFlip;
        plan.model.rate = 1e-3;
        plan.seed = 0xFA + i;
        request.options.fault_plan = plan;
        break;
      }
    }
    requests.push_back(std::move(request));
  }

  // Direct (one-shot) results first.
  api::Detector direct = det;
  std::vector<std::vector<pipeline::Detection>> expected;
  for (const auto& request : requests) {
    auto outcome = direct.detect(request);
    ASSERT_TRUE(outcome.ok()) << outcome.error().message;
    expected.push_back(std::move(outcome).take().detections);
  }

  ServerConfig config;
  config.queue_depth = 16;
  config.workers = 3;
  DetectionServer server(det, config);
  std::vector<std::future<api::Outcome<api::Response>>> futures(
      requests.size());
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < 3; ++c) {
    clients.emplace_back([&, c] {
      for (std::size_t i = c; i < requests.size(); i += 3) {
        for (;;) {
          auto submission = server.submit(requests[i]);
          if (submission.admitted()) {
            futures[i] = std::move(submission.response);
            break;
          }
          std::this_thread::yield();
        }
      }
    });
  }
  for (auto& t : clients) t.join();

  for (std::size_t i = 0; i < requests.size(); ++i) {
    auto outcome = futures[i].get();
    ASSERT_TRUE(outcome.ok()) << "request " << i << ": "
                              << outcome.error().message;
    const auto& served = outcome.value().detections;
    ASSERT_EQ(served.size(), expected[i].size()) << "request " << i;
    for (std::size_t d = 0; d < served.size(); ++d) {
      EXPECT_EQ(served[d].x, expected[i][d].x) << "request " << i;
      EXPECT_EQ(served[d].y, expected[i][d].y) << "request " << i;
      EXPECT_EQ(served[d].size, expected[i][d].size) << "request " << i;
      EXPECT_EQ(served[d].score, expected[i][d].score) << "request " << i;
    }
  }
  server.shutdown();
  EXPECT_TRUE(server.stats().conserved());
}

// A model may carry a binary-prototype override of its own. A faulted
// request installs a faulted override for its scan; afterwards the model's
// own override must be back bit for bit, so clean requests served after the
// faulted one still equal direct Detector::detect calls.
TEST(DetectionServer, FaultedRequestRestoresTheModelsOwnOverride) {
  const api::Detector det = trained_detector();
  auto& classifier = det.pipeline()->mutable_classifier();
  std::vector<core::Hypervector> own = classifier.binary_prototypes();
  for (std::size_t i = 0; i < own[1].dim(); i += 5) own[1].flip(i);
  classifier.set_binary_override(own);

  api::Request clean;
  clean.id = 1;
  clean.scene = test_scene(3 * kWindow, 501);
  clean.options.threads = 1;
  clean.options.stride = kWindow / 2;
  api::Request faulted = clean;
  faulted.id = 2;
  noise::FaultPlan plan;
  plan.model = {noise::FaultKind::kStuckAtOne, 0.05};
  faulted.options.fault_plan = plan;

  api::Detector direct = det;
  auto expected = direct.detect(clean);
  ASSERT_TRUE(expected.ok()) << expected.error().message;
  const auto want = std::move(expected).take().detections;
  ASSERT_FALSE(want.empty());

  DetectionServer server(det, manual_config(4));
  auto first = server.submit(faulted);
  api::Request again = clean;
  again.id = 3;
  auto second = server.submit(again);
  ASSERT_TRUE(first.admitted() && second.admitted());
  while (server.step()) {
  }
  ASSERT_TRUE(first.response.get().ok());
  auto outcome = second.response.get();
  ASSERT_TRUE(outcome.ok()) << outcome.error().message;
  const auto& served = outcome.value().detections;
  ASSERT_EQ(served.size(), want.size());
  for (std::size_t d = 0; d < served.size(); ++d) {
    EXPECT_EQ(served[d].x, want[d].x) << "box " << d;
    EXPECT_EQ(served[d].y, want[d].y) << "box " << d;
    EXPECT_EQ(served[d].size, want[d].size) << "box " << d;
    EXPECT_EQ(served[d].score, want[d].score) << "box " << d;
  }
  ASSERT_TRUE(classifier.has_binary_override());
  EXPECT_EQ(classifier.binary_override(), own);
}

}  // namespace
}  // namespace hdface::serve
