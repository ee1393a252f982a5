// Detection-as-a-service under load: latency-vs-offered-load curves.
//
// Timing lives entirely inside serve/load_gen.cpp (which carries the
// wall-clock justification); detection results stay seed-pure: the
// verification phase proves every served response bit-identical to a direct
// Detector::detect call on the same deterministic request stream.
//
// Three phases, all drawing from one seed-pure RequestFactory:
//   1. verify  — serve the full request mix concurrently, then replay every
//                request id through direct detect(); detections must match
//                bit-for-bit (the engine's per-cell seeding contract lifted
//                through the queue/worker machinery).
//   2. closed  — sweep client concurrency (1, 2, 4, ...); offered load adapts
//                to the server, tracing the throughput ceiling.
//   3. open    — sweep seeded-Poisson arrival rates around the measured
//                ceiling; rejections are not retried, so kQueueFull rate and
//                tail latency vs offered rps are the saturation picture.
//
// Latency quantiles come from the server's merged worker-shard histograms
// (exact merge — see util/latency_histogram.hpp). Every run also gates on
// queue-accounting conservation. Results: bench_out/serving.json.
//
// Usage:
//   ./build/bench/serving_load [--dim 2048] [--train 80] [--window 16]
//                              [--requests 48] [--workers 2] [--depth 8]
//                              [--tenants 2] [--max-conc 8]

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "api/detector.hpp"
#include "common.hpp"
#include "hog/hd_hog.hpp"
#include "serve/load_gen.hpp"
#include "serve/server.hpp"
#include "util/mutex.hpp"

namespace {

using namespace hdface;

struct QuantilesMs {
  double p50 = 0.0;
  double p99 = 0.0;
  double p999 = 0.0;
  double mean = 0.0;
  double max = 0.0;
};

QuantilesMs quantiles_ms(const util::LatencyHistogram& h) {
  constexpr double kNsPerMs = 1e6;
  QuantilesMs q;
  q.p50 = static_cast<double>(h.quantile(0.50)) / kNsPerMs;
  q.p99 = static_cast<double>(h.quantile(0.99)) / kNsPerMs;
  q.p999 = static_cast<double>(h.quantile(0.999)) / kNsPerMs;
  q.mean = h.mean() / kNsPerMs;
  q.max = static_cast<double>(h.max()) / kNsPerMs;
  return q;
}

bool detections_identical(const std::vector<pipeline::Detection>& a,
                          const std::vector<pipeline::Detection>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].x != b[i].x || a[i].y != b[i].y || a[i].size != b[i].size ||
        a[i].score != b[i].score) {
      return false;
    }
  }
  return true;
}

// Phase 1: serve every request with a concurrent worker pool, then replay
// the identical stream through direct detect(). Bit-identity per request id.
struct VerifyResult {
  std::uint64_t requests = 0;
  std::uint64_t compared = 0;
  std::uint64_t mismatches = 0;
  std::uint64_t serve_errors = 0;
  bool conserved = false;
  bool bit_identical() const {
    return mismatches == 0 && serve_errors == 0 && compared == requests;
  }
};

VerifyResult run_verification(const api::Detector& detector,
                              const serve::RequestFactory& factory,
                              std::size_t requests, std::size_t workers,
                              std::size_t queue_depth) {
  serve::ServerConfig server_cfg;
  server_cfg.queue_depth = queue_depth;
  server_cfg.workers = workers;
  serve::DetectionServer server(detector, server_cfg);

  std::map<std::uint64_t, api::Response> served;
  util::Mutex served_mutex;
  std::uint64_t serve_errors = 0;

  // Closed-loop submission from `workers` client threads: ids are statically
  // partitioned (client c owns ids c, c+K, ...), so every id is served exactly
  // once regardless of scheduling.
  const std::size_t n_clients = std::max<std::size_t>(1, workers);
  std::vector<std::thread> clients;
  clients.reserve(n_clients);
  for (std::size_t c = 0; c < n_clients; ++c) {
    clients.emplace_back([&, c] {
      for (std::uint64_t i = c; i < requests; i += n_clients) {
        const api::Request request = factory.make(i);
        for (;;) {
          auto submission = server.submit(request);
          if (!submission.admitted()) {
            // hdlint: allow(sleep-as-sync) — rejection backoff pacing only;
            // the loop re-submits and correctness never rides on the nap.
            std::this_thread::sleep_for(std::chrono::microseconds(200));
            continue;
          }
          auto outcome = submission.response.get();
          const util::MutexLock lock(served_mutex);
          if (outcome.ok()) {
            served.emplace(i, std::move(outcome).take());
          } else {
            serve_errors += 1;
          }
          break;
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  server.shutdown();

  VerifyResult result;
  result.requests = requests;
  result.serve_errors = serve_errors;
  result.conserved = server.stats().conserved();

  api::Detector direct = detector;  // shares the trained pipeline
  for (std::uint64_t i = 0; i < requests; ++i) {
    const auto it = served.find(i);
    if (it == served.end()) continue;
    auto expected = direct.detect(factory.make(i));
    result.compared += 1;
    if (!expected.ok() ||
        !detections_identical(it->second.detections,
                              expected.value().detections)) {
      result.mismatches += 1;
      std::printf("  MISMATCH at request %" PRIu64 " (%s)\n", i,
                  std::string(serve::mix_kind_name(factory.kind_of(i))).c_str());
    }
  }
  return result;
}

void print_report_row(util::Table& table, const std::string& label,
                      const serve::LoadReport& report) {
  const QuantilesMs e2e = quantiles_ms(report.server.e2e);
  char buf[6][32];
  std::snprintf(buf[0], sizeof buf[0], "%.1f", report.achieved_rps);
  std::snprintf(buf[1], sizeof buf[1], "%" PRIu64, report.completed);
  std::snprintf(buf[2], sizeof buf[2], "%" PRIu64, report.rejected);
  std::snprintf(buf[3], sizeof buf[3], "%.2f", e2e.p50);
  std::snprintf(buf[4], sizeof buf[4], "%.2f", e2e.p99);
  std::snprintf(buf[5], sizeof buf[5], "%.2f", e2e.p999);
  table.add_row({label, buf[0], buf[1], buf[2], buf[3], buf[4], buf[5],
                 report.server.conserved() ? "yes" : "NO"});
}

void json_report(FILE* f, const serve::LoadReport& r, int indent) {
  const QuantilesMs e2e = quantiles_ms(r.server.e2e);
  const QuantilesMs wait = quantiles_ms(r.server.queue_wait);
  const QuantilesMs exec = quantiles_ms(r.server.execute);
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  std::fprintf(f,
               "%s\"offered\": %" PRIu64 ", \"admitted\": %" PRIu64
               ", \"rejected\": %" PRIu64 ", \"completed\": %" PRIu64
               ", \"errors\": %" PRIu64 ", \"retries\": %" PRIu64 ",\n"
               "%s\"duration_s\": %.4f, \"achieved_rps\": %.2f,\n"
               "%s\"e2e_ms\": {\"p50\": %.4f, \"p99\": %.4f, \"p999\": %.4f, "
               "\"mean\": %.4f, \"max\": %.4f},\n"
               "%s\"queue_wait_ms\": {\"p50\": %.4f, \"p99\": %.4f, "
               "\"p999\": %.4f},\n"
               "%s\"execute_ms\": {\"p50\": %.4f, \"p99\": %.4f, "
               "\"p999\": %.4f},\n"
               "%s\"histogram_count\": %" PRIu64 ", \"conserved\": %s",
               pad.c_str(), r.offered, r.admitted, r.rejected, r.completed,
               r.errors, r.retries, pad.c_str(), r.duration_s, r.achieved_rps,
               pad.c_str(), e2e.p50, e2e.p99, e2e.p999, e2e.mean, e2e.max,
               pad.c_str(), wait.p50, wait.p99, wait.p999, pad.c_str(),
               exec.p50, exec.p99, exec.p999, pad.c_str(),
               r.server.e2e.count(),
               r.server.conserved() ? "true" : "false");
}

}  // namespace

int main(int argc, char** argv) {
  const util::Args args(argc, argv);
  const auto dim = static_cast<std::size_t>(args.get_int("dim", 2048));
  const auto n_train = static_cast<std::size_t>(args.get_int("train", 80));
  const auto window = static_cast<std::size_t>(args.get_int("window", 16));
  const auto requests = static_cast<std::size_t>(args.get_int("requests", 48));
  const auto workers = static_cast<std::size_t>(args.get_int("workers", 2));
  const auto depth = static_cast<std::size_t>(args.get_int("depth", 8));
  const auto tenants = static_cast<std::size_t>(args.get_int("tenants", 2));
  const auto max_conc = static_cast<std::size_t>(args.get_int("max-conc", 8));

  bench::print_header("Detection-as-a-service: load, admission, tail latency",
                      "HDFace (DAC'22) robustness claim under concurrent load");

  // Train a small face/no-face model; serving latency, not accuracy, is the
  // subject here.
  dataset::FaceDatasetConfig data_cfg;
  data_cfg.image_size = window;
  data_cfg.num_samples = n_train;
  api::Detector det = api::DetectorBuilder()
                          .window(window)
                          .dim(dim)
                          .hd_hog_mode(hog::HdHogMode::kDecodeShortcut)
                          .epochs(5)
                          .build();
  std::printf("training (D=%zu, window %zu, %zu samples)...\n", dim, window,
              n_train);
  det.fit(dataset::make_face_dataset(data_cfg));

  serve::LoadGenConfig load_cfg;
  load_cfg.requests = requests;
  load_cfg.tenants = tenants;
  load_cfg.stride = std::max<std::size_t>(1, window / 2);
  const serve::RequestFactory factory(window, load_cfg);

  std::size_t mix_counts[3] = {0, 0, 0};
  for (std::uint64_t i = 0; i < requests; ++i) {
    mix_counts[static_cast<std::size_t>(factory.kind_of(i))] += 1;
  }
  std::printf("mix over %zu requests: %zu single-window, %zu multiscale, "
              "%zu faulted\n\n",
              requests, mix_counts[0], mix_counts[1], mix_counts[2]);

  // --- phase 1: served == direct, bit for bit ------------------------------
  std::printf("[1/3] verification: served vs direct detect, %zu workers...\n",
              workers);
  const VerifyResult verify =
      run_verification(det, factory, requests, workers, depth);
  std::printf("  %" PRIu64 "/%" PRIu64 " compared, %" PRIu64
              " mismatch(es), %" PRIu64 " serve error(s), conserved: %s\n",
              verify.compared, verify.requests, verify.mismatches,
              verify.serve_errors, verify.conserved ? "yes" : "NO");
  std::printf("  bit-identical: %s\n\n",
              verify.bit_identical() ? "yes" : "NO");

  // --- phase 2: closed-loop concurrency sweep ------------------------------
  std::printf("[2/3] closed loop: concurrency sweep to saturation...\n");
  std::vector<std::pair<std::size_t, serve::LoadReport>> closed_runs;
  util::Table closed_table({"clients", "rps", "done", "rej", "p50 ms",
                            "p99 ms", "p999 ms", "conserved"});
  double peak_rps = 0.0;
  for (std::size_t conc = 1; conc <= max_conc; conc *= 2) {
    serve::ServerConfig server_cfg;
    server_cfg.queue_depth = depth;
    server_cfg.workers = workers;
    serve::DetectionServer server(det, server_cfg);
    serve::LoadGenConfig run_cfg = load_cfg;
    run_cfg.concurrency = conc;
    auto report = serve::run_closed_loop(server, factory, run_cfg);
    server.shutdown();
    report.server = server.stats();  // post-drain snapshot: in_flight == 0
    peak_rps = std::max(peak_rps, report.achieved_rps);
    print_report_row(closed_table, std::to_string(conc), report);
    closed_runs.emplace_back(conc, std::move(report));
  }
  std::printf("%s\n", closed_table.to_string().c_str());

  // --- phase 3: open-loop rate sweep around the measured ceiling -----------
  std::printf("[3/3] open loop: offered-rate sweep around %.1f rps...\n",
              peak_rps);
  const double fractions[] = {0.25, 0.5, 1.0, 2.0};
  std::vector<serve::LoadReport> open_runs;
  util::Table open_table({"offered rps", "rps", "done", "rej", "p50 ms",
                          "p99 ms", "p999 ms", "conserved"});
  for (const double frac : fractions) {
    const double rate = std::max(1.0, peak_rps * frac);
    serve::ServerConfig server_cfg;
    server_cfg.queue_depth = depth;
    server_cfg.workers = workers;
    serve::DetectionServer server(det, server_cfg);
    serve::LoadGenConfig run_cfg = load_cfg;
    run_cfg.offered_rps = rate;
    auto report = serve::run_open_loop(server, factory, run_cfg);
    server.shutdown();
    report.server = server.stats();
    char label[32];
    std::snprintf(label, sizeof label, "%.1f", rate);
    print_report_row(open_table, label, report);
    open_runs.push_back(std::move(report));
  }
  std::printf("%s\n", open_table.to_string().c_str());

  bool conserved_all = verify.conserved;
  for (const auto& [conc, report] : closed_runs) {
    conserved_all = conserved_all && report.server.conserved();
  }
  for (const auto& report : open_runs) {
    conserved_all = conserved_all && report.server.conserved();
  }

  FILE* json = std::fopen("bench_out/serving.json", "w");
  if (json) {
    std::fprintf(json,
                 "{\n"
                 "  \"window\": %zu,\n"
                 "  \"dim\": %zu,\n"
                 "  \"requests\": %zu,\n"
                 "  \"workers\": %zu,\n"
                 "  \"queue_depth\": %zu,\n"
                 "  \"tenants\": %zu,\n"
                 "  \"seed\": %" PRIu64 ",\n"
                 "  \"mix\": {\"single_window\": %zu, \"multiscale_scene\": "
                 "%zu, \"faulted_query\": %zu},\n",
                 window, dim, requests, workers, depth, tenants, load_cfg.seed,
                 mix_counts[0], mix_counts[1], mix_counts[2]);
    std::fprintf(json,
                 "  \"verification\": {\"requests\": %" PRIu64
                 ", \"compared\": %" PRIu64 ", \"mismatches\": %" PRIu64
                 ", \"serve_errors\": %" PRIu64
                 ", \"conserved\": %s, \"bit_identical\": %s},\n",
                 verify.requests, verify.compared, verify.mismatches,
                 verify.serve_errors, verify.conserved ? "true" : "false",
                 verify.bit_identical() ? "true" : "false");
    std::fprintf(json, "  \"closed_loop\": [\n");
    for (std::size_t i = 0; i < closed_runs.size(); ++i) {
      std::fprintf(json, "    {\"concurrency\": %zu,\n",
                   closed_runs[i].first);
      json_report(json, closed_runs[i].second, 5);
      std::fprintf(json, "}%s\n", i + 1 < closed_runs.size() ? "," : "");
    }
    std::fprintf(json, "  ],\n  \"open_loop\": [\n");
    for (std::size_t i = 0; i < open_runs.size(); ++i) {
      std::fprintf(json, "    {\"offered_rps\": %.2f,\n",
                   open_runs[i].offered_rps);
      json_report(json, open_runs[i], 5);
      std::fprintf(json, "}%s\n", i + 1 < open_runs.size() ? "," : "");
    }
    std::fprintf(json,
                 "  ],\n"
                 "  \"peak_closed_loop_rps\": %.2f,\n"
                 "  \"conserved_all\": %s,\n"
                 "  \"bit_identical\": %s\n"
                 "}\n",
                 peak_rps, conserved_all ? "true" : "false",
                 verify.bit_identical() ? "true" : "false");
    std::fclose(json);
    std::printf("written: bench_out/serving.json\n");
  }

  if (!verify.bit_identical()) {
    std::printf("FAIL: served results are not bit-identical to direct detect\n");
    return 1;
  }
  if (!conserved_all) {
    std::printf("FAIL: queue accounting not conserved\n");
    return 1;
  }
  std::printf("serving contract holds: bit-identical results, conserved "
              "accounting\n");
  return 0;
}
