// Per-layer rows shared by every workload, and the layer probes that time a
// kernel from outside through its public entry point.
//
// hdlint: allow-file(wall-clock) — the benchmark measures elapsed time; no
// timing ever feeds back into what the detector computes.

#include <cmath>
#include <utility>

#include "core/prototype_block.hpp"
#include "workloads.hpp"

namespace e2e {

using namespace hdface;

namespace {

// Name and unit of every per-layer row, in BENCHMARK.json order.
const std::vector<std::pair<std::string, std::string>>& layer_table() {
  static const std::vector<std::pair<std::string, std::string>> table = [] {
    std::vector<std::pair<std::string, std::string>> t{
        {"image.pyramid_ms", "ms"},
        {"hog.plane_build_ms", "ms"},
        {"hog.cell_encode_us", "us"},
        {"hog.cells_computed", "count"},
        {"hog.materialized_frac", "frac"},
        {"hog.plane_hit_rate", "frac"},
        {"pipeline.prescreen_reject_frac", "frac"},
        {"pipeline.stage_pass_frac.s0", "frac"},
        {"pipeline.stage_pass_frac.s1", "frac"},
        {"pipeline.stage_pass_frac.s2", "frac"},
        {"pipeline.stage_pass_frac.s3", "frac"},
        {"pipeline.exact_scored", "count"},
        {"pipeline.scan_on_plane_ms", "ms"},
        {"pipeline.nms_ms", "ms"},
        {"learn.full_d_score_us", "us"},
        {"core.hamming_many_ns", "ns"},
        {"util.parallel_eff", "frac"},
    };
    for (const char* scope : {"", "single_window.", "multiscale_scene.",
                              "faulted_query."}) {
      for (const char* row : {"queue_wait_p50_ms", "queue_wait_p90_ms",
                              "execute_p50_ms", "execute_p90_ms"}) {
        t.emplace_back(std::string("serve.") + scope + row, "ms");
      }
    }
    for (const auto& row : std::vector<std::pair<std::string, std::string>>{
             {"serve.rejected_queue_full", "count"},
             {"serve.generator_lag_p90_ms", "ms"},
             {"setup.fit_s", "s"},
             {"setup.calibrate_s", "s"},
             {"setup.scenes_s", "s"},
             {"trace.unattributed_frac", "frac"},
             {"trace.overhead_frac", "frac"},
             {"host.ref_ms", "ms"},
             {"host.ref_spread", "frac"},
             {"latency_samples", "count"},
             {"face_recall", "frac"},
             {"false_reject_frac", "frac"},
             {"failed_frac", "frac"},
         }) {
      t.push_back(row);
    }
    return t;
  }();
  return table;
}

}  // namespace

std::vector<Metric> layer_rows(const std::map<std::string, double>& values) {
  std::vector<Metric> rows;
  for (const auto& [name, unit] : layer_table()) {
    const auto it = values.find(name);
    rows.push_back({name, it == values.end() ? 0.0 : it->second, unit});
  }
  for (const auto& [name, value] : values) {
    bool known = false;
    for (const auto& row : layer_table()) known = known || row.first == name;
    if (!known) throw std::logic_error("unlisted per-layer row " + name);
  }
  return rows;
}

void add_host_rows(std::map<std::string, double>& values,
                   const HostProbe& probe) {
  const auto& h = probe.samples_ms();
  const double ref = median(h);
  values["host.ref_ms"] = ref;
  values["host.ref_spread"] =
      ref > 0.0 ? (quantile(h, 0.75) - quantile(h, 0.25)) / ref : 0.0;
}

void add_scoring_rows(std::map<std::string, double>& values,
                      pipeline::HdFacePipeline& pipeline,
                      const std::vector<image::Image>& windows) {
  std::vector<core::Hypervector> queries;
  for (const auto& w : windows) queries.push_back(pipeline.encode_image(w));
  const auto& classifier = pipeline.classifier();
  double checksum = 0.0;
  std::size_t calls = 0;
  auto t0 = Clock::now();
  while (ms_between(t0, Clock::now()) < 50.0) {
    for (const auto& q : queries) checksum += classifier.scores(q).back();
    calls += queries.size();
  }
  values["learn.full_d_score_us"] =
      ms_between(t0, Clock::now()) * 1e3 / static_cast<double>(calls);

  const core::PrototypeBlock block(classifier.binary_prototypes());
  std::vector<std::size_t> dist(block.count());
  calls = 0;
  t0 = Clock::now();
  while (ms_between(t0, Clock::now()) < 50.0) {
    for (const auto& q : queries) {
      block.hamming_many(q, dist);
      checksum += static_cast<double>(dist[0]);
    }
    calls += queries.size();
  }
  values["core.hamming_many_ns"] =
      ms_between(t0, Clock::now()) * 1e6 / static_cast<double>(calls);
  require(std::isfinite(checksum), "non-finite classifier scores");
}

}  // namespace e2e
