#pragma once

// Shared pieces of the end-to-end benchmark: run options, metric records,
// quantiles, the span recorder, the host-speed probe, output digests and the
// detector set-up every workload starts from.
//
// hdlint: allow-file(wall-clock) — the benchmark measures elapsed time; no
// timing ever feeds back into what the detector computes.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/detector.hpp"
#include "pipeline/cascade_types.hpp"
#include "pipeline/detection.hpp"

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// Command-line options of one run.
struct RunOptions {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_out;    // where a traced run writes its spans
  // Test hook: "hash" or "response" corrupts one compared value so the
  // benchmark's own tests can show that the correctness checks fail the run.
  std::string inject;
};

// Set-ups per run; setup_s is their median, so one slow set-up does not
// decide it.
constexpr std::size_t kSetupReps = 3;

// One reported number.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  // Environment and sample-size facts printed beside the result.
  std::vector<std::pair<std::string, std::string>> info;
};

// A correctness check failed: the run exits non-zero without a result.
struct CheckFailure : std::runtime_error {
  using std::runtime_error::runtime_error;
};

inline void require(bool ok, const std::string& what) {
  if (!ok) throw CheckFailure(what);
}

// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample.
double quantile(std::vector<double> values, double q);
double median(const std::vector<double>& values);

// Peak resident set of this process (VmHWM), MiB.
double peak_rss_mb();

// Span recorder for traced runs. Spans are kept in memory and written as
// JSON when the run ends. A span's self time is its duration minus the part
// of its interval covered by its children.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::uint64_t request = 0;
    std::int64_t parent = -1;  // index into spans(), -1 for a root
    Clock::time_point start{};
    Clock::time_point end{};
  };

  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  // Returns the span index (-1 when tracing is off).
  std::int64_t begin(std::string name, std::uint64_t request,
                     std::int64_t parent = -1);
  void end(std::int64_t span);
  // A span whose interval was measured elsewhere (e.g. by the server).
  std::int64_t add(std::string name, std::uint64_t request,
                   std::int64_t parent, Clock::time_point start,
                   Clock::time_point end);

  const std::vector<Span>& spans() const { return spans_; }
  double duration_ms(std::int64_t span) const;
  double self_ms(std::int64_t span) const;
  // Writes every span (times in ms from tracer creation) to `path`.
  void write_json(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

// Host-speed diagnostic: a fixed integer loop owned by the benchmark, timed
// at intervals through a run. Its spread tells a slow host phase from a slow
// change; it never scales any end-to-end metric.
class HostProbe {
 public:
  // Samples the loop when at least kIntervalMs has passed since the last
  // sample; cheap to call between requests.
  void tick();
  void sample();
  const std::vector<double>& samples_ms() const { return samples_; }

 private:
  static constexpr double kIntervalMs = 500.0;
  Clock::time_point last_{};
  std::vector<double> samples_;
  std::uint64_t sink_ = 0;
};

// FNV-1a digests of scan outputs.
std::uint64_t map_hash(const hdface::pipeline::DetectionMap& map);
std::uint64_t detections_hash(
    const std::vector<hdface::pipeline::Detection>& detections);
std::uint64_t image_hash(const hdface::image::Image& img);

// The trained detector every workload serves, plus the calibrated cascade
// table the scan workloads run (empty when not calibrated).
struct Model {
  hdface::api::Detector detector;
  hdface::pipeline::CascadeTable table;
  double fit_s = 0.0;
  double calibrate_s = 0.0;
};

// Geometry of the scan workloads' detector (D = 4096).
constexpr std::size_t kScanDim = 4096;
constexpr std::size_t kWindow = 32;
constexpr std::size_t kStride = 8;
constexpr std::size_t kSceneW = 384;
constexpr std::size_t kSceneH = 288;
// Calibration scenes are drawn from this seed; held-out scenes never are.
constexpr std::uint64_t kCalibrationSeed = 0xCAFE;

// Trains a detector of `dim` dimensions on 400 `window`-sized training
// windows (30 epochs, fixed training seed). With `fast_path`, inference
// switches to the binarized prototypes and a prescreen-carrying cascade is
// calibrated on the calibration scenes; without it the model is the plain
// fitted detector the server runs (a fault plan's session clears any binary
// override it finds, so a served model must not carry one). The model is
// part of the system under test, so it does not depend on the workload seed.
Model build_model(std::size_t dim, std::size_t window, bool fast_path);

// Engine threads for this host (nproc).
std::size_t hardware_threads();

}  // namespace e2e
