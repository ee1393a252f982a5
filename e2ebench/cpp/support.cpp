// hdlint: allow-file(wall-clock) — the benchmark measures elapsed time; no
// timing ever feeds back into what the detector computes.

#include "support.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <fstream>
#include <thread>

#include "dataset/dataset.hpp"
#include "dataset/face_generator.hpp"
#include "pipeline/cascade.hpp"
#include "pipeline/hdface_pipeline.hpp"

namespace e2e {

using namespace hdface;

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  return 0.0;
}

std::int64_t Tracer::begin(std::string name, std::uint64_t request,
                           std::int64_t parent) {
  if (!enabled_) return -1;
  spans_.push_back(Span{std::move(name), request, parent, Clock::now(), {}});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

void Tracer::end(std::int64_t span) {
  if (span >= 0) spans_[static_cast<std::size_t>(span)].end = Clock::now();
}

std::int64_t Tracer::add(std::string name, std::uint64_t request,
                         std::int64_t parent, Clock::time_point start,
                         Clock::time_point end) {
  if (!enabled_) return -1;
  spans_.push_back(Span{std::move(name), request, parent, start, end});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

double Tracer::duration_ms(std::int64_t span) const {
  const Span& s = spans_.at(static_cast<std::size_t>(span));
  return ms_between(s.start, s.end);
}

double Tracer::self_ms(std::int64_t span) const {
  // Union of the children's intervals, clipped to the parent's.
  const Span& s = spans_.at(static_cast<std::size_t>(span));
  std::vector<std::pair<Clock::time_point, Clock::time_point>> kids;
  for (const Span& c : spans_) {
    if (c.parent != span) continue;
    kids.emplace_back(std::max(c.start, s.start), std::min(c.end, s.end));
  }
  std::sort(kids.begin(), kids.end());
  double covered = 0.0;
  Clock::time_point reach = s.start;
  for (const auto& [a, b] : kids) {
    const Clock::time_point from = std::max(a, reach);
    if (b > from) {
      covered += ms_between(from, b);
      reach = b;
    }
  }
  return ms_between(s.start, s.end) - covered;
}

void Tracer::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::fprintf(f, "[\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "  {\"id\": %zu, \"name\": \"%s\", \"request\": %llu, "
                 "\"parent\": %lld, \"start_ms\": %.4f, \"end_ms\": %.4f}%s\n",
                 i, s.name.c_str(), static_cast<unsigned long long>(s.request),
                 static_cast<long long>(s.parent), ms_between(origin_, s.start),
                 ms_between(origin_, s.end),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  std::fclose(f);
}

void HostProbe::tick() {
  const auto now = Clock::now();
  if (samples_.empty() || ms_between(last_, now) >= kIntervalMs) sample();
}

void HostProbe::sample() {
  // A dependent xorshift/popcount chain: no memory traffic, no allocation,
  // the same instruction stream on every run (~1 ms on a current core).
  const auto t0 = Clock::now();
  std::uint64_t x = 0x9E3779B97F4A7C15ULL ^ sink_;
  std::uint64_t acc = 0;
  for (int i = 0; i < 400000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    acc += static_cast<std::uint64_t>(std::popcount(x));
  }
  sink_ += acc & 1;
  last_ = Clock::now();
  samples_.push_back(ms_between(t0, last_));
}

namespace {

void mix(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFFULL;
    h *= 1099511628211ULL;
  }
}

}  // namespace

std::uint64_t map_hash(const pipeline::DetectionMap& map) {
  std::uint64_t h = 1469598103934665603ULL;
  mix(h, map.steps_x);
  mix(h, map.steps_y);
  for (const int p : map.predictions) {
    mix(h, static_cast<std::uint64_t>(static_cast<std::uint32_t>(p)));
  }
  for (const double s : map.scores) mix(h, std::bit_cast<std::uint64_t>(s));
  return h;
}

std::uint64_t detections_hash(
    const std::vector<pipeline::Detection>& detections) {
  std::uint64_t h = 1469598103934665603ULL;
  mix(h, detections.size());
  for (const auto& d : detections) {
    mix(h, d.x);
    mix(h, d.y);
    mix(h, d.size);
    mix(h, std::bit_cast<std::uint64_t>(d.score));
  }
  return h;
}

std::uint64_t image_hash(const image::Image& img) {
  std::uint64_t h = 1469598103934665603ULL;
  mix(h, img.width());
  mix(h, img.height());
  for (const float p : img.pixels()) mix(h, std::bit_cast<std::uint32_t>(p));
  return h;
}

std::size_t hardware_threads() {
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

Model build_model(std::size_t dim, std::size_t window, bool fast_path) {
  pipeline::HdFaceConfig cfg;
  cfg.dim = dim;
  cfg.mode = pipeline::HdFaceMode::kHdHog;
  cfg.hd_hog_mode = hog::HdHogMode::kFaithful;
  cfg.hog.cell_size = 4;
  cfg.hog.bins = 8;
  cfg.epochs = 30;
  Model model{api::DetectorBuilder().window(window).dim(dim).config(cfg).build(),
              {}};

  const auto t0 = Clock::now();
  auto train_cfg = dataset::face2_config(400, 42);
  train_cfg.image_size = window;
  model.detector.fit(dataset::make_face_dataset(train_cfg));
  auto& pl = *model.detector.pipeline();
  if (fast_path) {
    // Inference on the binarized prototypes, as the cascade's prefix stages
    // score them (the configuration the calibrated cascade was tuned for).
    pl.mutable_classifier().set_binary_override(
        pl.classifier().binary_prototypes());
  }
  const auto t1 = Clock::now();
  model.fit_s = ms_between(t0, t1) / 1e3;
  if (!fast_path) return model;

  pipeline::CascadeCalibrationConfig cc;
  cc.stage_fractions = {0.0625, 0.125, 0.25, 0.5};
  cc.slack = 0.001;
  cc.window = window;
  cc.stride = kStride;
  cc.prescreen = true;
  cc.prescreen_fraction = 0.25;
  cc.threads = hardware_threads();
  const auto scenes = pipeline::cascade_calibration_scenes(
      2, window, kSceneW, kSceneH, 2, kCalibrationSeed);
  model.table = pipeline::calibrate_cascade(pl, scenes, cc);
  model.calibrate_s = ms_between(t1, Clock::now()) / 1e3;
  return model;
}

}  // namespace e2e
