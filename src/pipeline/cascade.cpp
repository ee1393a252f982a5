#include "pipeline/cascade.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "core/rng.hpp"
#include "dataset/background_generator.hpp"
#include "dataset/face_generator.hpp"
#include "image/draw.hpp"
#include "image/transform.hpp"
#include "pipeline/hdface_pipeline.hpp"
#include "pipeline/parallel_detect.hpp"

namespace hdface::pipeline {

namespace {

// Salt separating the calibration-scene stream from every other consumer of
// a workload seed.
constexpr std::uint64_t kCalibrationSceneSalt = 0xCA5CADE5ULL;

constexpr std::uint32_t kCascadeTableVersion = 1;
// v2 = v1 plus one "prescreen <words> <threshold> <vmax> <spread-floor>"
// line; emitted only when the table carries a prescreen, so prescreen-free
// tables stay byte-identical to every v1 reader/writer.
constexpr std::uint32_t kCascadeTableVersionPrescreen = 2;

void validate_stages(const CascadeTable& table, std::size_t total_words) {
  if (table.stages.empty()) {
    throw std::invalid_argument("Cascade: table has no stages");
  }
  std::size_t prev = 0;
  for (const CascadeStage& s : table.stages) {
    if (s.words <= prev || s.words > total_words) {
      throw std::invalid_argument(
          "Cascade: stage words must be strictly ascending within "
          "(0, feature words]");
    }
    if (!std::isfinite(s.reject_below)) {
      throw std::invalid_argument("Cascade: non-finite stage threshold");
    }
    prev = s.words;
  }
  if (table.prescreen_words > total_words) {
    throw std::invalid_argument(
        "Cascade: prescreen words exceed the feature words");
  }
  if (table.prescreen_words > 0) {
    if (!std::isfinite(table.prescreen_reject_below)) {
      throw std::invalid_argument("Cascade: non-finite prescreen threshold");
    }
    if (!std::isfinite(table.prescreen_vmax) || table.prescreen_vmax <= 0.0) {
      throw std::invalid_argument(
          "Cascade: prescreen normalization scale must be a positive finite "
          "value");
    }
    if (!std::isfinite(table.prescreen_spread_below) ||
        table.prescreen_spread_below < 0.0) {
      throw std::invalid_argument(
          "Cascade: prescreen spread floor must be finite and >= 0");
    }
  }
}

}  // namespace

Cascade::Cascade(const learn::HdcClassifier& classifier,
                 const CascadeTable& table)
    : table_(table) {
  const learn::HdcConfig& cfg = classifier.config();
  if (table.dim != cfg.dim) {
    throw std::invalid_argument(
        "Cascade: table dimensionality mismatches the classifier");
  }
  if (table.classes != cfg.classes) {
    throw std::invalid_argument(
        "Cascade: table class count mismatches the classifier");
  }
  if (cfg.classes < 2) {
    throw std::invalid_argument("Cascade: need at least two classes");
  }
  if (table.positive_class < 0 ||
      static_cast<std::size_t>(table.positive_class) >= cfg.classes) {
    throw std::invalid_argument("Cascade: positive_class out of range");
  }
  // The prefix stages score against the binarized prototypes — the same
  // thresholded representation the binary inference path deploys. Rejection
  // is threshold-gated (never flips a survivor's result), so the cosine/
  // Hamming representational gap is absorbed by calibration: thresholds are
  // learned on exactly this statistic.
  const std::vector<core::Hypervector> protos = classifier.binary_prototypes();
  prototypes_ = core::PrototypeBlock(protos);
  total_words_ = prototypes_.words();
  validate_stages(table_, total_words_);
}

double Cascade::margin_of(std::span<const std::size_t> cum_distances,
                          std::size_t prefix_dims, int positive_class) {
  const auto pos = static_cast<std::size_t>(positive_class);
  std::size_t best_rival = std::numeric_limits<std::size_t>::max();
  for (std::size_t c = 0; c < cum_distances.size(); ++c) {
    if (c == pos) continue;
    best_rival = std::min(best_rival, cum_distances[c]);
  }
  // Positive leads when rivals are FARTHER (larger Hamming distance), so the
  // margin is rival − positive, normalized per prefix dimension.
  return (static_cast<double>(best_rival) -
          static_cast<double>(cum_distances[pos])) /
         static_cast<double>(prefix_dims);
}

Cascade::Result Cascade::classify(const learn::HdcClassifier& classifier,
                                  hog::HdHogExtractor::StagedWindow& window,
                                  Scratch& scratch, CascadeStats& stats,
                                  core::OpCounter* counter) const {
  const std::size_t classes = prototypes_.count();
  const auto pos = static_cast<std::size_t>(table_.positive_class);
  if (stats.stages.size() < table_.stages.size()) {
    stats.stages.resize(table_.stages.size());
  }
  scratch.cum.assign(classes, 0);
  scratch.part.resize(classes);
  ++stats.windows;

  std::size_t prev_words = 0;
  for (std::size_t s = 0; s < table_.stages.size(); ++s) {
    const CascadeStage& stage = table_.stages[s];
    const core::Hypervector& prefix = window.assemble_to(stage.words, counter);
    prototypes_.hamming_many_range(prefix, prev_words, stage.words,
                                   scratch.part, counter);
    for (std::size_t c = 0; c < classes; ++c) scratch.cum[c] += scratch.part[c];
    const std::size_t prefix_dims =
        std::min(prototypes_.dim(), stage.words * 64);
    const double m = margin_of(scratch.cum, prefix_dims,
                               table_.positive_class);
    ++stats.stages[s].entered;
    if (m < stage.reject_below) {
      ++stats.stages[s].rejected;
      Result r;
      r.rejected = true;
      r.stage = s;
      // Best rival by prefix distance (lowest class index wins exact ties —
      // matching argmax-by-first-max of the exact path's tie convention).
      std::size_t best = pos == 0 ? 1 : 0;
      for (std::size_t c = 0; c < classes; ++c) {
        if (c == pos) continue;
        if (scratch.cum[c] < scratch.cum[best]) best = c;
      }
      r.prediction = static_cast<int>(best);
      // Normalized prefix similarity of the positive class, the same
      // δ = 1 − 2H/D statistic the binary inference path reports.
      r.score = 1.0 - 2.0 * static_cast<double>(scratch.cum[pos]) /
                          static_cast<double>(prefix_dims);
      return r;
    }
    prev_words = stage.words;
  }

  // Survivor: full feature, unchanged exact scoring — bit-identical to the
  // non-cascaded scan for this window.
  const core::Hypervector& feature =
      window.assemble_to(window.total_words(), counter);
  const std::vector<double> class_scores = classifier.scores(feature);
  ++stats.exact_scored;
  Result r;
  r.prediction = static_cast<int>(
      std::max_element(class_scores.begin(), class_scores.end()) -
      class_scores.begin());
  r.score = class_scores[pos];
  return r;
}

Cascade::Result Cascade::prescreen(hog::HdHogExtractor::StagedWindow& window,
                                   Scratch& scratch, CascadeStats& stats,
                                   core::OpCounter* counter) const {
  const std::size_t classes = prototypes_.count();
  const auto pos = static_cast<std::size_t>(table_.positive_class);
  scratch.cum.assign(classes, 0);
  ++stats.prescreen_entered;

  // The prescreen bundle (parity cells only) shares nothing with the staged
  // feature, so the whole prefix scores in one range pass into cum directly.
  const core::Hypervector& prefix =
      window.assemble_to(table_.prescreen_words, counter);
  prototypes_.hamming_many_range(prefix, 0, table_.prescreen_words,
                                 scratch.cum, counter);
  const std::size_t prefix_dims =
      std::min(prototypes_.dim(), table_.prescreen_words * 64);
  const double m = margin_of(scratch.cum, prefix_dims, table_.positive_class);
  Result r;
  // Union reject: the prefix-Hamming margin catches windows that resemble a
  // rival class, the orientation-spread floor catches structureless windows
  // whose bundle is far from EVERY prototype (their margin is uninformative —
  // near zero — but their parity cells carry almost no mass off bin 0). Both
  // thresholds are calibrated against the positive minima, so the union keeps
  // the zero-false-reject contract.
  if (m < table_.prescreen_reject_below ||
      window.prescreen_spread() < table_.prescreen_spread_below) {
    ++stats.prescreen_rejected;
    r.rejected = true;
    r.stage = 0;
    // Same rejected-window reporting convention as a stage rejection: best
    // rival by prefix distance (lowest index on exact ties), normalized
    // positive similarity 1 − 2H/d as the score.
    std::size_t best = pos == 0 ? 1 : 0;
    for (std::size_t c = 0; c < classes; ++c) {
      if (c == pos) continue;
      if (scratch.cum[c] < scratch.cum[best]) best = c;
    }
    r.prediction = static_cast<int>(best);
    r.score = 1.0 - 2.0 * static_cast<double>(scratch.cum[pos]) /
                        static_cast<double>(prefix_dims);
  }
  return r;
}

// --- offline calibration ----------------------------------------------------

CascadeTable calibrate_cascade(HdFacePipeline& pipeline,
                               const std::vector<image::Image>& scenes,
                               const CascadeCalibrationConfig& config) {
  if (scenes.empty()) {
    throw std::invalid_argument("calibrate_cascade: no calibration scenes");
  }
  if (config.window == 0 || config.stride == 0) {
    throw std::invalid_argument("calibrate_cascade: zero scan geometry");
  }
  const hog::HdHogExtractor* extractor = pipeline.hd_extractor();
  if (extractor == nullptr) {
    throw std::invalid_argument(
        "calibrate_cascade: cascade calibration requires an HD-HOG pipeline");
  }
  const learn::HdcClassifier& classifier = pipeline.classifier();
  const std::size_t dim = classifier.config().dim;
  const std::size_t classes = classifier.config().classes;
  const std::size_t total_words = (dim + 63) / 64;

  // Map fractions to cumulative word widths (deduplicated, ascending).
  if (config.stage_fractions.empty()) {
    throw std::invalid_argument("calibrate_cascade: no stage fractions");
  }
  std::vector<std::size_t> stage_words;
  for (const double f : config.stage_fractions) {
    if (!std::isfinite(f) || f <= 0.0 || f > 1.0) {
      throw std::invalid_argument(
          "calibrate_cascade: stage fraction outside (0, 1]");
    }
    const auto w = static_cast<std::size_t>(std::max<long long>(
        1, std::llround(f * static_cast<double>(total_words))));
    const std::size_t clamped = std::min(w, total_words);
    if (stage_words.empty() || clamped > stage_words.back()) {
      stage_words.push_back(clamped);
    }
  }

  std::size_t prescreen_words = 0;
  if (config.prescreen) {
    if (!std::isfinite(config.prescreen_fraction) ||
        config.prescreen_fraction <= 0.0 || config.prescreen_fraction > 1.0) {
      throw std::invalid_argument(
          "calibrate_cascade: prescreen fraction outside (0, 1]");
    }
    if (config.stride % extractor->config().hog.cell_size != 0) {
      throw std::invalid_argument(
          "calibrate_cascade: prescreen requires stride % cell_size == 0 so "
          "the plane grid step equals the cell size");
    }
    if (!std::isfinite(config.prescreen_spread_headroom) ||
        config.prescreen_spread_headroom < 0.0 ||
        config.prescreen_spread_headroom > 1.0) {
      throw std::invalid_argument(
          "calibrate_cascade: prescreen spread headroom outside [0, 1]");
    }
    prescreen_words = std::min(
        total_words,
        static_cast<std::size_t>(std::max<long long>(
            1, std::llround(config.prescreen_fraction *
                            static_cast<double>(total_words)))));
  }

  const core::PrototypeBlock block(classifier.binary_prototypes());

  std::vector<double> min_margin(stage_words.size(),
                                 std::numeric_limits<double>::infinity());
  double min_prescreen_margin = std::numeric_limits<double>::infinity();
  double min_prescreen_spread = std::numeric_limits<double>::infinity();
  std::size_t positive_windows = 0;

  ParallelDetectConfig engine;
  engine.threads = config.threads;

  hog::HdHogExtractor::StagedWindow win(*extractor);
  std::vector<std::size_t> cum(classes);
  std::vector<std::size_t> part(classes);

  // Pass 1: golden maps + full planes per scene (the exact cell-plane scan
  // the cascade must not falsely reject from, bit-identical at any thread
  // count), plus every positive window's parity-subset vmax. The prescreen
  // normalization scale must be fixed BEFORE any prescreen margin exists, so
  // the vmax statistics are collected up front.
  std::vector<DetectionMap> maps;
  std::vector<hog::CellPlane> planes;
  std::vector<double> positive_subset_vmax;
  const std::size_t cell = extractor->config().hog.cell_size;
  const std::size_t cells_per_side = config.window / cell;
  for (const image::Image& scene : scenes) {
    maps.push_back(detect_windows_parallel(pipeline, scene, config.window,
                                           config.stride,
                                           config.positive_class, engine));
    const std::size_t grid_step = std::gcd(config.stride, cell);
    planes.push_back(build_scene_cell_plane(pipeline, scene, grid_step, engine));
    const DetectionMap& map = maps.back();
    const hog::CellPlane& plane = planes.back();
    const std::size_t total = map.steps_x * map.steps_y;
    for (std::size_t idx = 0; idx < total; ++idx) {
      if (map.predictions[idx] != config.positive_class) continue;
      if (prescreen_words == 0) continue;
      const std::size_t ox = (idx % map.steps_x) * config.stride;
      const std::size_t oy = (idx / map.steps_x) * config.stride;
      double vmax = extractor->config().histogram_floor;
      for (std::size_t cy = 0; cy < cells_per_side; ++cy) {
        for (std::size_t cx = 0; cx < cells_per_side; ++cx) {
          const std::size_t gx = (ox + cx * cell) / plane.grid_step;
          const std::size_t gy = (oy + cy * cell) / plane.grid_step;
          if (gx % 2 != 0 || gy % 2 != 0) continue;
          const double* cached = plane.cell(gx, gy);
          for (std::size_t b = 0; b < plane.bins; ++b) {
            vmax = std::max(vmax, cached[b]);
          }
        }
      }
      positive_subset_vmax.push_back(vmax);
    }
  }
  // Median over the calibration positives: a fixed, deterministic scale that
  // keeps structureless windows at low histogram levels (self-normalization
  // would inflate a flat window's tiny values by their own tiny maximum and
  // make empty background look maximal — inseparable from faces).
  double prescreen_vmax = 0.0;
  if (!positive_subset_vmax.empty()) {
    std::sort(positive_subset_vmax.begin(), positive_subset_vmax.end());
    prescreen_vmax = positive_subset_vmax[positive_subset_vmax.size() / 2];
  }

  // Pass 2: per-positive prescreen and staged margins.
  for (std::size_t si = 0; si < scenes.size(); ++si) {
    const DetectionMap& map = maps[si];
    const hog::CellPlane& plane = planes[si];
    const std::size_t total = map.steps_x * map.steps_y;
    for (std::size_t idx = 0; idx < total; ++idx) {
      if (map.predictions[idx] != config.positive_class) continue;
      ++positive_windows;
      const std::size_t sx = idx % map.steps_x;
      const std::size_t sy = idx / map.steps_x;
      if (prescreen_words > 0) {
        // The prescreen feature (parity cells only) is disjoint from the
        // staged feature, so its margin is computed from its own reset,
        // normalized by the fixed scale the table will deploy.
        win.reset_prescreen(plane, sx * config.stride, sy * config.stride,
                            prescreen_vmax);
        min_prescreen_spread =
            std::min(min_prescreen_spread, win.prescreen_spread());
        const core::Hypervector& prefix = win.assemble_to(prescreen_words);
        std::fill(cum.begin(), cum.end(), 0);
        block.hamming_many_range(prefix, 0, prescreen_words, cum);
        const std::size_t prefix_dims = std::min(dim, prescreen_words * 64);
        min_prescreen_margin =
            std::min(min_prescreen_margin,
                     Cascade::margin_of(cum, prefix_dims,
                                        config.positive_class));
      }
      win.reset(plane, sx * config.stride, sy * config.stride);
      std::fill(cum.begin(), cum.end(), 0);
      std::size_t prev = 0;
      for (std::size_t s = 0; s < stage_words.size(); ++s) {
        const core::Hypervector& prefix = win.assemble_to(stage_words[s]);
        block.hamming_many_range(prefix, prev, stage_words[s], part);
        for (std::size_t c = 0; c < classes; ++c) cum[c] += part[c];
        const std::size_t prefix_dims = std::min(dim, stage_words[s] * 64);
        min_margin[s] =
            std::min(min_margin[s],
                     Cascade::margin_of(cum, prefix_dims,
                                        config.positive_class));
        prev = stage_words[s];
      }
    }
  }
  if (positive_windows == 0) {
    throw std::invalid_argument(
        "calibrate_cascade: calibration scenes contain no positive windows "
        "(a threshold calibrated on nothing would reject everything)");
  }

  CascadeTable table;
  table.version =
      prescreen_words > 0 ? kCascadeTableVersionPrescreen : kCascadeTableVersion;
  table.seed = pipeline.config().seed;
  table.dim = dim;
  table.classes = classes;
  table.positive_class = config.positive_class;
  table.window = config.window;
  table.stride = config.stride;
  if (prescreen_words > 0) {
    table.prescreen_words = prescreen_words;
    // Same zero-false-reject construction as the stages: strictly below every
    // calibration positive's prescreen margin (computed at the deployed
    // normalization scale).
    table.prescreen_reject_below = min_prescreen_margin - config.slack;
    table.prescreen_vmax = prescreen_vmax;
    // Spread floor below every calibration positive's spread by a relative
    // headroom (the spread is an unnormalized energy, so an absolute slack
    // would not transfer across geometries). Empty background sits near zero,
    // far under any positive, so the headroom costs almost no rejection.
    table.prescreen_spread_below =
        std::max(0.0, min_prescreen_spread *
                          (1.0 - config.prescreen_spread_headroom));
  }
  for (std::size_t s = 0; s < stage_words.size(); ++s) {
    CascadeStage stage;
    stage.words = stage_words[s];
    // Strictly below every calibration positive's margin: zero false rejects
    // on the calibration scenes for any slack ≥ 0.
    stage.reject_below = min_margin[s] - config.slack;
    table.stages.push_back(stage);
  }
  return table;
}

// --- threshold table serialization ------------------------------------------

std::string cascade_table_to_text(const CascadeTable& table) {
  // Fixed-format text with %a (hexfloat) thresholds: exact round-trip and a
  // byte stream that is a pure function of the table — the calibration
  // determinism tests diff these bytes directly.
  std::string out;
  char line[128];
  // The emitted version tracks the content, not the struct field: a table
  // without a prescreen always writes v1 bytes (back-compatible with every
  // pre-prescreen reader), one with a prescreen always writes v2.
  const std::uint32_t version = table.prescreen_words > 0
                                    ? kCascadeTableVersionPrescreen
                                    : kCascadeTableVersion;
  std::snprintf(line, sizeof(line), "hdface-cascade-table v%u\n", version);
  out += line;
  std::snprintf(line, sizeof(line), "seed 0x%llx\n",
                static_cast<unsigned long long>(table.seed));
  out += line;
  std::snprintf(line, sizeof(line), "dim %zu\n", table.dim);
  out += line;
  std::snprintf(line, sizeof(line), "classes %zu\n", table.classes);
  out += line;
  std::snprintf(line, sizeof(line), "positive %d\n", table.positive_class);
  out += line;
  std::snprintf(line, sizeof(line), "window %zu\n", table.window);
  out += line;
  std::snprintf(line, sizeof(line), "stride %zu\n", table.stride);
  out += line;
  if (table.prescreen_words > 0) {
    std::snprintf(line, sizeof(line), "prescreen %zu %a %a %a\n",
                  table.prescreen_words, table.prescreen_reject_below,
                  table.prescreen_vmax, table.prescreen_spread_below);
    out += line;
  }
  std::snprintf(line, sizeof(line), "stages %zu\n", table.stages.size());
  out += line;
  for (const CascadeStage& s : table.stages) {
    std::snprintf(line, sizeof(line), "stage %zu %a\n", s.words,
                  s.reject_below);
    out += line;
  }
  return out;
}

namespace {

[[noreturn]] void parse_fail(const std::string& what) {
  throw std::runtime_error("cascade_table_from_text: " + what);
}

// Reads "key value" off one line; value parsing via strtoull/strtod (strtod
// accepts the %a hexfloats the writer emits).
std::string next_line(std::string_view& text) {
  const std::size_t nl = text.find('\n');
  if (nl == std::string_view::npos) parse_fail("truncated table");
  std::string line(text.substr(0, nl));
  text.remove_prefix(nl + 1);
  return line;
}

std::uint64_t parse_u64_field(std::string_view& text, const char* key) {
  const std::string line = next_line(text);
  const std::string prefix = std::string(key) + " ";
  if (line.rfind(prefix, 0) != 0) parse_fail("expected '" + prefix + "...'");
  const char* begin = line.c_str() + prefix.size();
  char* end = nullptr;
  const unsigned long long v = std::strtoull(begin, &end, 0);
  if (end == begin || *end != '\0') parse_fail("malformed value for " + prefix);
  return static_cast<std::uint64_t>(v);
}

}  // namespace

CascadeTable cascade_table_from_text(std::string_view text) {
  CascadeTable table;
  const std::string header = next_line(text);
  unsigned version = 0;
  if (std::sscanf(header.c_str(), "hdface-cascade-table v%u", &version) != 1) {
    parse_fail("bad magic line '" + header + "'");
  }
  if (version != kCascadeTableVersion &&
      version != kCascadeTableVersionPrescreen) {
    parse_fail("unsupported version " + std::to_string(version));
  }
  table.version = version;
  table.seed = parse_u64_field(text, "seed");
  table.dim = static_cast<std::size_t>(parse_u64_field(text, "dim"));
  table.classes = static_cast<std::size_t>(parse_u64_field(text, "classes"));
  table.positive_class =
      static_cast<int>(parse_u64_field(text, "positive"));
  table.window = static_cast<std::size_t>(parse_u64_field(text, "window"));
  table.stride = static_cast<std::size_t>(parse_u64_field(text, "stride"));
  if (version >= kCascadeTableVersionPrescreen) {
    const std::string line = next_line(text);
    if (line.rfind("prescreen ", 0) != 0) parse_fail("expected 'prescreen ...'");
    const char* begin = line.c_str() + 10;
    char* end = nullptr;
    const unsigned long long words = std::strtoull(begin, &end, 10);
    if (end == begin || *end != ' ') parse_fail("malformed prescreen words");
    begin = end + 1;
    const double threshold = std::strtod(begin, &end);
    if (end == begin || *end != ' ') {
      parse_fail("malformed prescreen threshold");
    }
    begin = end + 1;
    const double vmax = std::strtod(begin, &end);
    if (end == begin || *end != ' ') {
      parse_fail("malformed prescreen normalization scale");
    }
    begin = end + 1;
    const double spread_below = std::strtod(begin, &end);
    if (end == begin || *end != '\0') {
      parse_fail("malformed prescreen spread floor");
    }
    if (words == 0) parse_fail("v2 table with zero prescreen words");
    table.prescreen_words = static_cast<std::size_t>(words);
    table.prescreen_reject_below = threshold;
    table.prescreen_vmax = vmax;
    table.prescreen_spread_below = spread_below;
  }
  const auto n_stages =
      static_cast<std::size_t>(parse_u64_field(text, "stages"));
  if (n_stages > 64) parse_fail("implausible stage count");
  for (std::size_t s = 0; s < n_stages; ++s) {
    const std::string line = next_line(text);
    if (line.rfind("stage ", 0) != 0) parse_fail("expected 'stage ...'");
    const char* begin = line.c_str() + 6;
    char* end = nullptr;
    const unsigned long long words = std::strtoull(begin, &end, 10);
    if (end == begin || *end != ' ') parse_fail("malformed stage words");
    begin = end + 1;
    const double threshold = std::strtod(begin, &end);
    if (end == begin || *end != '\0') parse_fail("malformed stage threshold");
    CascadeStage stage;
    stage.words = static_cast<std::size_t>(words);
    stage.reject_below = threshold;
    table.stages.push_back(stage);
  }
  return table;
}

void save_cascade_table(const std::string& path, const CascadeTable& table) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    throw std::runtime_error("save_cascade_table: cannot open for write: " +
                             path);
  }
  const std::string text = cascade_table_to_text(table);
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
  if (!out) throw std::runtime_error("save_cascade_table: write failed: " + path);
}

CascadeTable load_cascade_table(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("load_cascade_table: cannot open: " + path);
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return cascade_table_from_text(buf.str());
}

// --- calibration workload ---------------------------------------------------

std::vector<image::Image> cascade_calibration_scenes(
    std::size_t count, std::size_t window, std::size_t width,
    std::size_t height, std::size_t faces_per_scene, std::uint64_t seed,
    dataset::BackgroundKind background) {
  if (width < window || height < window) {
    throw std::invalid_argument(
        "cascade_calibration_scenes: scene smaller than the window");
  }
  std::vector<image::Image> scenes;
  scenes.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    core::Rng rng(core::mix64(core::mix64(seed, kCalibrationSceneSalt), i));
    image::Image scene(width, height, 0.5f);
    dataset::render_background(scene, background, rng);
    for (std::size_t f = 0; f < faces_per_scene; ++f) {
      const image::Image face =
          dataset::render_face_window(window, rng.next());
      // Paste origins snapped to multiples of 8 so faces sit exactly under a
      // scan window for every stride dividing 8 (the scan grids the golden
      // maps use) — calibration needs the exact path to fire on them.
      const std::size_t max_x = (width - window) / 8;
      const std::size_t max_y = (height - window) / 8;
      const auto x = static_cast<std::ptrdiff_t>(rng.below(max_x + 1) * 8);
      const auto y = static_cast<std::ptrdiff_t>(rng.below(max_y + 1) * 8);
      image::paste(scene, face, x, y);
    }
    // Sensor noise matched to the training windows (face_generator adds
    // the same to every dataset window): a noise-free scene is out of the
    // training distribution, and the classifier's background margins
    // collapse on it — which blunts the cascade's shallow stages.
    image::add_gaussian_noise(scene, rng, 0.03f);
    scenes.push_back(std::move(scene));
  }
  return scenes;
}

}  // namespace hdface::pipeline
