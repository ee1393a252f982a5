#pragma once

// Early-reject similarity cascade over the cell-plane scan (DESIGN.md §13).
//
// A staged window scorer: each window's query hypervector is assembled and
// scored one word-prefix at a time (hog::HdHogExtractor::StagedWindow +
// core::PrototypeBlock::hamming_many_range), and a window whose positive-
// class margin falls below the stage's calibrated threshold is rejected
// without ever paying for the rest of the bundle or the full-D score.
// Survivors are escalated to the COMPLETE feature and scored by the
// unchanged classifier path, so a survivor's (prediction, score) is
// bit-identical to the exact scan's — the cascade can only turn
// would-be-detections into rejections (false rejects), never perturb a
// survivor, and calibration picks thresholds with zero false rejects on the
// calibration scenes by construction (τ = min positive margin − slack).
//
// Determinism: staged assembly is bit-identical to one-shot assembly at
// every prefix (see StagedWindow), prefix Hamming tiles exactly to the full
// distance (see hamming_block_range), and the per-stage thresholds are plain
// doubles — so a cascaded scan is a pure function of (model, scene, table),
// independent of thread count; stage statistics merge from per-chunk shards
// with integer adds and are exact at every thread count too.

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/op_counter.hpp"
#include "core/prototype_block.hpp"
#include "dataset/background_generator.hpp"
#include "hog/hd_hog.hpp"
#include "image/image.hpp"
#include "learn/hdc_model.hpp"
#include "pipeline/cascade_types.hpp"

namespace hdface::pipeline {

class HdFacePipeline;

// The staged scorer. Immutable after construction; one instance is shared
// read-only by every chunk of a scan (per-chunk scratch lives in Scratch /
// StagedWindow).
class Cascade {
 public:
  // Binarizes the classifier's prototypes into an SoA block for the prefix
  // stages (the same binarization the robustness studies deploy). Throws
  // std::invalid_argument when the table's dim/classes/positive_class
  // mismatch the classifier or its stages are malformed (empty, words not
  // strictly ascending within (0, total words], non-finite thresholds).
  Cascade(const learn::HdcClassifier& classifier, const CascadeTable& table);

  const CascadeTable& table() const { return table_; }
  std::size_t num_stages() const { return table_.stages.size(); }
  std::size_t total_words() const { return total_words_; }
  const core::PrototypeBlock& prototypes() const { return prototypes_; }
  bool has_prescreen() const { return table_.prescreen_words > 0; }

  struct Result {
    int prediction = 0;
    double score = 0.0;
    bool rejected = false;   // true when a prefix stage rejected the window
    std::size_t stage = 0;   // rejecting stage index (valid when rejected)
  };

  // Per-chunk scratch: cumulative and per-range prefix distances.
  struct Scratch {
    std::vector<std::size_t> cum;
    std::vector<std::size_t> part;
  };

  // Score one window. `window` must have been reset() on the window's plane
  // origin. Survivors assemble the full feature and score through
  // classifier.scores() — identical to the exact path. Rejected windows
  // report the best rival class as prediction and the prefix's normalized
  // positive similarity (1 − 2·H/d ∈ [−1, 1]) as score. `stats` is a
  // per-chunk local (merged by the caller); `counter` receives the prefix
  // Hamming + staged bundle op charges.
  Result classify(const learn::HdcClassifier& classifier,
                  hog::HdHogExtractor::StagedWindow& window, Scratch& scratch,
                  CascadeStats& stats, core::OpCounter* counter = nullptr) const;

  // Cell-subset prescreen (valid only when has_prescreen()). `window` must
  // have been reset_prescreen() on the window's plane origin — the feature is
  // bundled from ONLY the window's even/even parity cells, so the prefix is
  // NOT a prefix of the full feature and a survivor must reset() again before
  // classify(). Rejected windows report the same (best rival, 1 − 2H/d)
  // convention as a stage rejection, with stage = 0. The scan fills a
  // window's other cells only when it survives this, which is what keeps
  // non-parity cells of all-rejected regions unencoded.
  Result prescreen(hog::HdHogExtractor::StagedWindow& window, Scratch& scratch,
                   CascadeStats& stats,
                   core::OpCounter* counter = nullptr) const;

  // The stage statistic: per-dimension lead of the positive class over its
  // best rival after a prefix of `prefix_dims` dimensions. Shared with
  // calibration so calibrated thresholds compare against the exact doubles
  // the scan computes.
  static double margin_of(std::span<const std::size_t> cum_distances,
                          std::size_t prefix_dims, int positive_class);

 private:
  CascadeTable table_;
  core::PrototypeBlock prototypes_;
  std::size_t total_words_ = 0;
};

// --- offline calibration ----------------------------------------------------

struct CascadeCalibrationConfig {
  // Cumulative prefix widths as fractions of the feature's words; each maps
  // to max(1, llround(fraction · words)) and must end strictly ascending.
  std::vector<double> stage_fractions = {0.0625, 0.25};
  // Safety slack subtracted from the minimum positive margin at each stage.
  // Zero false rejects on the calibration scenes holds for ANY slack ≥ 0 (the
  // threshold sits strictly below every calibration positive's margin);
  // slack buys headroom for unseen scenes at the price of pass rate.
  double slack = 0.02;
  std::size_t window = 0;  // scan window (pixels)
  std::size_t stride = 0;  // scan stride (pixels)
  int positive_class = 1;
  // Threads for the golden-map scans (the margins themselves are computed
  // serially; results are identical at any setting).
  std::size_t threads = 1;
  // Calibrate a cell-subset prescreen (CascadeTable::prescreen_words): score
  // each window over only its even/even parity cells before stage 0. Requires
  // stride % cell_size == 0 (so the plane's grid step equals the cell size
  // and the parity subgrid is well defined); throws otherwise.
  bool prescreen = false;
  // Prefix width of the prescreen bundle as a fraction of the feature's
  // words. The prescreen feature is NOT a prefix of the full feature, so this
  // is independent of stage_fractions.
  double prescreen_fraction = 0.25;
  // Relative headroom for the orientation-spread floor
  // (CascadeTable::prescreen_spread_below = (1 − headroom) · minimum positive
  // spread). Relative, not absolute: the spread is an unnormalized energy
  // whose magnitude scales with the window's parity cell count, so a fixed
  // offset would not transfer across geometries. Must lie in [0, 1];
  // 1 disables the floor (threshold 0), 0 pins it at the calibration minimum.
  double prescreen_spread_headroom = 0.1;
};

// Deterministic offline calibration over golden detection maps: runs the
// exact cell-plane scan on every scene, collects the per-stage margins of
// every window the exact path predicts positive, and sets each stage's
// threshold to (minimum positive margin − slack). Pure function of
// (pipeline, scenes, config): two runs emit byte-identical tables
// (cascade_table_to_text). Throws std::invalid_argument on empty scenes,
// malformed fractions, or calibration scenes with no positive windows (a
// threshold calibrated on nothing would reject everything).
CascadeTable calibrate_cascade(HdFacePipeline& pipeline,
                               const std::vector<image::Image>& scenes,
                               const CascadeCalibrationConfig& config);

// --- threshold table serialization ------------------------------------------

// Versioned text form. Thresholds are serialized as C hexfloats ("%a"), so
// the round-trip is exact and the bytes are a pure function of the table —
// the calibration determinism tests diff these strings directly.
std::string cascade_table_to_text(const CascadeTable& table);

// Parses cascade_table_to_text output; throws std::runtime_error on
// malformed or version-mismatched input.
CascadeTable cascade_table_from_text(std::string_view text);

void save_cascade_table(const std::string& path, const CascadeTable& table);
CascadeTable load_cascade_table(const std::string& path);

// --- calibration workload ---------------------------------------------------

// Deterministic sparse-scene family shared by tools/cascade_calibrate,
// bench/cascade and the parity tests: `count` scenes of width × height with
// `faces_per_scene` rendered faces pasted at deterministic positions over a
// `background`-kind texture (plus the training pipeline's sensor noise).
// Sparse scenes are where the cascade pays — almost every window is
// background, and background margins collapse after a short prefix. kMixed
// is the default because it matches the training negatives (which draw a
// random background kind per window): out-of-distribution backgrounds make
// the classifier fire on clutter, and those epsilon-margin positives drag
// every calibrated threshold into the background margin mass.
std::vector<image::Image> cascade_calibration_scenes(
    std::size_t count, std::size_t window, std::size_t width,
    std::size_t height, std::size_t faces_per_scene, std::uint64_t seed,
    dataset::BackgroundKind background = dataset::BackgroundKind::kMixed);

}  // namespace hdface::pipeline
