// Early-reject similarity cascade: stage pass rates, end-to-end speedup vs
// the exact cell-plane scan, and accuracy delta vs the golden maps.
//
// hdlint: allow-file(wall-clock) — this bench *measures* elapsed time; the
// timings are reported output and never influence what the detector computes.
//
// Workload: the deterministic sparse calibration scenes (almost every window
// is background — the geometry where the cascade pays). The bench
//   1. calibrates a threshold table over the scenes (the same pass
//      tools/cascade_calibrate runs),
//   2. times the exact cell-plane scan per scene (the golden maps),
//   3. checks DetectOptions::cascade in kExact mode hashes bit-identical to
//      the cascade-free golden maps (the exact-mode contract),
//   4. times the calibrated cascade scan, counts false rejects against the
//      golden maps (must be zero — calibration scenes are the training set of
//      the thresholds), verifies every survivor is bit-identical to its
//      golden entry, and reports per-stage pass rates,
//   5. decomposes cost: builds each scene's cell plane once, then times the
//      exact and cascaded SCAN STAGES directly on the prebuilt planes
//      (detect_windows_on_plane). The plane build is a fixed cost both paths
//      share — the cascade only accelerates the per-window scan on top of it
//      (DESIGN.md §13.4) — so the honest pair of numbers is the cold
//      end-to-end speedup (plane + scan) and the scan-stage speedup (the
//      plane-amortized regime: threshold sweeps, re-detection, any workload
//      that scans a cached plane more than once).
// Results land in bench_out/cascade.json; CI (cascade-smoke) gates with jq on
// stage-1 pass rate < 0.5, false_rejects == 0 and the bit-identity flags.
// The exit code enforces the correctness half (identity + zero false
// rejects); the ≥3x scan-stage speedup is the acceptance headline, printed
// and stored as scan_speedup.
//
// Usage:
//   ./build/bench/cascade [--dim 4096] [--train 400] [--epochs 30]
//                         [--window 32] [--stride 8] [--scenes 2]
//                         [--scene-width 384] [--scene-height 288]
//                         [--faces 2] [--reps 2] [--slack 0.001]
//                         [--stages 0.0625,0.125,0.25,0.5]
//                         [--background mixed] [--threads 1]

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <functional>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/detector.hpp"
#include "common.hpp"
#include "core/kernels/kernels.hpp"
#include "pipeline/cascade.hpp"
#include "pipeline/parallel_detect.hpp"

namespace {

using namespace hdface;
using Clock = std::chrono::steady_clock;

double best_of(std::size_t reps, const std::function<void()>& fn) {
  double best = 1e300;
  for (std::size_t r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    fn();
    const auto t1 = Clock::now();
    best = std::min(best,
                    std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  return best;
}

// FNV-1a over the full map content — the same digest bench/encode_cache.cpp
// publishes, so exact-mode hashes are comparable across benches.
std::uint64_t map_hash(const pipeline::DetectionMap& m) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFFULL;
      h *= 1099511628211ULL;
    }
  };
  mix(m.steps_x);
  mix(m.steps_y);
  for (const int p : m.predictions) {
    mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(p)));
  }
  for (const double s : m.scores) mix(std::bit_cast<std::uint64_t>(s));
  return h;
}

std::vector<double> parse_fractions(const std::string& csv) {
  std::vector<double> out;
  std::size_t pos = 0;
  while (pos < csv.size()) {
    std::size_t next = csv.find(',', pos);
    if (next == std::string::npos) next = csv.size();
    out.push_back(std::stod(csv.substr(pos, next - pos)));
    pos = next + 1;
  }
  if (out.empty()) throw std::invalid_argument("--stages: no fractions");
  return out;
}

dataset::BackgroundKind parse_background(const std::string& name) {
  if (name == "value-noise") return dataset::BackgroundKind::kValueNoise;
  if (name == "stripes") return dataset::BackgroundKind::kStripes;
  if (name == "blobs") return dataset::BackgroundKind::kBlobs;
  if (name == "gradient") return dataset::BackgroundKind::kGradient;
  if (name == "checker") return dataset::BackgroundKind::kChecker;
  if (name == "mixed") return dataset::BackgroundKind::kMixed;
  throw std::invalid_argument("--background: unknown kind '" + name + "'");
}

}  // namespace

int main(int argc, char** argv) {
  const util::Args args(argc, argv);
  const auto dim = static_cast<std::size_t>(args.get_int("dim", 4096));
  const auto n_train = static_cast<std::size_t>(args.get_int("train", 400));
  const auto window = static_cast<std::size_t>(args.get_int("window", 32));
  const auto stride = static_cast<std::size_t>(args.get_int("stride", 8));
  const auto n_scenes = static_cast<std::size_t>(args.get_int("scenes", 2));
  const auto scene_w =
      static_cast<std::size_t>(args.get_int("scene-width", 384));
  const auto scene_h =
      static_cast<std::size_t>(args.get_int("scene-height", 288));
  const auto faces = static_cast<std::size_t>(args.get_int("faces", 2));
  const auto epochs = static_cast<std::size_t>(args.get_int("epochs", 30));
  const auto reps = static_cast<std::size_t>(args.get_int("reps", 2));
  const double slack = args.get_double("slack", 0.001);
  const auto threads = static_cast<std::size_t>(args.get_int("threads", 1));
  const std::vector<double> fractions =
      parse_fractions(args.get("stages", "0.0625,0.125,0.25,0.5"));
  // Mixed background by default: calibration scenes must look like the
  // training distribution (whose negatives draw a random background kind per
  // window) or the classifier fires on out-of-distribution clutter and the
  // partial-overlap positives drag every threshold down.
  const std::string background_name = args.get("background", "mixed");
  const dataset::BackgroundKind background = parse_background(background_name);

  bench::print_header("Early-reject similarity cascade",
                      "holographic prefix scoring (DESIGN.md §13), "
                      "sparse-scene Fig 6 scan workload");

  // Sharp-classifier regime: high D and long training make the binarized
  // margins decisive, so partial-overlap windows are rejected instead of
  // becoming epsilon-margin positives that drag every calibrated threshold
  // into the background margin mass (DESIGN.md §13.4). Rejection power —
  // and therefore the scan-stage speedup — is a property of the classifier,
  // not of the cascade machinery.
  auto det_cfg = bench::hdface_config(dim);
  det_cfg.epochs = epochs;
  api::Detector det = api::DetectorBuilder()
                          .window(window)
                          .dim(dim)
                          .config(det_cfg)
                          .build();
  auto train_cfg = dataset::face2_config(n_train, 42);
  train_cfg.image_size = window;
  const auto train = make_face_dataset(train_cfg);
  std::printf("training (D=%zu, %zu windows of %zupx)...\n", dim, train.size(),
              window);
  det.fit(train);
  // Binary Hamming inference (the robustness/hardware deployment mode): the
  // cascade's prefix stages live in binarized-prototype Hamming space, so
  // scoring the golden maps there too puts every positive window's full-D
  // margin strictly above zero. Under cosine inference a float-positive
  // window can be a binary-space loser, and that one outlier drags every
  // calibrated threshold below the background margin distribution.
  det.pipeline()->mutable_classifier().set_binary_override(
      det.pipeline()->classifier().binary_prototypes());

  const auto scenes = pipeline::cascade_calibration_scenes(
      n_scenes, window, scene_w, scene_h, faces, 0xCAFE, background);

  // --- calibration (the tools/cascade_calibrate pass) ----------------------
  pipeline::CascadeCalibrationConfig cc;
  cc.stage_fractions = fractions;
  cc.slack = slack;
  cc.window = window;
  cc.stride = stride;
  cc.threads = threads;
  const pipeline::CascadeTable table =
      pipeline::calibrate_cascade(*det.pipeline(), scenes, cc);
  std::printf("calibrated %zu stage(s) over %zu scene(s):\n",
              table.stages.size(), scenes.size());
  for (std::size_t s = 0; s < table.stages.size(); ++s) {
    std::printf("  stage %zu: %zu/%zu words, reject margin < %+.5f\n", s,
                table.stages[s].words, (dim + 63) / 64,
                table.stages[s].reject_below);
  }

  api::DetectOptions exact_opts;
  exact_opts.threads = threads;
  exact_opts.stride = stride;

  // --- exact scan: golden maps + baseline time -----------------------------
  std::vector<pipeline::DetectionMap> golden(scenes.size());
  const double t_exact = best_of(reps, [&] {
    for (std::size_t i = 0; i < scenes.size(); ++i) {
      golden[i] = det.detect_map(scenes[i], exact_opts);
    }
  });
  std::size_t windows_total = 0;
  for (const auto& g : golden) windows_total += g.steps_x * g.steps_y;

  // --- exact cascade mode: must hash identical to the golden maps ----------
  api::DetectOptions exact_mode = exact_opts;
  exact_mode.cascade =
      pipeline::CascadeConfig{pipeline::CascadeMode::kExact, table};
  bool exact_identical = true;
  for (std::size_t i = 0; i < scenes.size(); ++i) {
    const auto map = det.detect_map(scenes[i], exact_mode);
    exact_identical =
        exact_identical && map_hash(map) == map_hash(golden[i]);
  }

  // --- calibrated cascade scan ---------------------------------------------
  api::DetectOptions cascade_opts = exact_opts;
  cascade_opts.cascade =
      pipeline::CascadeConfig{pipeline::CascadeMode::kCalibrated, table};
  pipeline::CascadeStats stats;
  api::Telemetry telemetry;
  telemetry.cascade = &stats;
  cascade_opts.telemetry = telemetry;
  std::vector<pipeline::DetectionMap> cascaded(scenes.size());
  const double t_cascade = best_of(reps, [&] {
    stats = {};
    for (std::size_t i = 0; i < scenes.size(); ++i) {
      cascaded[i] = det.detect_map(scenes[i], cascade_opts);
    }
  });
  const double speedup = t_exact / t_cascade;

  // --- cost decomposition: the shared plane-encode floor --------------------
  // Both paths pay the same scene cell-plane build before any window work;
  // the cascade can only cut the per-window scan on top of it. Build each
  // scene's plane ONCE, then time the two scan stages directly on the
  // prebuilt planes (detect_windows_on_plane) — a direct measurement, not a
  // cross-run subtraction, so scan_speedup is robust to plane-build variance.
  const std::size_t grid_step =
      std::gcd(stride, det.pipeline()->config().hog.cell_size);
  pipeline::ParallelDetectConfig scan_cfg;
  scan_cfg.threads = threads;
  std::vector<hog::CellPlane> planes(scenes.size());
  const double t_plane = best_of(reps, [&] {
    for (std::size_t i = 0; i < scenes.size(); ++i) {
      planes[i] = pipeline::build_scene_cell_plane(*det.pipeline(), scenes[i],
                                                   grid_step, scan_cfg);
    }
  });
  // The plane-reuse scan must reproduce the golden maps bit-for-bit (it is
  // the same post-plane code path detect_windows_parallel runs).
  bool plane_reuse_identical = true;
  const double scan_exact = best_of(reps, [&] {
    for (std::size_t i = 0; i < scenes.size(); ++i) {
      const auto map = pipeline::detect_windows_on_plane(
          *det.pipeline(), scenes[i], planes[i], window, stride, 1, scan_cfg);
      plane_reuse_identical =
          plane_reuse_identical && map_hash(map) == map_hash(golden[i]);
    }
  });
  pipeline::Cascade cascade_engine(det.pipeline()->classifier(), table);
  pipeline::ParallelDetectConfig cascade_scan_cfg = scan_cfg;
  cascade_scan_cfg.cascade = &cascade_engine;
  const double scan_cascade = best_of(reps, [&] {
    for (std::size_t i = 0; i < scenes.size(); ++i) {
      const auto map = pipeline::detect_windows_on_plane(
          *det.pipeline(), scenes[i], planes[i], window, stride, 1,
          cascade_scan_cfg);
      plane_reuse_identical =
          plane_reuse_identical && map_hash(map) == map_hash(cascaded[i]);
    }
  });
  const double scan_speedup = scan_exact / scan_cascade;

  // --- accuracy delta vs the golden maps -----------------------------------
  std::size_t false_rejects = 0;
  std::size_t golden_positives = 0;
  bool survivors_identical = true;
  for (std::size_t i = 0; i < scenes.size(); ++i) {
    for (std::size_t idx = 0; idx < golden[i].predictions.size(); ++idx) {
      const bool golden_pos = golden[i].predictions[idx] == 1;
      const bool cascade_pos = cascaded[i].predictions[idx] == 1;
      if (golden_pos) ++golden_positives;
      if (golden_pos && !cascade_pos) ++false_rejects;
      if (cascade_pos) {
        survivors_identical =
            survivors_identical &&
            cascaded[i].predictions[idx] == golden[i].predictions[idx] &&
            cascaded[i].scores[idx] == golden[i].scores[idx];
      }
    }
  }

  util::Table tbl({"stage", "entered", "rejected", "pass rate"});
  std::vector<double> pass_rates(stats.stages.size(), 1.0);
  for (std::size_t s = 0; s < stats.stages.size(); ++s) {
    const auto& c = stats.stages[s];
    pass_rates[s] =
        c.entered == 0 ? 1.0
                       : 1.0 - static_cast<double>(c.rejected) /
                                   static_cast<double>(c.entered);
    char name[32], ent[32], rej[32], pr[32];
    std::snprintf(name, sizeof name, "%zu (%zuw)", s, table.stages[s].words);
    std::snprintf(ent, sizeof ent, "%llu",
                  static_cast<unsigned long long>(c.entered));
    std::snprintf(rej, sizeof rej, "%llu",
                  static_cast<unsigned long long>(c.rejected));
    std::snprintf(pr, sizeof pr, "%.4f", pass_rates[s]);
    tbl.add_row({name, ent, rej, pr});
  }
  std::printf("%s\n", tbl.to_string().c_str());
  std::printf("windows %zu, exact-scored survivors %llu (%.1f%%)\n",
              windows_total,
              static_cast<unsigned long long>(stats.exact_scored),
              100.0 * static_cast<double>(stats.exact_scored) /
                  static_cast<double>(windows_total));
  std::printf("exact %.1f ms, cascade %.1f ms — %.2fx end-to-end\n", t_exact,
              t_cascade, speedup);
  std::printf(
      "plane encode %.1f ms shared; scan stage %.1f ms -> %.1f ms — %.2fx "
      "plane-amortized\n",
      t_plane, scan_exact, scan_cascade, scan_speedup);
  std::printf("exact mode vs golden maps: %s\n",
              exact_identical ? "bit-identical" : "MISMATCH");
  std::printf("plane-reuse scans vs end-to-end maps: %s\n",
              plane_reuse_identical ? "bit-identical" : "MISMATCH");
  std::printf("golden positives %zu, false rejects %zu, survivors %s\n",
              golden_positives, false_rejects,
              survivors_identical ? "bit-identical" : "MISMATCH");

  FILE* json = std::fopen("bench_out/cascade.json", "w");
  if (json) {
    std::fprintf(json,
                 "{\n"
                 "  \"scene\": [%zu, %zu],\n"
                 "  \"scenes\": %zu,\n"
                 "  \"background\": \"%s\",\n"
                 "  \"window\": %zu,\n"
                 "  \"stride\": %zu,\n"
                 "  \"dim\": %zu,\n"
                 "  \"windows_total\": %zu,\n"
                 "  \"reps\": %zu,\n"
                 "  \"stage_words\": [",
                 scene_w, scene_h, n_scenes, background_name.c_str(), window,
                 stride, dim, windows_total, reps);
    for (std::size_t s = 0; s < table.stages.size(); ++s) {
      std::fprintf(json, "%s%zu", s ? ", " : "", table.stages[s].words);
    }
    std::fprintf(json, "],\n  \"stage_thresholds\": [");
    for (std::size_t s = 0; s < table.stages.size(); ++s) {
      std::fprintf(json, "%s%.17g", s ? ", " : "",
                   table.stages[s].reject_below);
    }
    std::fprintf(json, "],\n  \"stage_pass_rates\": [");
    for (std::size_t s = 0; s < pass_rates.size(); ++s) {
      std::fprintf(json, "%s%.6f", s ? ", " : "", pass_rates[s]);
    }
    std::fprintf(json, "],\n  \"stage_rejected\": [");
    for (std::size_t s = 0; s < stats.stages.size(); ++s) {
      std::fprintf(json, "%s%llu", s ? ", " : "",
                   static_cast<unsigned long long>(stats.stages[s].rejected));
    }
    std::fprintf(
        json,
        "],\n"
        "  \"exact_scored\": %llu,\n"
        "  \"exact_ms\": %.3f,\n"
        "  \"cascade_ms\": %.3f,\n"
        "  \"plane_ms\": %.3f,\n"
        "  \"scan_exact_ms\": %.3f,\n"
        "  \"scan_cascade_ms\": %.3f,\n"
        "  \"scan_speedup\": %.3f,\n"
        "  \"speedup\": %.3f,\n"
        "  \"golden_positives\": %zu,\n"
        "  \"false_rejects\": %zu,\n"
        "  \"survivors_bit_identical\": %s,\n"
        "  \"exact_mode_bit_identical\": %s,\n"
        "  \"plane_reuse_bit_identical\": %s,\n"
        "  \"kernel_backend\": \"%s\",\n"
        "  \"golden_map_hashes\": [",
        static_cast<unsigned long long>(stats.exact_scored), t_exact,
        t_cascade, t_plane, scan_exact, scan_cascade, scan_speedup, speedup,
        golden_positives, false_rejects,
        survivors_identical ? "true" : "false",
        exact_identical ? "true" : "false",
        plane_reuse_identical ? "true" : "false",
        std::string(
            core::kernels::backend_name(core::kernels::active().backend))
            .c_str());
    for (std::size_t i = 0; i < golden.size(); ++i) {
      std::fprintf(json, "%s\"%016llx\"", i ? ", " : "",
                   static_cast<unsigned long long>(map_hash(golden[i])));
    }
    std::fprintf(json, "]\n}\n");
    std::fclose(json);
    std::printf("written: bench_out/cascade.json\n");
  }
  // CI gate: correctness is non-negotiable (identity + zero false rejects +
  // survivor parity); the speedup headline is reported, not gated here.
  return (exact_identical && survivors_identical && plane_reuse_identical &&
          false_rejects == 0)
             ? 0
             : 1;
}
