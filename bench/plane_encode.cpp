// Plane-encode floor: lazy cell materialization driven by the cascade
// prescreen + the fused batched per-cell kernel, against the eager
// reference-chain baseline (DESIGN.md §14).
//
// hdlint: allow-file(wall-clock) — this bench *measures* elapsed time; the
// timings are reported output and never influence what the detector computes.
//
// Workload: a sparse scene (flat background, a few pasted faces — the
// geometry the paper's holographic scan targets: faces are rare, background
// dominates). The bench
//   1. trains a detector and calibrates a prescreen-carrying cascade table
//      over mixed-background calibration scenes (the training distribution),
//   2. times the cold end-to-end scan (plane encode + window scan) on the
//      sparse scene in three configurations, cascade enabled in all three:
//        baseline    eager plane, reference per-pixel cell chain
//        eager+fused eager plane, fused batched cell kernel
//        lazy+fused  lazy plane (prescreen-driven materialization) + fused
//      All three produce bit-identical DetectionMaps — the fused kernel and
//      the lazy schedule are pure performance choices.
//   3. checks map-hash identity lazy vs eager and across threads {1, 4, 8}
//      for both plane modes,
//   4. reports the materialized-cell fraction, prescreen-forced cells, and
//      plane hit rate from EncodeCacheStats.
// Results land in bench_out/plane_encode.json; CI (plane-smoke) gates with
// jq on speedup >= 2, materialized_fraction < 0.6, and the identity flags.
// The exit code enforces the correctness half (identities).
//
// Usage:
//   ./build/bench/plane_encode [--dim 4096] [--train 400] [--epochs 30]
//                              [--window 32] [--stride 8]
//                              [--scene-width 384] [--scene-height 288]
//                              [--faces 2] [--reps 2] [--slack 0.001]
//                              [--calib-scenes 2] [--prescreen-fraction 0.25]

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <functional>
#include <numeric>
#include <string>
#include <vector>

#include "api/detector.hpp"
#include "common.hpp"
#include "core/kernels/kernels.hpp"
#include "hog/cell_plane.hpp"
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

// FNV-1a over the full map content — the digest bench/cascade.cpp and
// bench/encode_cache.cpp publish, so hashes are comparable across benches.
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

}  // namespace

int main(int argc, char** argv) {
  const util::Args args(argc, argv);
  const auto dim = static_cast<std::size_t>(args.get_int("dim", 4096));
  const auto n_train = static_cast<std::size_t>(args.get_int("train", 400));
  const auto epochs = static_cast<std::size_t>(args.get_int("epochs", 30));
  const auto window = static_cast<std::size_t>(args.get_int("window", 32));
  const auto stride = static_cast<std::size_t>(args.get_int("stride", 8));
  const auto scene_w =
      static_cast<std::size_t>(args.get_int("scene-width", 384));
  const auto scene_h =
      static_cast<std::size_t>(args.get_int("scene-height", 288));
  const auto faces = static_cast<std::size_t>(args.get_int("faces", 2));
  const auto reps = static_cast<std::size_t>(args.get_int("reps", 2));
  const double slack = args.get_double("slack", 0.001);
  const auto n_calib =
      static_cast<std::size_t>(args.get_int("calib-scenes", 2));
  const double prescreen_fraction =
      args.get_double("prescreen-fraction", 0.25);

  bench::print_header("Plane-encode floor: lazy cells + fused kernel",
                      "prescreen-driven lazy materialization (DESIGN.md §14), "
                      "sparse-scene Fig 6 scan workload");

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
  det.pipeline()->mutable_classifier().set_binary_override(
      det.pipeline()->classifier().binary_prototypes());

  // Prescreen calibration runs on mixed-background scenes (the training
  // distribution — see bench/cascade.cpp on why); the thresholds transfer to
  // the sparse eval scene because both floors are positive-window minima.
  const auto calib_scenes = pipeline::cascade_calibration_scenes(
      n_calib, window, scene_w, scene_h, faces, 0xCAFE);
  pipeline::CascadeCalibrationConfig cc;
  cc.stage_fractions = {0.0625, 0.125, 0.25, 0.5};
  cc.slack = slack;
  cc.window = window;
  cc.stride = stride;
  cc.prescreen = true;
  cc.prescreen_fraction = prescreen_fraction;
  const pipeline::CascadeTable table =
      pipeline::calibrate_cascade(*det.pipeline(), calib_scenes, cc);
  std::printf(
      "prescreen: %zu words, reject margin < %+.5f or spread < %.4f "
      "(vmax scale %.4f)\n",
      table.prescreen_words, table.prescreen_reject_below,
      table.prescreen_spread_below, table.prescreen_vmax);

  // Sparse eval scene: flat background + `faces` pasted training-style faces.
  // This is the lazy plane's home turf — almost every cell belongs only to
  // prescreen-rejected windows.
  image::Image scene(scene_w, scene_h);
  for (float& p : scene.pixels()) p = 0.5f;
  auto face_cfg = dataset::face2_config(faces + 1, 0x5EED);
  face_cfg.image_size = window;
  const auto face_imgs = make_face_dataset(face_cfg);
  for (std::size_t f = 0; f < faces; ++f) {
    const std::size_t fx =
        ((f + 1) * scene_w / (faces + 1)) / stride * stride;
    const std::size_t fy = (scene_h / 2) / stride * stride;
    for (std::size_t y = 0; y < window; ++y) {
      for (std::size_t x = 0; x < window; ++x) {
        scene.at(fx + x, fy + y) = face_imgs.images[f].at(x, y);
      }
    }
  }

  pipeline::Cascade cascade(det.pipeline()->classifier(), table);
  const auto scan_cfg = [&](std::size_t threads, pipeline::PlaneMode mode,
                            bool reference, bool with_cascade) {
    pipeline::ParallelDetectConfig cfg;
    cfg.threads = threads;
    cfg.plane_mode = mode;
    cfg.reference_cell_chain = reference;
    if (with_cascade) cfg.cascade = &cascade;
    return cfg;
  };
  auto& pl = *det.pipeline();

  // --- cold end-to-end timings, cascade enabled ----------------------------
  pipeline::DetectionMap map_baseline;
  const double t_baseline = best_of(reps, [&] {
    auto cfg = scan_cfg(1, pipeline::PlaneMode::kEager, true, true);
    map_baseline =
        pipeline::detect_windows_parallel(pl, scene, window, stride, 1, cfg);
  });
  pipeline::DetectionMap map_eager;
  const double t_eager_fused = best_of(reps, [&] {
    auto cfg = scan_cfg(1, pipeline::PlaneMode::kEager, false, true);
    map_eager =
        pipeline::detect_windows_parallel(pl, scene, window, stride, 1, cfg);
  });
  pipeline::DetectionMap map_lazy;
  pipeline::EncodeCacheStats estats;
  pipeline::CascadeStats cstats;
  const double t_lazy = best_of(reps, [&] {
    auto cfg = scan_cfg(1, pipeline::PlaneMode::kLazy, false, true);
    estats = {};
    cstats = {};
    cfg.cache_stats = &estats;
    cfg.cascade_stats = &cstats;
    map_lazy =
        pipeline::detect_windows_parallel(pl, scene, window, stride, 1, cfg);
  });
  const double speedup = t_baseline / t_lazy;
  const double fused_speedup = t_baseline / t_eager_fused;
  const std::uint64_t h_eager = map_hash(map_eager);
  const std::uint64_t h_lazy = map_hash(map_lazy);
  bool identical = map_hash(map_baseline) == h_eager && h_eager == h_lazy;

  // --- thread parity: hashes must not move at any thread count -------------
  const std::size_t thread_counts[] = {1, 4, 8};
  bool thread_parity = true;
  for (const std::size_t t : thread_counts) {
    for (const pipeline::PlaneMode mode :
         {pipeline::PlaneMode::kEager, pipeline::PlaneMode::kLazy}) {
      auto cfg = scan_cfg(t, mode, false, true);
      const auto map =
          pipeline::detect_windows_parallel(pl, scene, window, stride, 1, cfg);
      thread_parity = thread_parity && map_hash(map) == h_lazy;
    }
  }

  const std::size_t windows_total = map_lazy.steps_x * map_lazy.steps_y;
  const double frac = estats.cells_total == 0
                          ? 1.0
                          : static_cast<double>(estats.cells_computed) /
                                static_cast<double>(estats.cells_total);
  const double hit_rate =
      estats.ensure_checks == 0
          ? 0.0
          : 1.0 - static_cast<double>(estats.cells_computed) /
                      static_cast<double>(estats.ensure_checks);

  std::printf("cold e2e, cascade on: baseline (eager+reference) %.1f ms, "
              "eager+fused %.1f ms, lazy+fused %.1f ms\n",
              t_baseline, t_eager_fused, t_lazy);
  std::printf("speedup %.2fx (fused alone %.2fx)\n", speedup, fused_speedup);
  std::printf("windows %zu, prescreen rejected %llu of %llu\n", windows_total,
              static_cast<unsigned long long>(cstats.prescreen_rejected),
              static_cast<unsigned long long>(cstats.prescreen_entered));
  std::printf("cells: %llu materialized of %llu (%.3f), %llu forced by "
              "prescreen, plane hit rate %.3f\n",
              static_cast<unsigned long long>(estats.cells_computed),
              static_cast<unsigned long long>(estats.cells_total), frac,
              static_cast<unsigned long long>(estats.cells_forced_prescreen),
              hit_rate);
  std::printf("maps: baseline/eager/lazy %s, threads {1,4,8} %s\n",
              identical ? "bit-identical" : "MISMATCH",
              thread_parity ? "bit-identical" : "MISMATCH");

  FILE* json = std::fopen("bench_out/plane_encode.json", "w");
  if (json) {
    std::fprintf(
        json,
        "{\n"
        "  \"scene\": [%zu, %zu],\n"
        "  \"window\": %zu,\n"
        "  \"stride\": %zu,\n"
        "  \"dim\": %zu,\n"
        "  \"faces\": %zu,\n"
        "  \"reps\": %zu,\n"
        "  \"windows_total\": %zu,\n"
        "  \"prescreen_words\": %zu,\n"
        "  \"prescreen_rejected\": %llu,\n"
        "  \"prescreen_entered\": %llu,\n"
        "  \"baseline_ms\": %.3f,\n"
        "  \"eager_fused_ms\": %.3f,\n"
        "  \"lazy_fused_ms\": %.3f,\n"
        "  \"speedup\": %.3f,\n"
        "  \"fused_speedup\": %.3f,\n"
        "  \"cells_total\": %llu,\n"
        "  \"cells_computed\": %llu,\n"
        "  \"cells_forced_prescreen\": %llu,\n"
        "  \"materialized_fraction\": %.4f,\n"
        "  \"plane_hit_rate\": %.4f,\n"
        "  \"lazy_eager_bit_identical\": %s,\n"
        "  \"thread_parity_bit_identical\": %s,\n"
        "  \"map_hash\": \"%016llx\",\n"
        "  \"kernel_backend\": \"%s\"\n"
        "}\n",
        scene_w, scene_h, window, stride, dim, faces, reps, windows_total,
        table.prescreen_words,
        static_cast<unsigned long long>(cstats.prescreen_rejected),
        static_cast<unsigned long long>(cstats.prescreen_entered), t_baseline,
        t_eager_fused, t_lazy, speedup, fused_speedup,
        static_cast<unsigned long long>(estats.cells_total),
        static_cast<unsigned long long>(estats.cells_computed),
        static_cast<unsigned long long>(estats.cells_forced_prescreen), frac,
        hit_rate, identical ? "true" : "false",
        thread_parity ? "true" : "false",
        static_cast<unsigned long long>(h_lazy),
        std::string(
            core::kernels::backend_name(core::kernels::active().backend))
            .c_str());
    std::fclose(json);
    std::printf("written: bench_out/plane_encode.json\n");
  }
  // CI gate: correctness is non-negotiable (identities); speedup and
  // materialized fraction are gated from the JSON by the plane-smoke job.
  return (identical && thread_parity) ? 0 : 1;
}
