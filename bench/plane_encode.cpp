// Plane-encode floor: the demand-set scan (cells filled only where the
// cascade prescreen and its survivors read) + the fused batched per-cell
// kernel, against a full-plane reference-chain baseline (DESIGN.md §14).
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
//        baseline    full plane from a bench-local loop over the reference
//                    per-pixel chain (HdHogExtractor::cell_raw_values_reference),
//                    then detect_windows_on_plane
//        eager+fused full plane from build_scene_cell_plane (fused kernel),
//                    then detect_windows_on_plane
//        lazy+fused  detect_windows_parallel: the demand-set scan (fused)
//      All three produce bit-identical DetectionMaps — the fused kernel and
//      the demand set are pure performance choices.
//   3. checks map-hash identity of the demand-set scan against the full-plane
//      scans, and across threads {1, 4, 8} for both,
//   4. reports the materialized-cell fraction, prescreen-forced cells, and
//      plane hit rate from EncodeCacheStats.
// Results land in bench_out/plane_encode.json; CI (plane-smoke) gates with
// jq on speedup >= 2, materialized_fraction < 0.6, and the identity flags
// (the JSON keeps its field names: "lazy" is the demand-set scan, "eager"
// the full plane).
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
#include "hog/hd_hog.hpp"
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

  bench::print_header("Plane-encode floor: demand-set cells + fused kernel",
                      "prescreen-driven demand set (DESIGN.md §14), "
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
  // This is the demand set's home turf — almost every cell belongs only to
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
  const auto scan_cfg = [&](std::size_t threads) {
    pipeline::ParallelDetectConfig cfg;
    cfg.threads = threads;
    cfg.cascade = &cascade;
    return cfg;
  };
  auto& pl = *det.pipeline();
  const hog::HdHogExtractor& hd = *pl.hd_extractor();
  const std::size_t cell = hd.config().hog.cell_size;
  const std::size_t grid_step = std::gcd(stride, cell);
  // The full-plane scan: build_scene_cell_plane + detect_windows_on_plane.
  const auto full_plane_scan = [&](std::size_t threads) {
    const auto cfg = scan_cfg(threads);
    const hog::CellPlane plane =
        pipeline::build_scene_cell_plane(pl, scene, grid_step, cfg);
    return pipeline::detect_windows_on_plane(pl, scene, plane, window, stride,
                                             1, cfg);
  };

  // --- cold end-to-end timings, cascade enabled ----------------------------
  pipeline::DetectionMap map_baseline;
  const double t_baseline = best_of(reps, [&] {
    // Every plane cell through the reference chain, on the engine's per-cell
    // reseed key, so the plane holds the engine's exact bytes.
    hog::CellPlane plane = hog::make_cell_plane_geometry(
        scene_w, scene_h, cell, hd.config().hog.bins, grid_step, 0);
    pl.prepare_concurrent();
    const std::uint64_t seed = pl.config().seed;
    core::StochasticContext ctx = pl.fork_context(seed);
    for (std::size_t gy = 0; gy < plane.grid_y; ++gy) {
      for (std::size_t gx = 0; gx < plane.grid_x; ++gx) {
        ctx.reseed(hog::cell_plane_seed(seed, 0, gx, gy));
        hd.cell_raw_values_reference(scene, gx * grid_step, gy * grid_step,
                                     ctx, plane.mutable_cell(gx, gy));
      }
    }
    map_baseline = pipeline::detect_windows_on_plane(pl, scene, plane, window,
                                                     stride, 1, scan_cfg(1));
  });
  pipeline::DetectionMap map_full;
  const double t_full_fused =
      best_of(reps, [&] { map_full = full_plane_scan(1); });
  pipeline::DetectionMap map_demand;
  pipeline::EncodeCacheStats estats;
  pipeline::CascadeStats cstats;
  const double t_demand = best_of(reps, [&] {
    auto cfg = scan_cfg(1);
    estats = {};
    cstats = {};
    cfg.cache_stats = &estats;
    cfg.cascade_stats = &cstats;
    map_demand =
        pipeline::detect_windows_parallel(pl, scene, window, stride, 1, cfg);
  });
  const double speedup = t_baseline / t_demand;
  const double fused_speedup = t_baseline / t_full_fused;
  const std::uint64_t h_full = map_hash(map_full);
  const std::uint64_t h_demand = map_hash(map_demand);
  bool identical = map_hash(map_baseline) == h_full && h_full == h_demand;

  // --- thread parity: hashes must not move at any thread count -------------
  const std::size_t thread_counts[] = {1, 4, 8};
  bool thread_parity = true;
  for (const std::size_t t : thread_counts) {
    const auto demand = pipeline::detect_windows_parallel(pl, scene, window,
                                                          stride, 1,
                                                          scan_cfg(t));
    thread_parity = thread_parity && map_hash(demand) == h_demand &&
                    map_hash(full_plane_scan(t)) == h_demand;
  }

  const std::size_t windows_total = map_demand.steps_x * map_demand.steps_y;
  const double frac = estats.cells_total == 0
                          ? 1.0
                          : static_cast<double>(estats.cells_computed) /
                                static_cast<double>(estats.cells_total);
  const double hit_rate =
      estats.ensure_checks == 0
          ? 0.0
          : 1.0 - static_cast<double>(estats.cells_computed) /
                      static_cast<double>(estats.ensure_checks);

  std::printf("cold e2e, cascade on: baseline (full plane, reference chain) "
              "%.1f ms, full plane fused %.1f ms, demand-set scan %.1f ms\n",
              t_baseline, t_full_fused, t_demand);
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
  std::printf("maps: baseline/full plane/demand set %s, threads {1,4,8} %s\n",
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
        t_full_fused, t_demand, speedup, fused_speedup,
        static_cast<unsigned long long>(estats.cells_total),
        static_cast<unsigned long long>(estats.cells_computed),
        static_cast<unsigned long long>(estats.cells_forced_prescreen), frac,
        hit_rate, identical ? "true" : "false",
        thread_parity ? "true" : "false",
        static_cast<unsigned long long>(h_demand),
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
