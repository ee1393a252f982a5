// Cell-plane encode cache: encode-stage and end-to-end speedup + determinism.
//
// hdlint: allow-file(wall-clock) — this bench *measures* elapsed time; the
// timings are reported output and never influence what the detector computes.
//
// The reference multiscale scene (two planted faces, window 32, stride 4,
// scales {1.0, 0.75, 0.5}) is encoded two ways per pyramid level:
//   per_window — a bench-local baseline: every window is cropped and
//                re-runs the full per-pixel stochastic chain through the
//                per-image encode (HdFacePipeline::encode_image) on its own
//                reseeded scratch,
//   cell_plane — the engine's scan: the chain runs once per grid cell,
//                windows assemble from cached cells (hog/cell_plane.hpp).
// With stride 4 and 8px cells each pixel sits in (32/4)² = 64 windows, so the
// cache should cut encode work by well over an order of magnitude; the
// measured ratio is the headline number. The end-to-end detect comparison and
// a threads {1, 4, 8} bit-identity check of the cell-plane map ride along.
// Results land in bench_out/encode_cache.json; the exit code gates CI
// (nonzero unless cell_plane beats per_window AND the maps are bit-identical
// at every thread count).
//
// Usage:
//   ./build/bench/encode_cache [--dim 2048] [--train 100] [--reps 2]

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <functional>
#include <numeric>
#include <thread>
#include <vector>

#include "api/detector.hpp"
#include "common.hpp"
#include "core/kernels/kernels.hpp"
#include "pipeline/multiscale.hpp"
#include "pipeline/parallel_detect.hpp"
#include "dataset/background_generator.hpp"
#include "hog/cell_plane.hpp"
#include "image/transform.hpp"

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

bool maps_identical(const pipeline::DetectionMap& a,
                    const pipeline::DetectionMap& b) {
  return a.steps_x == b.steps_x && a.steps_y == b.steps_y &&
         a.predictions == b.predictions && a.scores == b.scores;
}

// FNV-1a over the full map content (geometry, predictions, score bit
// patterns). CI diffs this hash between HDFACE_KERNEL_BACKEND=scalar and
// the host's best SIMD backend: equal hashes prove the backends produce the
// same detection map bit for bit.
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

// Seed salt of the per_window baseline's per-window reseed stream.
constexpr std::uint64_t kWindowStreamSalt = 0xBA7C4ED0ULL;

// The per_window baseline over every pyramid level: crop each window, encode
// it on a scratch reseeded from its window index, and (when `classify`)
// score it against the classifier. The encode row times it without
// classification, the end-to-end row with.
void per_window_scan(const pipeline::HdFacePipeline& pipe,
                     const pipeline::ScalePyramid& pyramid, std::size_t window,
                     std::size_t stride, bool classify) {
  const std::uint64_t seed_base =
      core::mix64(pipe.config().seed, kWindowStreamSalt);
  core::StochasticContext scratch = pipe.fork_context(seed_base);
  image::Image patch;
  for (const auto& level : pyramid.levels) {
    const std::size_t sx_n = (level.width() - window) / stride + 1;
    const std::size_t sy_n = (level.height() - window) / stride + 1;
    for (std::size_t idx = 0; idx < sx_n * sy_n; ++idx) {
      scratch.reseed(core::mix64(seed_base, idx));
      image::crop_into(level, (idx % sx_n) * stride, (idx / sx_n) * stride,
                       window, window, patch);
      const core::Hypervector feature = pipe.encode_image(patch, scratch);
      if (classify) (void)pipe.classifier().scores(feature);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  const util::Args args(argc, argv);
  const auto dim = static_cast<std::size_t>(args.get_int("dim", 2048));
  const auto n_train = static_cast<std::size_t>(args.get_int("train", 100));
  const auto reps = static_cast<std::size_t>(args.get_int("reps", 2));
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());

  bench::print_header("Cell-plane encode cache",
                      "HDFace (DAC'22) §4 encode stage, Fig 6 scan workload");

  const std::size_t window = 32;
  const std::size_t stride = 4;
  const std::vector<double> scales = {1.0, 0.75, 0.5};

  // Reference multiscale scene: two faces (one full-size, one half-size that
  // only the 0.5 pyramid level sees at window resolution) in mixed clutter.
  image::Image scene(128, 96, 0.5f);
  core::Rng rng(0xCACE);
  dataset::render_background(scene, dataset::BackgroundKind::kMixed, rng);
  image::paste(scene, dataset::render_face_window(window, 21), 8, 48);
  image::paste(scene, dataset::render_face_window(2 * window, 22), 56, 8);

  // FACE2-style training windows at the detector's 32px geometry (make_face2
  // renders at the Table 1 48px resolution, which this window cannot tile).
  auto train_cfg = dataset::face2_config(n_train, 42);
  train_cfg.image_size = window;
  const auto train = make_face_dataset(train_cfg);
  api::Detector det = api::DetectorBuilder()
                          .window(window)
                          .dim(dim)
                          .config(bench::hdface_config(dim))
                          .build();
  std::printf("training (D=%zu, %zu windows)...\n", dim, train.size());
  det.fit(train);

  pipeline::HdFacePipeline& pipe = *det.pipeline();
  const auto pyramid = pipeline::build_pyramid(scene, window, scales);

  std::size_t windows_total = 0;
  for (const auto& level : pyramid.levels) {
    windows_total += ((level.width() - window) / stride + 1) *
                     ((level.height() - window) / stride + 1);
  }
  std::printf("scene %zux%zu, %zu pyramid levels, %zu windows total, "
              "%zu hardware core(s)\n\n",
              scene.width(), scene.height(), pyramid.levels.size(),
              windows_total, hw);

  // --- encode stage only (no classification) -------------------------------
  pipe.prepare_concurrent();
  const std::size_t grid_step =
      std::gcd(stride, pipe.hd_extractor()->config().hog.cell_size);

  const double t_enc_window = best_of(
      reps, [&] { per_window_scan(pipe, pyramid, window, stride, false); });

  pipeline::EncodeCacheStats stats;
  const double t_enc_plane = best_of(reps, [&] {
    stats = {};
    for (std::size_t li = 0; li < pyramid.levels.size(); ++li) {
      pipeline::ParallelDetectConfig cfg;
      cfg.threads = 1;
      cfg.scale_index = li;
      cfg.cache_stats = &stats;
      const auto plane = pipeline::build_scene_cell_plane(
          pipe, pyramid.levels[li], grid_step, cfg);
      const std::size_t sx_n = (pyramid.levels[li].width() - window) / stride + 1;
      const std::size_t sy_n = (pyramid.levels[li].height() - window) / stride + 1;
      for (std::size_t idx = 0; idx < sx_n * sy_n; ++idx) {
        (void)pipe.hd_extractor()->extract_from_plane(
            plane, (idx % sx_n) * stride, (idx / sx_n) * stride, nullptr);
      }
    }
  });
  const double encode_speedup = t_enc_window / t_enc_plane;
  // The manual assembly loop above bypasses detect_windows_parallel, so tally
  // its window-side stats from geometry (exact: every window reads every slot).
  stats.slot_reads = windows_total * pipe.hd_extractor()->slots();
  stats.windows_assembled = windows_total;

  // --- end-to-end multiscale detect ----------------------------------------
  // The baseline's pyramid is built inside the timed region, like the
  // engine's.
  const double t_det_window = best_of(reps, [&] {
    per_window_scan(pipe, pipeline::build_pyramid(scene, window, scales),
                    window, stride, true);
  });

  api::DetectOptions cell_plane;
  cell_plane.threads = 1;
  cell_plane.stride = stride;
  cell_plane.scales = scales;
  const double t_det_plane =
      best_of(reps, [&] { (void)det.detect(scene, cell_plane); });
  const double detect_speedup = t_det_window / t_det_plane;

  // --- cell-plane determinism across thread counts -------------------------
  bool identical = true;
  pipeline::DetectionMap base;
  for (const std::size_t threads : {1u, 4u, 8u}) {
    api::DetectOptions opts;
    opts.threads = threads;
    opts.stride = stride;
    auto map = det.detect_map(scene, opts);
    if (threads == 1u) {
      base = std::move(map);
    } else {
      identical = identical && maps_identical(base, map);
    }
  }

  util::Table table({"stage", "per_window ms", "cell_plane ms", "speedup"});
  char a[64], b[64], s[32];
  std::snprintf(a, sizeof a, "%.1f", t_enc_window);
  std::snprintf(b, sizeof b, "%.1f", t_enc_plane);
  std::snprintf(s, sizeof s, "%.1fx", encode_speedup);
  table.add_row({"encode", a, b, s});
  std::snprintf(a, sizeof a, "%.1f", t_det_window);
  std::snprintf(b, sizeof b, "%.1f", t_det_plane);
  std::snprintf(s, sizeof s, "%.1fx", detect_speedup);
  table.add_row({"detect (e2e)", a, b, s});
  std::printf("%s\n", table.to_string().c_str());
  std::printf("cells computed %llu, cached slot reads %llu (%zu windows)\n",
              static_cast<unsigned long long>(stats.cells_computed),
              static_cast<unsigned long long>(stats.slot_reads), windows_total);
  std::printf("cell-plane maps at threads {1,4,8}: %s\n",
              identical ? "bit-identical" : "MISMATCH");
  const std::uint64_t hash = map_hash(base);
  std::printf("map hash (threads=1 cell-plane, backend %s): %016llx\n",
              std::string(core::kernels::backend_name(
                              core::kernels::active().backend))
                  .c_str(),
              static_cast<unsigned long long>(hash));

  FILE* json = std::fopen("bench_out/encode_cache.json", "w");
  if (json) {
    std::fprintf(json,
                 "{\n"
                 "  \"scene\": [%zu, %zu],\n"
                 "  \"window\": %zu,\n"
                 "  \"stride\": %zu,\n"
                 "  \"scales\": [1.0, 0.75, 0.5],\n"
                 "  \"dim\": %zu,\n"
                 "  \"windows_total\": %zu,\n"
                 "  \"hardware_threads\": %zu,\n"
                 "  \"reps\": %zu,\n"
                 "  \"encode_per_window_ms\": %.3f,\n"
                 "  \"encode_cell_plane_ms\": %.3f,\n"
                 "  \"encode_speedup\": %.3f,\n"
                 "  \"detect_per_window_ms\": %.3f,\n"
                 "  \"detect_cell_plane_ms\": %.3f,\n"
                 "  \"detect_speedup\": %.3f,\n"
                 "  \"cells_computed\": %llu,\n"
                 "  \"slot_reads\": %llu,\n"
                 "  \"cell_plane_bit_identical_threads_1_4_8\": %s,\n"
                 "  \"kernel_backend\": \"%s\",\n"
                 "  \"map_hash\": \"%016llx\"\n"
                 "}\n",
                 scene.width(), scene.height(), window, stride, dim,
                 windows_total, hw, reps, t_enc_window, t_enc_plane,
                 encode_speedup, t_det_window, t_det_plane, detect_speedup,
                 static_cast<unsigned long long>(stats.cells_computed),
                 static_cast<unsigned long long>(stats.slot_reads),
                 identical ? "true" : "false",
                 std::string(core::kernels::backend_name(
                                 core::kernels::active().backend))
                     .c_str(),
                 static_cast<unsigned long long>(hash));
    std::fclose(json);
    std::printf("written: bench_out/encode_cache.json\n");
  }
  // CI gate: the cache must actually be faster and stay deterministic.
  return (identical && encode_speedup > 1.0) ? 0 : 1;
}
