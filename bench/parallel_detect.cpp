// Parallel batched detection engine: wall-clock and determinism check.
//
// hdlint: allow-file(wall-clock) — this bench *measures* elapsed time; the
// timings are reported output and never influence what the detector computes.
//
// A fig6-style clutter scene (several planted faces) is scanned with
// DetectOptions{} (the cell-plane scan) two ways:
//   engine@1 — the batched engine pinned to one thread,
//   engine@N — the batched engine on all hardware cores.
// The engine@1 and engine@N maps must be bit-identical (the per-cell
// seeding contract); the speedup engine@1 / engine@N is the headline number.
// Results land in bench_out/parallel_detect.json.
//
// Usage:
//   ./build/bench/parallel_detect [--dim 4096] [--train 150] [--reps 3]
//                                 [--threads N]

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <thread>
#include <vector>

#include "api/detector.hpp"
#include "common.hpp"
#include "dataset/background_generator.hpp"
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

}  // namespace

int main(int argc, char** argv) {
  const util::Args args(argc, argv);
  const auto dim = static_cast<std::size_t>(args.get_int("dim", 4096));
  const auto n_train = static_cast<std::size_t>(args.get_int("train", 150));
  const auto reps = static_cast<std::size_t>(args.get_int("reps", 3));
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  const auto n_threads =
      static_cast<std::size_t>(args.get_int("threads", static_cast<int>(hw)));

  bench::print_header("Parallel batched detection engine",
                      "HDFace (DAC'22) §4 'fully parallel' scan, Fig 6 scene");

  const std::size_t window = 48;
  const std::size_t stride = 8;  // dense scan: plenty of windows to batch

  // Fig6-style scene, scaled up so the scan has real work: 4 planted faces in
  // mixed clutter, 288x192 = ~570 windows at stride 8.
  image::Image scene(6 * window, 4 * window, 0.5f);
  core::Rng rng(0x5CE2E);
  dataset::render_background(scene, dataset::BackgroundKind::kMixed, rng);
  const std::size_t face_xy[4][2] = {{0, 0}, {4 * window, window / 2},
                                     {2 * window, 2 * window},
                                     {window / 2, 3 * window}};
  for (int i = 0; i < 4; ++i) {
    image::paste(scene, dataset::render_face_window(window, 11 + i),
                 static_cast<std::ptrdiff_t>(face_xy[i][0]),
                 static_cast<std::ptrdiff_t>(face_xy[i][1]));
  }

  auto face_data = bench::make_face2(n_train, 10);
  api::Detector det = api::DetectorBuilder()
                          .window(window)
                          .dim(dim)
                          .config(bench::hdface_config(dim))
                          .build();
  std::printf("training (D=%zu, %zu windows)...\n", dim, face_data.train.size());
  det.fit(face_data.train);

  const auto steps_x = (scene.width() - window) / stride + 1;
  const auto steps_y = (scene.height() - window) / stride + 1;
  std::printf("scene %zux%zu, %zu windows, %zu hardware core(s)\n\n",
              scene.width(), scene.height(), steps_x * steps_y, hw);

  api::DetectOptions one;
  one.threads = 1;
  one.stride = stride;
  pipeline::DetectionMap map_one;
  const double t_one = best_of(reps, [&] { map_one = det.detect_map(scene, one); });

  api::DetectOptions many = one;
  many.threads = n_threads;
  pipeline::DetectionMap map_many;
  const double t_many =
      best_of(reps, [&] { map_many = det.detect_map(scene, many); });

  const bool identical = maps_identical(map_one, map_many);
  const double speedup = t_one / t_many;

  util::Table table({"path", "threads", "best ms", "speedup vs engine@1"});
  char buf[64];
  char spd[32];
  std::snprintf(buf, sizeof buf, "%.1f", t_one);
  table.add_row({"engine", "1", buf, "1.00x"});
  std::snprintf(buf, sizeof buf, "%.1f", t_many);
  std::snprintf(spd, sizeof spd, "%.2fx", speedup);
  table.add_row({"engine", std::to_string(n_threads), buf, spd});
  std::printf("%s\n", table.to_string().c_str());
  std::printf("engine@1 vs engine@%zu maps: %s\n", n_threads,
              identical ? "bit-identical" : "MISMATCH");

  std::size_t positives = 0;
  for (const int p : map_many.predictions) positives += (p == 1);
  std::printf("%zu/%zu windows classified face\n", positives,
              map_many.predictions.size());

  FILE* json = std::fopen("bench_out/parallel_detect.json", "w");
  if (json) {
    std::fprintf(json,
                 "{\n"
                 "  \"scene\": [%zu, %zu],\n"
                 "  \"window\": %zu,\n"
                 "  \"stride\": %zu,\n"
                 "  \"windows\": %zu,\n"
                 "  \"dim\": %zu,\n"
                 "  \"hardware_threads\": %zu,\n"
                 "  \"bench_threads\": %zu,\n"
                 "  \"reps\": %zu,\n"
                 "  \"engine_1thread_ms\": %.3f,\n"
                 "  \"engine_nthread_ms\": %.3f,\n"
                 "  \"speedup\": %.3f,\n"
                 "  \"maps_bit_identical\": %s\n"
                 "}\n",
                 scene.width(), scene.height(), window, stride,
                 steps_x * steps_y, dim, hw, n_threads, reps, t_one, t_many,
                 speedup, identical ? "true" : "false");
    std::fclose(json);
    std::printf("written: bench_out/parallel_detect.json\n");
  }
  return identical ? 0 : 1;
}
