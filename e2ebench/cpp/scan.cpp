// Scan workloads: sparse_scan (one flat scene, single scale) and
// dense_pyramid (a pool of held-out textured scenes, 3-level pyramid + NMS).
// Both run the fast path (cell plane + lazy materialization + calibrated
// cascade with prescreen) through api::Detector, one closed-loop caller,
// engine threads = nproc.
//
// hdlint: allow-file(wall-clock) — the benchmark measures elapsed time; no
// timing ever feeds back into what the detector computes.

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>
#include <optional>

#include "core/rng.hpp"
#include "dataset/background_generator.hpp"
#include "dataset/face_generator.hpp"
#include "image/draw.hpp"
#include "image/transform.hpp"
#include "pipeline/cascade.hpp"
#include "pipeline/hdface_pipeline.hpp"
#include "pipeline/multiscale.hpp"
#include "pipeline/parallel_detect.hpp"
#include "support.hpp"
#include "workloads.hpp"

namespace e2e {

using namespace hdface;

namespace {

struct SceneCase {
  image::Image scene;
  std::vector<pipeline::Detection> faces;  // ground truth, scene coordinates
};

struct ScanShape {
  bool dense = false;
  std::vector<double> scales;
  bool nms = false;
};

ScanShape shape_of(bool dense) {
  if (dense) return {true, {1.0, 0.75, 0.5}, true};
  return {false, {1.0}, false};
}

bool overlaps(const pipeline::Detection& a,
              const std::vector<pipeline::Detection>& placed) {
  for (const auto& b : placed) {
    const bool apart = a.x + a.size + 4 <= b.x || b.x + b.size + 4 <= a.x ||
                       a.y + a.size + 4 <= b.y || b.y + b.size + 4 <= a.y;
    if (!apart) return true;
  }
  return false;
}

// Pastes a face of `size` pixels whose origin lies on the scan grid of the
// pyramid level that shrinks it to one window (grid pitch stride / scale), so
// the face sits under exactly one window of that level.
void plant_face(SceneCase& sc, std::size_t size, double scale, core::Rng& rng) {
  const double pitch = static_cast<double>(kStride) / scale;
  const auto steps_x = static_cast<std::uint64_t>(
      static_cast<double>(sc.scene.width() - size) / pitch);
  const auto steps_y = static_cast<std::uint64_t>(
      static_cast<double>(sc.scene.height() - size) / pitch);
  for (int attempt = 0; attempt < 1000; ++attempt) {
    pipeline::Detection d;
    d.x = static_cast<std::size_t>(
        std::lround(static_cast<double>(rng.below(steps_x + 1)) * pitch));
    d.y = static_cast<std::size_t>(
        std::lround(static_cast<double>(rng.below(steps_y + 1)) * pitch));
    d.size = size;
    if (d.x + size > sc.scene.width() || d.y + size > sc.scene.height() ||
        overlaps(d, sc.faces)) {
      continue;
    }
    image::paste(sc.scene, dataset::render_face_window(size, rng.next()),
                 static_cast<std::ptrdiff_t>(d.x),
                 static_cast<std::ptrdiff_t>(d.y));
    sc.faces.push_back(d);
    return;
  }
  throw std::runtime_error("plant_face: no free position");
}

// sparse_scan: one flat 384x288 scene with two window-sized faces.
std::vector<SceneCase> make_sparse(std::uint64_t seed) {
  core::Rng rng(core::mix64(seed, 0x5FA75E));
  SceneCase sc{image::Image(kSceneW, kSceneH, 0.5f), {}};
  for (int f = 0; f < 2; ++f) plant_face(sc, kWindow, 1.0, rng);
  return {std::move(sc)};
}

// dense_pyramid: a pool of textured scenes with four faces each, one sized
// for every pyramid level plus a second native-size one, and the training
// windows' sensor noise. The background is a 4x3 patchwork of 96-px tiles,
// each an independent kMixed texture (the training negatives' distribution):
// one kMixed canvas per scene made a scene's cost hinge on which two texture
// families it drew (smooth ramps pass the prescreen rarely, stripes often),
// and the seed-to-seed spread of a 4-scene pool followed. Drawn from the
// workload seed, never from the calibration seed.
constexpr std::size_t kDensePool = 4;
constexpr std::size_t kTile = 96;

std::vector<SceneCase> make_dense(std::uint64_t seed) {
  std::vector<SceneCase> pool;
  for (std::size_t i = 0; i < kDensePool; ++i) {
    core::Rng rng(core::mix64(core::mix64(seed, 0xDE45E), i));
    SceneCase sc{image::Image(kSceneW, kSceneH, 0.5f), {}};
    for (std::size_t ty = 0; ty < kSceneH; ty += kTile) {
      for (std::size_t tx = 0; tx < kSceneW; tx += kTile) {
        image::Image tile(kTile, kTile, 0.5f);
        dataset::render_background(tile, dataset::BackgroundKind::kMixed, rng);
        image::paste(sc.scene, tile, static_cast<std::ptrdiff_t>(tx),
                     static_cast<std::ptrdiff_t>(ty));
      }
    }
    const std::pair<std::size_t, double> faces[] = {
        {64, 0.5}, {43, 0.75}, {32, 1.0}, {32, 1.0}};
    for (const auto& [size, scale] : faces) plant_face(sc, size, scale, rng);
    image::add_gaussian_noise(sc.scene, rng, 0.03f);
    pool.push_back(std::move(sc));
  }
  return pool;
}

api::DetectOptions fast_options(const Model& model, const ScanShape& shape,
                                std::size_t threads) {
  api::DetectOptions o;
  o.threads = threads;
  o.stride = kStride;
  o.scales = shape.scales;
  o.nms = shape.nms;
  o.encode_mode = pipeline::EncodeMode::kCellPlane;
  o.plane_mode = pipeline::PlaneMode::kLazy;
  o.cascade = pipeline::CascadeConfig{pipeline::CascadeMode::kCalibrated,
                                      model.table};
  return o;
}

// Mirrors the facade's scale merge: single scale keeps every positive window
// (NMS off), a pyramid maps boxes to scene coordinates and suppresses.
std::vector<pipeline::Detection> merge_levels(
    const ScanShape& shape, const pipeline::ScalePyramid& pyramid,
    const std::vector<pipeline::DetectionMap>& maps) {
  if (!shape.dense) return pipeline::map_detections(maps.at(0), 1, 0.0, 2.0);
  std::vector<pipeline::Detection> all;
  for (std::size_t level = 0; level < maps.size(); ++level) {
    const double scale = pyramid.scales[level];
    const auto& map = maps[level];
    for (std::size_t sy = 0; sy < map.steps_y; ++sy) {
      for (std::size_t sx = 0; sx < map.steps_x; ++sx) {
        const std::size_t idx = sy * map.steps_x + sx;
        if (map.predictions[idx] != 1 || map.scores[idx] < 0.0) continue;
        const auto at = [scale](std::size_t v) {
          return static_cast<std::size_t>(
              std::lround(static_cast<double>(v) / scale));
        };
        all.push_back({at(sx * kStride), at(sy * kStride), at(kWindow),
                       map.scores[idx]});
      }
    }
  }
  auto kept = pipeline::non_max_suppression(std::move(all), 0.3);
  std::sort(kept.begin(), kept.end(), pipeline::detection_before);
  return kept;
}

pipeline::ParallelDetectConfig engine(std::size_t threads, std::size_t level,
                                      const pipeline::Cascade* cascade) {
  pipeline::ParallelDetectConfig cfg;
  cfg.threads = threads;
  cfg.encode_mode = pipeline::EncodeMode::kCellPlane;
  cfg.plane_mode =
      cascade != nullptr ? pipeline::PlaneMode::kLazy : pipeline::PlaneMode::kEager;
  cfg.scale_index = level;
  cfg.cascade = cascade;
  return cfg;
}

struct PoolCounters {
  pipeline::EncodeCacheStats cache;
  pipeline::CascadeStats cascade;
  std::uint64_t exact_positive = 0;
  std::uint64_t false_rejects = 0;
  std::uint64_t faces = 0;
  std::uint64_t faces_found = 0;
};

}  // namespace

RunResult run_scan(const RunOptions& opt, bool dense) {
  const ScanShape shape = shape_of(dense);
  const std::size_t threads = hardware_threads();

  // --- set-up: train + calibrate + workload generation, several times ------
  std::vector<double> setup_s, fit_s, calibrate_s, scenes_s;
  std::optional<Model> model;
  std::vector<SceneCase> pool;
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    model.reset();  // one model alive at a time, so peak RSS counts one
    const auto t0 = Clock::now();
    model.emplace(build_model(kScanDim, kWindow, true));
    const auto t1 = Clock::now();
    pool = dense ? make_dense(opt.seed) : make_sparse(opt.seed);
    const auto t2 = Clock::now();
    setup_s.push_back(ms_between(t0, t2) / 1e3);
    fit_s.push_back(model->fit_s);
    calibrate_s.push_back(model->calibrate_s);
    scenes_s.push_back(ms_between(t1, t2) / 1e3);
  }
  api::Detector& det = model->detector;
  auto& pl = *det.pipeline();
  const api::DetectOptions fast = fast_options(*model, shape, threads);

  // --- timed phase: closed loop, whole rounds over the pool ----------------
  HostProbe probe;
  Tracer tracer(opt.trace);
  std::vector<std::size_t> order(pool.size());
  std::iota(order.begin(), order.end(), 0);
  {
    core::Rng rng(core::mix64(opt.seed, 0x0DE5));
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.below(i)]);
    }
  }
  std::vector<double> latency_ms;
  std::vector<std::vector<double>> scene_latency(pool.size());
  std::vector<std::uint64_t> output_hash(pool.size(), 0);
  std::vector<bool> seen(pool.size(), false);
  RunResult result;
  std::uint64_t request_id = 0;
  probe.sample();
  const auto start = Clock::now();
  while (ms_between(start, Clock::now()) < opt.seconds * 1e3) {
    for (const std::size_t s : order) {
      api::Request req{request_id++, 0, pool[s].scene, fast};
      const auto t0 = Clock::now();
      auto out = det.detect(req);
      const auto t1 = Clock::now();
      result.attempted += 1;
      if (!out.ok()) {
        result.failed += 1;
        continue;
      }
      latency_ms.push_back(ms_between(t0, t1));
      scene_latency[s].push_back(ms_between(t0, t1));
      // Repeated scans of one scene must return identical detections.
      const std::uint64_t h = detections_hash(out.value().detections);
      if (!seen[s]) {
        seen[s] = true;
        output_hash[s] = h;
      }
      require(h == output_hash[s], "repeated scan of scene " +
                                       std::to_string(s) +
                                       " returned different detections");
      probe.tick();
    }
  }
  const double timed_s = ms_between(start, Clock::now()) / 1e3;
  require(result.failed == 0, "scan requests failed");

  // --- correctness + quality: every pool scene, every level ----------------
  const pipeline::Cascade cascade(pl.classifier(), model->table);
  PoolCounters pc;
  for (std::size_t s = 0; s < pool.size(); ++s) {
    const auto pyramid =
        pipeline::build_pyramid(pool[s].scene, kWindow, shape.scales);
    std::vector<pipeline::DetectionMap> maps;
    for (std::size_t level = 0; level < pyramid.levels.size(); ++level) {
      const auto& img = pyramid.levels[level];
      const auto serial = pipeline::detect_windows_parallel(
          pl, img, kWindow, kStride, 1, engine(1, level, &cascade));
      auto cfg = engine(threads, level, &cascade);
      cfg.cache_stats = &pc.cache;
      cfg.cascade_stats = &pc.cascade;
      auto parallel =
          pipeline::detect_windows_parallel(pl, img, kWindow, kStride, 1, cfg);
      std::uint64_t h_parallel = map_hash(parallel);
      if (opt.inject == "hash" && s == 0 && level == 0) h_parallel ^= 1;
      require(map_hash(serial) == h_parallel,
              "map hash differs between 1 and " + std::to_string(threads) +
                  " threads on scene " + std::to_string(s) + " level " +
                  std::to_string(level));
      const auto exact = pipeline::detect_windows_parallel(
          pl, img, kWindow, kStride, 1, engine(threads, level, nullptr));
      for (std::size_t w = 0; w < exact.predictions.size(); ++w) {
        if (exact.predictions[w] != 1) continue;
        pc.exact_positive += 1;
        if (parallel.predictions[w] != 1) pc.false_rejects += 1;
      }
      maps.push_back(std::move(parallel));
    }
    const auto merged = merge_levels(shape, pyramid, maps);
    require(detections_hash(merged) == output_hash[s],
            "engine maps of scene " + std::to_string(s) +
                " do not merge to the facade's detections");
    for (const auto& face : pool[s].faces) {
      pc.faces += 1;
      for (const auto& box : merged) {
        if (pipeline::box_iou(face, box) >= 0.5) {
          pc.faces_found += 1;
          break;
        }
      }
    }
  }

  // --- traced phase: spans around each layer's public entry points --------
  std::map<std::string, std::vector<double>> layer_ms;  // per traced request
  std::map<std::string, double> layer_values;
  double parallel_eff = 0.0;
  double traced_e2e_ms = 0.0, eager_cells = 0.0;
  if (opt.trace) {
    constexpr std::size_t kTracedRounds = 3;
    std::vector<double> e2e_spans;
    for (std::size_t round = 0; round < kTracedRounds; ++round) {
      for (const std::size_t s : order) {
        const std::uint64_t id = request_id++;
        const auto& scene = pool[s].scene;
        const std::int64_t call = tracer.begin("api.detect", id);
        const bool ok = det.detect(api::Request{id, 0, scene, fast}).ok();
        tracer.end(call);
        require(ok, "traced detect failed");
        e2e_spans.push_back(tracer.duration_ms(call));
        const std::int64_t root = tracer.begin("layers", id);
        const std::int64_t pyramid_span = tracer.begin("image.pyramid", id, root);
        const auto pyramid =
            pipeline::build_pyramid(scene, kWindow, shape.scales);
        tracer.end(pyramid_span);
        std::int64_t sp = -1;
        std::vector<std::int64_t> plane_spans, scan_spans;
        std::vector<pipeline::DetectionMap> maps;
        for (std::size_t level = 0; level < pyramid.levels.size(); ++level) {
          const auto cfg = engine(threads, level, &cascade);
          sp = tracer.begin("hog.plane_build", id, root);
          const auto plane = pipeline::build_scene_cell_plane(
              pl, pyramid.levels[level], 4, cfg);
          tracer.end(sp);
          plane_spans.push_back(sp);
          // Every pool scene has the same size, so one request's planes
          // give the cell count per request.
          if (round == 0 && s == order[0]) {
            eager_cells += static_cast<double>(plane.cells());
          }
          sp = tracer.begin("pipeline.scan_on_plane", id, root);
          maps.push_back(pipeline::detect_windows_on_plane(
              pl, pyramid.levels[level], plane, kWindow, kStride, 1, cfg));
          tracer.end(sp);
          scan_spans.push_back(sp);
        }
        sp = tracer.begin("pipeline.nms", id, root);
        const auto merged = merge_levels(shape, pyramid, maps);
        tracer.end(sp);
        const std::int64_t nms_span = sp;
        tracer.end(root);
        require(detections_hash(merged) == output_hash[s],
                "layer-by-layer scan differs from the facade's detections");
        const auto sum_self = [&](const std::vector<std::int64_t>& ids) {
          double t = 0.0;
          for (const auto i : ids) t += tracer.self_ms(i);
          return t;
        };
        layer_ms["image.pyramid"].push_back(tracer.self_ms(pyramid_span));
        layer_ms["hog.plane_build"].push_back(sum_self(plane_spans));
        layer_ms["pipeline.scan_on_plane"].push_back(sum_self(scan_spans));
        layer_ms["pipeline.nms"].push_back(tracer.self_ms(nms_span));
      }
    }
    traced_e2e_ms = median(e2e_spans);

    // util: the same detect call at 1 thread vs nproc threads, per scene.
    std::vector<double> eff;
    api::DetectOptions serial = fast;
    serial.threads = 1;
    for (std::size_t s = 0; s < pool.size(); ++s) {
      const auto t0 = Clock::now();
      auto out = det.detect(api::Request{request_id++, 0, pool[s].scene, serial});
      const double t1_ms = ms_between(t0, Clock::now());
      require(out.ok() &&
                  detections_hash(out.value().detections) == output_hash[s],
              "1-thread detections differ from nproc-thread detections");
      eff.push_back(t1_ms / (static_cast<double>(threads) *
                             median(scene_latency[s])));
    }
    parallel_eff = median(eff);

    // learn/core: full-D scoring and the batched Hamming kernel on windows
    // cut from the first scene.
    std::vector<image::Image> windows;
    const auto& scene0 = pool[order[0]].scene;
    for (std::size_t y = 0; y + kWindow <= scene0.height(); y += 4 * kStride) {
      for (std::size_t x = 0; x + kWindow <= scene0.width(); x += 4 * kStride) {
        windows.push_back(image::crop(scene0, x, y, kWindow, kWindow));
      }
    }
    windows.resize(std::min<std::size_t>(windows.size(), 32));
    add_scoring_rows(layer_values, pl, windows);
    if (!opt.spans_out.empty()) tracer.write_json(opt.spans_out);
  }
  probe.sample();

  // --- metrics --------------------------------------------------------------
  const double p50 = median(latency_ms);
  const double frac_materialized =
      pc.cache.cells_total == 0 ? 0.0
                                : static_cast<double>(pc.cache.cells_computed) /
                                      static_cast<double>(pc.cache.cells_total);
  result.end_to_end = {
      {"latency_p50_ms", p50, "ms"},
      {"latency_p90_ms", quantile(latency_ms, 0.9), "ms"},
      {"scenes_per_s", static_cast<double>(latency_ms.size()) / timed_s, "1/s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"setup_s", median(setup_s), "s"},
  };

  auto& V = layer_values;
  const auto layer = [&](const char* name) {
    const auto it = layer_ms.find(name);
    return it == layer_ms.end() ? 0.0 : median(it->second);
  };
  const auto ratio = [](std::uint64_t num, std::uint64_t den) {
    return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
  };
  V["image.pyramid_ms"] = layer("image.pyramid");
  V["hog.plane_build_ms"] = layer("hog.plane_build");
  V["hog.cell_encode_us"] =
      eager_cells > 0 ? layer("hog.plane_build") * 1e3 / eager_cells : 0.0;
  V["hog.cells_computed"] = static_cast<double>(pc.cache.cells_computed);
  V["hog.materialized_frac"] = frac_materialized;
  V["hog.plane_hit_rate"] =
      pc.cache.ensure_checks == 0
          ? 0.0
          : 1.0 - ratio(pc.cache.cells_computed, pc.cache.ensure_checks);
  V["pipeline.prescreen_reject_frac"] =
      ratio(pc.cascade.prescreen_rejected, pc.cascade.prescreen_entered);
  for (std::size_t st = 0; st < pc.cascade.stages.size(); ++st) {
    const auto& c = pc.cascade.stages[st];
    V["pipeline.stage_pass_frac.s" + std::to_string(st)] =
        ratio(c.entered - c.rejected, c.entered);
  }
  V["pipeline.exact_scored"] = static_cast<double>(pc.cascade.exact_scored);
  V["pipeline.scan_on_plane_ms"] = layer("pipeline.scan_on_plane");
  V["pipeline.nms_ms"] = layer("pipeline.nms");
  V["util.parallel_eff"] = parallel_eff;
  V["setup.fit_s"] = median(fit_s);
  V["setup.calibrate_s"] = median(calibrate_s);
  V["setup.scenes_s"] = median(scenes_s);
  if (opt.trace) {
    // The lazy plane fills only the materialized share of the cells the
    // eager build encodes, so hog is counted at that share.
    const double attributed = layer("image.pyramid") +
                              layer("hog.plane_build") * frac_materialized +
                              layer("pipeline.scan_on_plane") +
                              layer("pipeline.nms");
    V["trace.unattributed_frac"] = (p50 - attributed) / p50;
    V["trace.overhead_frac"] = traced_e2e_ms / p50 - 1.0;
  }
  add_host_rows(V, probe);
  V["latency_samples"] = static_cast<double>(latency_ms.size());
  V["face_recall"] = ratio(pc.faces_found, pc.faces);
  V["false_reject_frac"] = ratio(pc.false_rejects, pc.exact_positive);
  V["failed_frac"] = ratio(result.failed, result.attempted);
  result.per_layer = layer_rows(V);

  result.info = {
      {"engine_threads", std::to_string(threads)},
      {"server_workers", "0"},
      {"pool_scenes", std::to_string(pool.size())},
      {"latency_samples", std::to_string(latency_ms.size())},
      {"host_ref_ms", std::to_string(median(probe.samples_ms()))},
      {"timed_s", std::to_string(timed_s)},
      {"exact_positive_windows", std::to_string(pc.exact_positive)},
      {"false_rejects", std::to_string(pc.false_rejects)},
      {"faces", std::to_string(pc.faces)},
      {"faces_found", std::to_string(pc.faces_found)},
  };
  return result;
}

}  // namespace e2e
