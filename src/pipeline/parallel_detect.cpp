#include "pipeline/parallel_detect.hpp"

#include <algorithm>
#include <atomic>
#include <functional>
#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "hog/gradient.hpp"
#include "pipeline/cascade.hpp"

namespace hdface::pipeline {

namespace {

// Resolve the execution resource. threads == 1 never dispatches; a caller
// pool wins over the threads knob; otherwise 0 = global pool and N spins up
// a call-local pool of exactly N workers.
struct PoolChoice {
  util::ThreadPool* pool = nullptr;
  std::unique_ptr<util::ThreadPool> local;
  bool serial() const { return pool == nullptr || pool->size() <= 1; }
};

PoolChoice resolve_pool(const ParallelDetectConfig& config) {
  PoolChoice choice;
  choice.pool = config.pool;
  if (choice.pool == nullptr && config.threads != 1) {
    if (config.threads == 0) {
      choice.pool = &util::global_pool();
    } else {
      choice.local = std::make_unique<util::ThreadPool>(config.threads);
      choice.pool = choice.local.get();
    }
  }
  return choice;
}

// Per-chunk accounting: each chunk of a dispatch claims one padded shard, and
// the shards merge into the caller's sinks with integer adds after the
// dispatch joins, so every total is exact and equal at every thread count.
struct alignas(64) Shard {
  core::OpCounter ops;
  CascadeStats cascade;
  EncodeCacheStats cache;
};

core::OpCounter* ops_of(const ParallelDetectConfig& config, Shard& shard) {
  return config.feature_counter ? &shard.ops : nullptr;
}

// The engine's one dispatch: body(shard, lo, hi) over [0, count), serially or
// in contiguous chunks on the resolved pool, then the shards merge into
// config's feature_counter, cascade_stats (cascade scans only) and
// cache_stats.
template <typename Body>
void run_sharded(const PoolChoice& exec, const ParallelDetectConfig& config,
                 std::size_t count, Body&& body) {
  std::vector<Shard> shards(exec.serial() ? 1 : exec.pool->size() * 4 + 1);
  if (exec.serial()) {
    body(shards[0], 0, count);
  } else {
    std::atomic<std::size_t> next_shard{0};
    util::parallel_for_chunked(
        *exec.pool, 0, count, config.min_chunk,
        [&body, &shards, &next_shard](std::size_t lo, std::size_t hi) {
          // hdlint: allow(sched-dependent-value) — shard totals merge with
          // integer adds, so the merged totals are exact at every thread count.
          body(shards[next_shard.fetch_add(1) % shards.size()], lo, hi);
        });
  }
  for (const Shard& s : shards) {
    if (config.feature_counter) config.feature_counter->merge(s.ops);
    if (config.cascade != nullptr && config.cascade_stats) {
      config.cascade_stats->merge(s.cascade);
    }
    if (config.cache_stats) config.cache_stats->merge(s.cache);
  }
}

// Encodes the listed plane cells (row-major grid indices), each on a scratch
// context reseeded from the pure (seed, scale_index, gx, gy) key — the same
// bytes whichever chunk or thread runs it. Listed cells are distinct, so the
// writes are disjoint and need no flags or locks. The cell kernel charges the
// chunk's op-counter shard through the scratch context.
void fill_cells(const HdFacePipeline& pipeline, const image::Image& scene,
                const hog::LevelIndexPlane& levels, hog::CellPlane& plane,
                const std::vector<std::size_t>& cells, const PoolChoice& exec,
                const ParallelDetectConfig& config) {
  const hog::HdHogExtractor& extractor = *pipeline.hd_extractor();
  const std::uint64_t seed = pipeline.config().seed;
  run_sharded(exec, config, cells.size(),
              [&](Shard& shard, std::size_t lo, std::size_t hi) {
                core::StochasticContext scratch = pipeline.fork_context(seed);
                scratch.set_counter(ops_of(config, shard));
                for (std::size_t i = lo; i < hi; ++i) {
                  const std::size_t gx = cells[i] % plane.grid_x;
                  const std::size_t gy = cells[i] / plane.grid_x;
                  scratch.reseed(
                      hog::cell_plane_seed(seed, plane.scale_index, gx, gy));
                  extractor.cell_raw_values(
                      scene, &levels, gx * plane.grid_step,
                      gy * plane.grid_step, scratch, plane.mutable_cell(gx, gy));
                }
              });
}

DetectionMap make_map_geometry(const image::Image& scene, std::size_t window,
                               std::size_t stride) {
  if (window == 0 || stride == 0) {
    throw std::invalid_argument("detect_windows_parallel: zero geometry");
  }
  if (scene.width() < window || scene.height() < window) {
    throw std::invalid_argument(
        "detect_windows_parallel: scene smaller than window");
  }
  DetectionMap map;
  map.window = window;
  map.stride = stride;
  map.steps_x = (scene.width() - window) / stride + 1;
  map.steps_y = (scene.height() - window) / stride + 1;
  const std::size_t total = map.steps_x * map.steps_y;
  map.predictions.assign(total, 0);
  map.scores.assign(total, 0.0);
  return map;
}

// Shared cascade-config validation: the same throws whichever entry point
// the caller goes through.
void validate_cascade_config(const ParallelDetectConfig& config,
                             int positive_class) {
  if (config.cascade == nullptr) return;
  if (config.fault_plan != nullptr) {
    throw std::invalid_argument(
        "detect_windows_parallel: cascade scans are incompatible with "
        "fault_plan (in-flight query faults need the full feature)");
  }
  if (config.cascade->table().positive_class != positive_class) {
    throw std::invalid_argument(
        "detect_windows_parallel: cascade table positive_class mismatches "
        "the scan");
  }
}

// Number of even values in [g0, g0 + count) — the parity-subgrid cell count
// along one axis of a window (prescreen geometry has grid step 1 per cell).
std::size_t even_count(std::size_t g0, std::size_t count) {
  return (count + 1 - (g0 & 1)) / 2;
}

// One scan over a cell plane, in phases:
//   (a) fill the even/even parity cells the prescreen reads,
//   (b) prescreen every window,
//   (c) fill the cells of the surviving windows not filled yet,
//   (d) run the cascade stages and full-D scoring on the survivors.
// Without a prescreen every window survives (b), so (c) fills every cell the
// scan reads. `fill` encodes a list of plane cells; it is empty when the
// caller's plane is already complete (detect_windows_on_plane), and then the
// phases only score. Every window's result is a pure function of the cells
// it reads, so the map is the same whichever cells were filled when. `what`
// names the public entry point in error messages.
DetectionMap scan_plane(
    const char* what, const HdFacePipeline& pipeline,
    const image::Image& scene, const hog::CellPlane& plane,
    std::size_t window, std::size_t stride,
    int positive_class, const ParallelDetectConfig& config,
    const PoolChoice& exec,
    const std::function<void(const std::vector<std::size_t>&)>& fill) {
  DetectionMap map = make_map_geometry(scene, window, stride);
  const std::size_t total = map.steps_x * map.steps_y;
  const hog::HdHogExtractor& extractor = *pipeline.hd_extractor();
  const std::size_t cell = extractor.config().hog.cell_size;
  const std::size_t bins = extractor.config().hog.bins;
  // Every scan window must land on the plane's grid with its far corner
  // inside. Origins are the multiples of stride, so stride % grid_step == 0
  // puts every origin on the grid; the far-corner extent is monotone in the
  // origin, so checking the last window covers the rest.
  const std::size_t cells_per_side = window / cell;
  if (plane.grid_step == 0 || stride % plane.grid_step != 0 ||
      !plane.window_on_grid(0, 0, cells_per_side, cells_per_side) ||
      !plane.window_on_grid((map.steps_x - 1) * stride,
                            (map.steps_y - 1) * stride, cells_per_side,
                            cells_per_side)) {
    throw std::invalid_argument(
        std::string(what) +
        ": plane does not cover the scan grid (build it with grid_step = "
        "gcd(stride, cell_size) over the same scene)");
  }
  const Cascade* cascade = config.cascade;
  const bool prescreen = cascade != nullptr && cascade->has_prescreen();
  if (prescreen && plane.grid_step != cell) {
    throw std::invalid_argument(
        std::string(what) +
        ": a prescreen-carrying cascade table needs stride % cell_size == 0 "
        "so the parity subgrid is well defined");
  }
  // Grid cells between adjacent window cells (1 when grid_step == cell).
  const std::size_t gstep = cell / plane.grid_step;
  const auto origin = [&](std::size_t idx) {
    return std::pair{(idx % map.steps_x) * stride,
                     (idx / map.steps_x) * stride};
  };

  // Demand tracking, only when this scan fills its own plane: a cell is
  // listed for a fill the first time a window of the phase reads it.
  std::vector<std::uint8_t> filled(fill ? plane.cells() : 0, 0);
  std::uint64_t cells_filled = 0;
  const auto fill_demand = [&](const std::vector<std::size_t>& windows,
                               bool parity_only) -> std::size_t {
    if (!fill) return 0;
    std::vector<std::size_t> cells;
    for (const std::size_t idx : windows) {
      const auto [ox, oy] = origin(idx);
      for (std::size_t cy = 0; cy < cells_per_side; ++cy) {
        for (std::size_t cx = 0; cx < cells_per_side; ++cx) {
          const std::size_t gx = ox / plane.grid_step + cx * gstep;
          const std::size_t gy = oy / plane.grid_step + cy * gstep;
          const std::size_t c = gy * plane.grid_x + gx;
          if ((parity_only && (gx % 2 != 0 || gy % 2 != 0)) ||
              filled[c] != 0) {
            continue;
          }
          filled[c] = 1;
          cells.push_back(c);
        }
      }
    }
    fill(cells);
    cells_filled += cells.size();
    return cells.size();
  };

  std::vector<std::size_t> live(total);
  std::iota(live.begin(), live.end(), std::size_t{0});
  std::uint64_t forced_prescreen = 0;
  if (prescreen) {
    forced_prescreen = fill_demand(live, /*parity_only=*/true);  // (a)
    std::vector<std::uint8_t> rejected(total, 0);
    run_sharded(exec, config, total,  // (b)
                [&](Shard& shard, std::size_t lo, std::size_t hi) {
                  hog::HdHogExtractor::StagedWindow win(extractor);
                  Cascade::Scratch scratch;
                  for (std::size_t idx = lo; idx < hi; ++idx) {
                    const auto [ox, oy] = origin(idx);
                    const std::size_t parity_cells =
                        even_count(ox / plane.grid_step, cells_per_side) *
                        even_count(oy / plane.grid_step, cells_per_side);
                    shard.cache.ensure_checks += parity_cells;
                    shard.cache.slot_reads += parity_cells * bins;
                    win.reset_prescreen(plane, ox, oy,
                                        cascade->table().prescreen_vmax);
                    const Cascade::Result r = cascade->prescreen(
                        win, scratch, shard.cascade, ops_of(config, shard));
                    if (r.rejected) {
                      rejected[idx] = 1;
                      map.predictions[idx] = r.prediction;
                      map.scores[idx] = r.score;
                    }
                  }
                });
    std::erase_if(live, [&rejected](std::size_t idx) {
      return rejected[idx] != 0;
    });
  }
  fill_demand(live, /*parity_only=*/false);  // (c)

  // (d) Survivors: the staged cascade, or the full feature when the scan
  // runs without one (the only path that takes in-flight query faults).
  const std::size_t cells_per_window = cells_per_side * cells_per_side;
  run_sharded(
      exec, config, live.size(),
      [&](Shard& shard, std::size_t lo, std::size_t hi) {
        core::OpCounter* counter = ops_of(config, shard);
        std::optional<hog::HdHogExtractor::StagedWindow> win;
        Cascade::Scratch scratch;
        if (cascade != nullptr) win.emplace(extractor);
        for (std::size_t i = lo; i < hi; ++i) {
          const std::size_t idx = live[i];
          const auto [ox, oy] = origin(idx);
          shard.cache.ensure_checks += cells_per_window;
          shard.cache.slot_reads += extractor.slots();
          if (cascade != nullptr) {
            win->reset(plane, ox, oy);
            const Cascade::Result r = cascade->classify(
                pipeline.classifier(), *win, scratch, shard.cascade, counter);
            map.predictions[idx] = r.prediction;
            map.scores[idx] = r.score;
            continue;
          }
          core::Hypervector feature =
              extractor.extract_from_plane(plane, ox, oy, counter);
          if (config.fault_plan) {
            noise::apply_query_fault(*config.fault_plan, idx, feature);
          }
          const auto class_scores = pipeline.classifier().scores(feature);
          map.predictions[idx] = static_cast<int>(
              std::max_element(class_scores.begin(), class_scores.end()) -
              class_scores.begin());
          map.scores[idx] =
              class_scores[static_cast<std::size_t>(positive_class)];
        }
      });

  if (config.cache_stats) {
    config.cache_stats->windows_assembled += total;
    if (fill) {
      config.cache_stats->cells_total += plane.cells();
      config.cache_stats->cells_computed += cells_filled;
      config.cache_stats->cells_forced_prescreen += forced_prescreen;
    }
  }
  return map;
}

const hog::HdHogExtractor& require_extractor(const HdFacePipeline& pipeline,
                                             const char* what) {
  const hog::HdHogExtractor* extractor = pipeline.hd_extractor();
  if (extractor == nullptr) {
    throw std::invalid_argument(
        std::string(what) +
        ": the cell-plane scan requires an HD-HOG pipeline (kOrigHogEncoder "
        "has no hypervector encode to cache)");
  }
  return *extractor;
}

}  // namespace

DetectionMap detect_windows_on_plane(HdFacePipeline& pipeline,
                                     const image::Image& scene,
                                     const hog::CellPlane& plane,
                                     std::size_t window, std::size_t stride,
                                     int positive_class,
                                     const ParallelDetectConfig& config) {
  const hog::HdHogExtractor& extractor =
      require_extractor(pipeline, "detect_windows_on_plane");
  validate_cascade_config(config, positive_class);
  if (plane.cell_size != extractor.config().hog.cell_size ||
      plane.bins != extractor.config().hog.bins) {
    throw std::invalid_argument(
        "detect_windows_on_plane: plane cell/bin shape mismatches the "
        "pipeline's extractor");
  }
  // The one mutation, before any dispatch: freeze the shared mask pool.
  pipeline.prepare_concurrent();
  return scan_plane("detect_windows_on_plane", pipeline, scene, plane, window,
                    stride, positive_class, config, resolve_pool(config), {});
}

hog::CellPlane build_scene_cell_plane(HdFacePipeline& pipeline,
                                      const image::Image& scene,
                                      std::size_t grid_step,
                                      const ParallelDetectConfig& config) {
  const hog::HdHogExtractor& extractor =
      require_extractor(pipeline, "build_scene_cell_plane");
  const hog::HdHogConfig& hd = extractor.config();
  hog::CellPlane plane = hog::make_cell_plane_geometry(
      scene.width(), scene.height(), hd.hog.cell_size, hd.hog.bins, grid_step,
      config.scale_index);
  // The one mutation, before any dispatch: freeze the shared mask pool.
  pipeline.prepare_concurrent();
  std::vector<std::size_t> cells(plane.cells());
  std::iota(cells.begin(), cells.end(), std::size_t{0});
  fill_cells(pipeline, scene,
             hog::build_level_index_plane(scene, extractor.item_memory()),
             plane, cells, resolve_pool(config), config);
  if (config.cache_stats) {
    config.cache_stats->cells_computed += plane.cells();
    config.cache_stats->cells_total += plane.cells();
  }
  return plane;
}

DetectionMap detect_windows_parallel(HdFacePipeline& pipeline,
                                     const image::Image& scene,
                                     std::size_t window, std::size_t stride,
                                     int positive_class,
                                     const ParallelDetectConfig& config) {
  const hog::HdHogExtractor& extractor =
      require_extractor(pipeline, "detect_windows_parallel");
  const hog::HdHogConfig& hd = extractor.config();
  // Fail on scan-config errors before any encode work.
  (void)make_map_geometry(scene, window, stride);
  validate_cascade_config(config, positive_class);
  hog::CellPlane plane = hog::make_cell_plane_geometry(
      scene.width(), scene.height(), hd.hog.cell_size, hd.hog.bins,
      std::gcd(stride, hd.hog.cell_size), config.scale_index);
  // The one mutation, before any dispatch: freeze the shared mask pool.
  pipeline.prepare_concurrent();
  // Scene-scale pixel→level planar pass shared by every cell: each pixel is
  // quantized to its item-memory level index once, so the per-cell chain
  // (which reads border pixels up to four times) does table lookups.
  const hog::LevelIndexPlane levels =
      hog::build_level_index_plane(scene, extractor.item_memory());
  const PoolChoice exec = resolve_pool(config);
  return scan_plane("detect_windows_parallel", pipeline, scene, plane, window,
                    stride, positive_class, config, exec,
                    [&](const std::vector<std::size_t>& cells) {
                      fill_cells(pipeline, scene, levels, plane, cells, exec,
                                 config);
                    });
}

}  // namespace hdface::pipeline
