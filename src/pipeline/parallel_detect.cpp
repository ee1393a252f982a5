#include "pipeline/parallel_detect.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <numeric>
#include <stdexcept>

#include "core/rng.hpp"
#include "hog/gradient.hpp"
#include "hog/lazy_cell_plane.hpp"
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

// Cell-plane window assembly for windows [lo, hi): only the cheap per-window
// tail runs here (plane slicing, vmax normalization, level lookup, weighted
// bundling) — no stochastic context at all, so the result is trivially
// independent of scheduling.
void assemble_range(const HdFacePipeline& pipeline,
                    const hog::HdHogExtractor& extractor,
                    const hog::CellPlane& plane, const DetectionMap& geometry,
                    std::size_t stride, int positive_class,
                    const noise::FaultPlan* fault_plan,
                    core::OpCounter* counter, std::size_t lo, std::size_t hi,
                    std::vector<int>& predictions, std::vector<double>& scores) {
  for (std::size_t idx = lo; idx < hi; ++idx) {
    const std::size_t sx = idx % geometry.steps_x;
    const std::size_t sy = idx / geometry.steps_x;
    core::Hypervector feature =
        extractor.extract_from_plane(plane, sx * stride, sy * stride, counter);
    if (fault_plan) noise::apply_query_fault(*fault_plan, idx, feature);
    const auto class_scores = pipeline.classifier().scores(feature);
    predictions[idx] = static_cast<int>(
        std::max_element(class_scores.begin(), class_scores.end()) -
        class_scores.begin());
    scores[idx] = class_scores[static_cast<std::size_t>(positive_class)];
  }
}

// Number of even values in [g0, g0 + count) — the parity-subgrid cell count
// along one axis of a window (prescreen geometry has grid step 1 per cell).
std::size_t even_count(std::size_t g0, std::size_t count) {
  return (count + 1 - (g0 & 1)) / 2;
}

// Cascaded cell-plane scan for windows [lo, hi): staged prefix scoring with
// early rejection (see pipeline/cascade.hpp), preceded by the table's
// parity-cell prescreen when it carries one. Shares the plane with the exact
// path; survivors produce bit-identical (prediction, score). Stage counters
// accumulate into the chunk-local `stats`, slot-read accounting into the
// chunk-local `estats` (a prescreen-rejected window consumes only its parity
// slots, so the geometric total·slots formula no longer applies here).
void cascade_range(const HdFacePipeline& pipeline,
                   const hog::HdHogExtractor& extractor,
                   const hog::CellPlane& plane, const DetectionMap& geometry,
                   std::size_t stride, const Cascade& cascade,
                   core::OpCounter* counter, CascadeStats& stats,
                   EncodeCacheStats& estats, std::size_t lo, std::size_t hi,
                   std::vector<int>& predictions, std::vector<double>& scores) {
  hog::HdHogExtractor::StagedWindow win(extractor);
  Cascade::Scratch scratch;
  const bool prescreen = cascade.has_prescreen();
  const std::size_t cells_per_side =
      geometry.window / extractor.config().hog.cell_size;
  for (std::size_t idx = lo; idx < hi; ++idx) {
    const std::size_t sx = idx % geometry.steps_x;
    const std::size_t sy = idx / geometry.steps_x;
    const std::size_t ox = sx * stride;
    const std::size_t oy = sy * stride;
    ++estats.windows_assembled;
    if (prescreen) {
      // Prescreen geometry requires grid_step == cell_size (validated by the
      // caller), so the window's cells sit at consecutive grid coordinates.
      estats.slot_reads += even_count(ox / plane.grid_step, cells_per_side) *
                           even_count(oy / plane.grid_step, cells_per_side) *
                           plane.bins;
      win.reset_prescreen(plane, ox, oy, cascade.table().prescreen_vmax);
      const Cascade::Result r = cascade.prescreen(win, scratch, stats, counter);
      if (r.rejected) {
        predictions[idx] = r.prediction;
        scores[idx] = r.score;
        continue;
      }
    }
    estats.slot_reads += extractor.slots();
    win.reset(plane, ox, oy);
    const Cascade::Result r =
        cascade.classify(pipeline.classifier(), win, scratch, stats, counter);
    predictions[idx] = r.prediction;
    scores[idx] = r.score;
  }
}

// Shared cascade-config validation: the same throws whether the caller goes
// through detect_windows_parallel (fast-fail, before the plane build) or
// detect_windows_on_plane.
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

// Lazy cell-plane scan (PlaneMode::kLazy): the plane starts empty and a cell
// is encoded the first time any window reads it (hog/lazy_cell_plane.hpp).
// With a prescreen-carrying cascade each window first materializes only its
// even/even parity cells, prescreens on them, and escalates to the full cell
// set only on survival — cells belonging exclusively to prescreen-rejected
// windows are never encoded. Every cell reseeds from the same pure
// (seed, scale, gx, gy) key as the eager build, so the DetectionMap is
// bit-identical to kEager at any thread count and any scheduling: laziness
// changes WHEN (and whether) a cell's bytes are computed, never the bytes.
// The caller (detect_windows_parallel) has checked the extractor.
DetectionMap detect_windows_lazy_plane(HdFacePipeline& pipeline,
                                       const image::Image& scene,
                                       std::size_t window, std::size_t stride,
                                       int positive_class,
                                       const ParallelDetectConfig& config) {
  DetectionMap map = make_map_geometry(scene, window, stride);
  const std::size_t total = map.steps_x * map.steps_y;
  validate_cascade_config(config, positive_class);
  const hog::HdHogExtractor* extractor = pipeline.hd_extractor();
  const std::size_t cell = extractor->config().hog.cell_size;
  const std::size_t bins = extractor->config().hog.bins;
  const std::size_t grid_step = std::gcd(stride, cell);
  const bool prescreen =
      config.cascade != nullptr && config.cascade->has_prescreen();
  if (prescreen && grid_step != cell) {
    throw std::invalid_argument(
        "detect_windows_parallel: a prescreen-carrying cascade table needs "
        "stride % cell_size == 0 so the parity subgrid is well defined");
  }

  hog::LazyCellPlane lazy(hog::make_cell_plane_geometry(
      scene.width(), scene.height(), cell, bins, grid_step,
      config.scale_index));
  const hog::CellPlane& plane = lazy.plane();
  const std::size_t cells_per_side = window / cell;
  if (!plane.window_on_grid(0, 0, cells_per_side, cells_per_side) ||
      !plane.window_on_grid((map.steps_x - 1) * stride,
                            (map.steps_y - 1) * stride, cells_per_side,
                            cells_per_side)) {
    throw std::invalid_argument(
        "detect_windows_parallel: lazy cell plane does not cover the scan "
        "grid");
  }
  // Grid cells between adjacent window cells (1 when grid_step == cell).
  const std::size_t gstep = cell / plane.grid_step;

  // The one mutation, before any dispatch: freeze the shared mask pool.
  pipeline.prepare_concurrent();
  const std::uint64_t seed = pipeline.config().seed;
  const HdFacePipeline& frozen = pipeline;
  // Scene-scale pixel→level planar pass shared by every cell encode (see
  // build_scene_cell_plane).
  const hog::LevelIndexPlane levels =
      hog::build_level_index_plane(scene, extractor->item_memory());

  // Window work for [lo, hi): materialize the cells the window actually
  // reads, then score it exactly like the eager paths. Threads write disjoint
  // cells (the once-gate serializes racers per cell) and read only cells they
  // ensured, so the plane needs no further locking.
  const auto run_range = [&](core::StochasticContext& scratch,
                             core::OpCounter* counter, CascadeStats& cstats,
                             EncodeCacheStats& estats, std::size_t lo,
                             std::size_t hi) {
    hog::HdHogExtractor::StagedWindow win(*extractor);
    Cascade::Scratch cascade_scratch;
    const auto ensure = [&](std::size_t gx, std::size_t gy) {
      ++estats.ensure_checks;
      lazy.ensure_cell(gx, gy, [&](double* out) {
        scratch.reseed(hog::cell_plane_seed(seed, config.scale_index, gx, gy));
        extractor->cell_raw_values(scene, &levels, gx * plane.grid_step,
                                   gy * plane.grid_step, scratch, out,
                                   config.reference_cell_chain);
      });
    };
    for (std::size_t idx = lo; idx < hi; ++idx) {
      const std::size_t sx = idx % map.steps_x;
      const std::size_t sy = idx / map.steps_x;
      const std::size_t ox = sx * stride;
      const std::size_t oy = sy * stride;
      const std::size_t gx0 = ox / plane.grid_step;
      const std::size_t gy0 = oy / plane.grid_step;
      ++estats.windows_assembled;
      if (prescreen) {
        // Parity pass: only the window's even/even cells (gstep == 1 here —
        // grid_step == cell was validated above).
        std::size_t parity_cells = 0;
        for (std::size_t cy = 0; cy < cells_per_side; ++cy) {
          const std::size_t gy = gy0 + cy;
          if (gy % 2 != 0) continue;
          for (std::size_t cx = 0; cx < cells_per_side; ++cx) {
            const std::size_t gx = gx0 + cx;
            if (gx % 2 != 0) continue;
            ensure(gx, gy);
            ++parity_cells;
          }
        }
        estats.slot_reads += parity_cells * bins;
        win.reset_prescreen(plane, ox, oy,
                            config.cascade->table().prescreen_vmax);
        const Cascade::Result r =
            config.cascade->prescreen(win, cascade_scratch, cstats, counter);
        if (r.rejected) {
          map.predictions[idx] = r.prediction;
          map.scores[idx] = r.score;
          continue;
        }
      }
      for (std::size_t cy = 0; cy < cells_per_side; ++cy) {
        for (std::size_t cx = 0; cx < cells_per_side; ++cx) {
          ensure(gx0 + cx * gstep, gy0 + cy * gstep);
        }
      }
      estats.slot_reads += extractor->slots();
      if (config.cascade != nullptr) {
        win.reset(plane, ox, oy);
        const Cascade::Result r = config.cascade->classify(
            frozen.classifier(), win, cascade_scratch, cstats, counter);
        map.predictions[idx] = r.prediction;
        map.scores[idx] = r.score;
      } else {
        core::Hypervector feature =
            extractor->extract_from_plane(plane, ox, oy, counter);
        if (config.fault_plan) {
          noise::apply_query_fault(*config.fault_plan, idx, feature);
        }
        const auto class_scores = frozen.classifier().scores(feature);
        map.predictions[idx] = static_cast<int>(
            std::max_element(class_scores.begin(), class_scores.end()) -
            class_scores.begin());
        map.scores[idx] =
            class_scores[static_cast<std::size_t>(positive_class)];
      }
    }
  };

  PoolChoice exec = resolve_pool(config);
  if (exec.serial()) {
    core::StochasticContext scratch = frozen.fork_context(seed);
    core::OpCounter local;
    if (config.feature_counter) scratch.set_counter(&local);
    CascadeStats cascade_local;
    EncodeCacheStats cache_local;
    run_range(scratch, config.feature_counter ? &local : nullptr,
              cascade_local, cache_local, 0, total);
    if (config.feature_counter) config.feature_counter->merge(local);
    if (config.cascade != nullptr && config.cascade_stats) {
      config.cascade_stats->merge(cascade_local);
    }
    if (config.cache_stats) config.cache_stats->merge(cache_local);
  } else {
    core::ShardedOpCounter shards(exec.pool->size() * 4 + 1);
    std::vector<CascadeStats> stat_shards(shards.num_shards());
    std::vector<EncodeCacheStats> cache_shards(shards.num_shards());
    std::atomic<std::size_t> next_shard{0};
    util::parallel_for_chunked(
        *exec.pool, 0, total, config.min_chunk,
        [&run_range, &frozen, &config, &shards, &stat_shards, &cache_shards,
         &next_shard, seed](std::size_t lo, std::size_t hi) {
          core::StochasticContext scratch =
              frozen.fork_context(core::mix64(seed, lo));
          // hdlint: allow(sched-dependent-value) — shard totals merge with
          // integer adds, so combined() is exact at every thread count.
          const std::size_t slot = next_shard.fetch_add(1) %
                                   shards.num_shards();
          core::OpCounter* shard = nullptr;
          if (config.feature_counter) {
            shard = &shards.shard(slot);
            scratch.set_counter(shard);
          }
          run_range(scratch, shard, stat_shards[slot], cache_shards[slot], lo,
                    hi);
        });
    if (config.feature_counter) config.feature_counter->merge(shards.combined());
    if (config.cascade != nullptr && config.cascade_stats) {
      for (const CascadeStats& s : stat_shards) config.cascade_stats->merge(s);
    }
    if (config.cache_stats) {
      for (const EncodeCacheStats& s : cache_shards) {
        config.cache_stats->merge(s);
      }
    }
  }
  if (config.cache_stats) {
    // Compute-side accounting from the materialization flags: the SET of
    // materialized cells is a pure function of (model, scene, table) — which
    // thread filled a cell varies, whether it got filled does not.
    config.cache_stats->cells_total += plane.cells();
    config.cache_stats->cells_computed += lazy.count_materialized(false);
    if (prescreen) {
      config.cache_stats->cells_forced_prescreen +=
          lazy.count_materialized(true);
    }
  }
  return map;
}

}  // namespace

DetectionMap detect_windows_on_plane(HdFacePipeline& pipeline,
                                     const image::Image& scene,
                                     const hog::CellPlane& plane,
                                     std::size_t window, std::size_t stride,
                                     int positive_class,
                                     const ParallelDetectConfig& config) {
  DetectionMap map = make_map_geometry(scene, window, stride);
  const std::size_t total = map.steps_x * map.steps_y;
  validate_cascade_config(config, positive_class);

  const hog::HdHogExtractor* extractor = pipeline.hd_extractor();
  if (extractor == nullptr) {
    throw std::invalid_argument(
        "detect_windows_on_plane: pipeline has no HD-HOG extractor");
  }
  const std::size_t cell = extractor->config().hog.cell_size;
  const std::size_t bins = extractor->config().hog.bins;
  if (plane.cell_size != cell || plane.bins != bins) {
    throw std::invalid_argument(
        "detect_windows_on_plane: plane cell/bin shape mismatches the "
        "pipeline's extractor");
  }
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
        "detect_windows_on_plane: plane does not cover the scan grid (build "
        "it with grid_step = gcd(stride, cell_size) over the same scene)");
  }
  if (config.cascade != nullptr && config.cascade->has_prescreen() &&
      plane.grid_step != cell) {
    throw std::invalid_argument(
        "detect_windows_on_plane: a prescreen-carrying cascade table needs "
        "the plane grid step to equal the cell size (stride % cell_size == 0) "
        "so the parity subgrid is well defined");
  }

  // The one mutation, before any dispatch: freeze the shared mask pool.
  pipeline.prepare_concurrent();
  const HdFacePipeline& frozen = pipeline;
  const std::size_t slots_per_window = extractor->slots();

  PoolChoice exec = resolve_pool(config);
  if (exec.serial()) {
    core::OpCounter local;
    CascadeStats cascade_local;
    EncodeCacheStats cache_local;
    if (config.cascade != nullptr) {
      cascade_range(frozen, *extractor, plane, map, stride, *config.cascade,
                    config.feature_counter ? &local : nullptr, cascade_local,
                    cache_local, 0, total, map.predictions, map.scores);
    } else {
      assemble_range(frozen, *extractor, plane, map, stride, positive_class,
                     config.fault_plan,
                     config.feature_counter ? &local : nullptr, 0, total,
                     map.predictions, map.scores);
    }
    if (config.feature_counter) config.feature_counter->merge(local);
    if (config.cascade != nullptr && config.cascade_stats) {
      config.cascade_stats->merge(cascade_local);
    }
    if (config.cascade != nullptr && config.cache_stats) {
      config.cache_stats->merge(cache_local);
    }
  } else {
    core::ShardedOpCounter shards(exec.pool->size() * 4 + 1);
    // Stage counters shard exactly like op counters: each chunk claims one
    // padded slot, totals merge with integer adds after the scan, so the
    // combined stats are exact and identical at every thread count.
    std::vector<CascadeStats> stat_shards(
        config.cascade != nullptr ? shards.num_shards() : 0);
    std::vector<EncodeCacheStats> cache_shards(
        config.cascade != nullptr ? shards.num_shards() : 0);
    std::atomic<std::size_t> next_shard{0};
    util::parallel_for_chunked(
        *exec.pool, 0, total, config.min_chunk,
        [&config, &shards, &stat_shards, &cache_shards, &next_shard, &frozen,
         &extractor, &plane, &map, stride,
         positive_class](std::size_t lo, std::size_t hi) {
          core::OpCounter* shard = nullptr;
          std::size_t slot = 0;
          if (config.feature_counter || config.cascade != nullptr) {
            // hdlint: allow(sched-dependent-value) — shard totals merge with
            // integer adds, so combined() is exact at every thread count.
            slot = next_shard.fetch_add(1) % shards.num_shards();
            if (config.feature_counter) shard = &shards.shard(slot);
          }
          if (config.cascade != nullptr) {
            cascade_range(frozen, *extractor, plane, map, stride,
                          *config.cascade, shard, stat_shards[slot],
                          cache_shards[slot], lo, hi, map.predictions,
                          map.scores);
          } else {
            assemble_range(frozen, *extractor, plane, map, stride,
                           positive_class, config.fault_plan, shard, lo, hi,
                           map.predictions, map.scores);
          }
        });
    if (config.feature_counter) config.feature_counter->merge(shards.combined());
    if (config.cascade != nullptr && config.cascade_stats) {
      for (const CascadeStats& s : stat_shards) config.cascade_stats->merge(s);
    }
    if (config.cascade != nullptr && config.cache_stats) {
      for (const EncodeCacheStats& s : cache_shards) {
        config.cache_stats->merge(s);
      }
    }
  }
  if (config.cache_stats && config.cascade == nullptr) {
    // Assembly-side accounting is a pure function of the grid geometry (every
    // window reads exactly slots() cached values), so the totals are exact by
    // construction; the compute side was tallied by build_scene_cell_plane.
    // Cascaded scans account per window inside cascade_range instead — a
    // prescreen-rejected window reads only its parity slots.
    config.cache_stats->slot_reads +=
        static_cast<std::uint64_t>(total) * slots_per_window;
    config.cache_stats->windows_assembled += total;
  }
  return map;
}

hog::CellPlane build_scene_cell_plane(HdFacePipeline& pipeline,
                                      const image::Image& scene,
                                      std::size_t grid_step,
                                      const ParallelDetectConfig& config) {
  const hog::HdHogExtractor* extractor = pipeline.hd_extractor();
  if (extractor == nullptr) {
    throw std::invalid_argument(
        "build_scene_cell_plane: pipeline has no HD-HOG extractor");
  }
  const hog::HdHogConfig& hd = extractor->config();
  hog::CellPlane plane = hog::make_cell_plane_geometry(
      scene.width(), scene.height(), hd.hog.cell_size, hd.hog.bins, grid_step,
      config.scale_index);
  const std::size_t total = plane.cells();

  // The one mutation, before any dispatch: freeze the shared mask pool.
  pipeline.prepare_concurrent();
  const std::uint64_t seed = pipeline.config().seed;
  const HdFacePipeline& frozen = pipeline;

  // Scene-scale planar pass shared by every cell: quantize each pixel to its
  // item-memory level index once, so the per-cell chain (which reads border
  // pixels up to four times, and shared borders once per adjacent cell) does
  // table lookups instead of repeated level searches.
  const hog::LevelIndexPlane levels =
      hog::build_level_index_plane(scene, extractor->item_memory());

  // Per-cell work on [lo, hi): reseed from the pure (seed, scale, gx, gy)
  // key, then run the cell's stochastic chain into the plane.
  const auto fill_range = [&](core::StochasticContext& scratch, std::size_t lo,
                              std::size_t hi) {
    for (std::size_t idx = lo; idx < hi; ++idx) {
      const std::size_t gx = idx % plane.grid_x;
      const std::size_t gy = idx / plane.grid_x;
      scratch.reseed(
          hog::cell_plane_seed(seed, config.scale_index, gx, gy));
      extractor->cell_raw_values(scene, &levels, gx * plane.grid_step,
                                 gy * plane.grid_step, scratch,
                                 plane.mutable_cell(gx, gy),
                                 config.reference_cell_chain);
    }
  };

  PoolChoice exec = resolve_pool(config);
  if (exec.serial()) {
    core::StochasticContext scratch = frozen.fork_context(seed);
    core::OpCounter local;
    if (config.feature_counter) scratch.set_counter(&local);
    fill_range(scratch, 0, total);
    if (config.feature_counter) config.feature_counter->merge(local);
  } else {
    core::ShardedOpCounter shards(exec.pool->size() * 4 + 1);
    std::atomic<std::size_t> next_shard{0};
    util::parallel_for_chunked(
        *exec.pool, 0, total, config.min_chunk,
        [&frozen, seed, &config, &shards, &next_shard,
         &fill_range](std::size_t lo, std::size_t hi) {
          core::StochasticContext scratch =
              frozen.fork_context(core::mix64(seed, lo));
          if (config.feature_counter) {
            // hdlint: allow(sched-dependent-value) — shard totals merge with
            // integer adds, so combined() is exact at every thread count.
            scratch.set_counter(&shards.shard(next_shard.fetch_add(1) %
                                              shards.num_shards()));
          }
          fill_range(scratch, lo, hi);
        });
    if (config.feature_counter) config.feature_counter->merge(shards.combined());
  }
  if (config.cache_stats) {
    config.cache_stats->cells_computed += total;
    config.cache_stats->cells_total += total;
  }
  return plane;
}

DetectionMap detect_windows_parallel(HdFacePipeline& pipeline,
                                     const image::Image& scene,
                                     std::size_t window, std::size_t stride,
                                     int positive_class,
                                     const ParallelDetectConfig& config) {
  const hog::HdHogExtractor* extractor = pipeline.hd_extractor();
  // build_scene_cell_plane re-validates, but the error should name the scan.
  if (extractor == nullptr) {
    throw std::invalid_argument(
        "detect_windows_parallel: the cell-plane scan requires an HD-HOG "
        "pipeline (kOrigHogEncoder has no hypervector encode to cache)");
  }
  if (config.plane_mode == PlaneMode::kLazy) {
    return detect_windows_lazy_plane(pipeline, scene, window, stride,
                                     positive_class, config);
  }
  // Fast-fail on scan-config errors before paying for the plane build
  // (detect_windows_on_plane re-validates; both are cheap).
  (void)make_map_geometry(scene, window, stride);
  validate_cascade_config(config, positive_class);
  const std::size_t grid_step =
      std::gcd(stride, extractor->config().hog.cell_size);
  const hog::CellPlane plane =
      build_scene_cell_plane(pipeline, scene, grid_step, config);
  return detect_windows_on_plane(pipeline, scene, plane, window, stride,
                                 positive_class, config);
}

}  // namespace hdface::pipeline
