#pragma once

// Parallel batched detection engine.
//
// The sliding-window scan is embarrassingly parallel — the paper's whole
// pitch for HDC arithmetic (§4) is that it is "fully parallel" bitwise work —
// but the stochastic-arithmetic context is single-threaded. This engine
// encodes the scene once as a cell plane (hog/cell_plane.hpp): the per-pixel
// stochastic chain runs once per grid cell, each cell on a scratch
// StochasticContext forked from the pipeline's (same basis V₁, same warmed
// mask pool) and reseeded from the pure key (pipeline seed, scale_index, gx,
// gy). Windows then assemble from the cached cells with no RNG at all. Cells
// and windows are partitioned into contiguous chunks dispatched on
// util::ThreadPool.
//
// The scan fills the plane from an explicit demand set, in phases: the
// parity-subgrid cells the cascade prescreen reads, then the prescreen over
// every window, then the not-yet-filled cells of the surviving windows, then
// the cascade stages and full-D scoring on the survivors. Without a prescreen
// every window survives, so the demand set is every cell the scan reads.
// Each fill is a plain parallel loop over a list of distinct cells.
//
// Determinism: every cell's encoding is a pure function of (pipeline state,
// scene pixels, scale index, cell coordinates), and every window's score a
// pure function of the cells it reads — independent of thread count, chunk
// boundaries, scheduling order, and which cells were filled when. A 1-thread
// run and an 8-thread run produce bit-identical DetectionMaps, equal to a
// scan on a fully built plane (build_scene_cell_plane +
// detect_windows_on_plane).
//
// Accounting is exact under parallelism: each chunk accumulates op counts,
// cascade and cache tallies into its own padded shard, and the shards merge
// into the caller's sinks after each phase, so totals are equal at every
// thread count.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/op_counter.hpp"
#include "hog/cell_plane.hpp"
#include "image/image.hpp"
#include "noise/fault_model.hpp"
#include "pipeline/cascade_types.hpp"
#include "pipeline/encode_mode.hpp"
#include "pipeline/hdface_pipeline.hpp"
#include "pipeline/sliding_window.hpp"
#include "util/thread_pool.hpp"

namespace hdface::pipeline {

class Cascade;

struct ParallelDetectConfig {
  // 0 = use every worker of the pool; 1 = serial (same code path and same
  // bit-exact results, just no dispatch).
  std::size_t threads = 0;
  // Windows per chunk floor: keeps per-chunk scratch setup amortized.
  std::size_t min_chunk = 4;
  // Pool to dispatch on; nullptr = util::global_pool().
  util::ThreadPool* pool = nullptr;
  // Optional feature-op accounting (merged shard totals; see file comment).
  core::OpCounter* feature_counter = nullptr;
  // Optional query-plane fault injection: when set and the plan targets
  // queries, each window's encoded hypervector is corrupted in flight via
  // noise::apply_query_fault before classification. The fault pattern is a
  // pure function of (plan seed, window index), so faulted scans keep the
  // engine's any-thread-count bit-identical contract. Stored-memory targets
  // of the plan are NOT injected here — wrap the scan in a
  // pipeline::FaultSession for those. Must outlive the call.
  const noise::FaultPlan* fault_plan = nullptr;
  // Encode strategy; the cell plane is the only one (see EncodeMode).
  EncodeMode encode_mode = EncodeMode::kCellPlane;
  // Pyramid level this scan represents; part of the cell-plane reseed key so
  // every level of a multiscale scan draws an independent deterministic
  // stream (MultiScaleDetector sets it per level).
  std::size_t scale_index = 0;
  // Has no effect: the scan fills the cells its windows demand (see the file
  // comment). Kept only because the end-to-end benchmark
  // (e2ebench/cpp/scan.cpp) assigns it; it goes with that benchmark's next
  // change.
  PlaneMode plane_mode = PlaneMode::kEager;
  // Optional cell-plane cache accounting (exact totals at any thread count).
  EncodeCacheStats* cache_stats = nullptr;
  // Early-reject cascade (pipeline/cascade.hpp): when set, the cell-plane
  // scan scores every window through the cascade's calibrated prefix stages,
  // escalating only survivors to the exact full-D path. Survivor results are
  // bit-identical to a cascade-free scan; rejected windows report the prefix
  // verdict. Incompatible with fault_plan (in-flight query faults need the
  // fully assembled feature) — throws std::invalid_argument. The exact
  // cascade mode is represented by LEAVING this null: the scan then scores
  // every window at full D. Must outlive the call.
  const Cascade* cascade = nullptr;
  // Optional cascade stage accounting, merged from per-chunk shards after
  // the scan (exact at any thread count; untouched when `cascade` is null).
  CascadeStats* cascade_stats = nullptr;
  // Per-pyramid-level stage accounting: MultiScaleDetector appends one entry
  // per kept scale, in pyramid order. Ignored by single-scale scans.
  std::vector<CascadeStats>* cascade_per_scale = nullptr;
};

// Build the scene-level cell-plane cache the scan uses: the raw
// per-(cell, bin) slot values over the whole scene's cell grid, every cell's
// scratch context reseeded from the pure key (pipeline seed, scale_index,
// gx, gy) — bit-identical at any thread count and reusable across scans of
// the same scene/scale (exposed for benches and tests; detect_windows_parallel
// fills only the cells its windows demand). `grid_step` must divide the extractor's
// cell size; pass gcd(stride, cell_size) to cover every window of a scan.
// Calls pipeline.prepare_concurrent() (the one mutation, before dispatch).
// Throws std::invalid_argument unless the pipeline runs HD-HOG.
hog::CellPlane build_scene_cell_plane(HdFacePipeline& pipeline,
                                      const image::Image& scene,
                                      std::size_t grid_step,
                                      const ParallelDetectConfig& config = {});

// Scan-stage entry for a PREBUILT cell plane: classify every window of the
// scan grid against `plane` without re-encoding the scene. This is exactly
// the scoring phases of the scan — a scan on a freshly built plane is
// bit-identical to detect_windows_parallel, and config.cascade selects
// cascaded vs exact scoring just like there. Reuse a plane across scans of
// the SAME scene/scale (threshold sweeps, cascade-vs-exact comparisons,
// re-detection): the plane build is the scan's dominant fixed cost, and
// this entry is how callers amortize it. `scene` supplies
// only the scan-grid geometry (its pixels are not re-read). Throws
// std::invalid_argument on zero geometry, a scene smaller than the window,
// a plane whose cell/bin shape mismatches the pipeline's extractor, or a
// plane too coarse/small to cover every window of the grid.
DetectionMap detect_windows_on_plane(HdFacePipeline& pipeline,
                                     const image::Image& scene,
                                     const hog::CellPlane& plane,
                                     std::size_t window, std::size_t stride,
                                     int positive_class,
                                     const ParallelDetectConfig& config = {});

// Scan `scene` with `window`-sized windows at `stride`, classifying each with
// the trained pipeline over the scene's cell plane, filled in the phases of
// the file comment. Calls
// pipeline.prepare_concurrent() internally (the one mutation, before any
// dispatch). Throws std::invalid_argument on zero geometry, a scene smaller
// than the window, or a pipeline without an HD-HOG extractor.
DetectionMap detect_windows_parallel(HdFacePipeline& pipeline,
                                     const image::Image& scene,
                                     std::size_t window, std::size_t stride,
                                     int positive_class,
                                     const ParallelDetectConfig& config = {});

}  // namespace hdface::pipeline
