#pragma once

// Encode-strategy knob and cache accounting for the batched detection
// engine, split out of parallel_detect.hpp so the public facade
// (api/detector.hpp) can carry them without pulling the engine (and its
// pipeline/thread-pool/cell-plane dependency cone).

#include <cstdint>

namespace hdface::pipeline {

// How the scan turns window pixels into feature hypervectors. The
// scene-level cell plane (hog/cell_plane.hpp) is the only scan encode: the
// per-pixel stochastic chain runs once per grid cell of the whole scene, each
// cell reseeded from the pure key (pipeline seed, scale_index, gx, gy), and
// windows assemble from the cached cells — bit-identical at every thread
// count. Requires an HD-HOG pipeline (kOrigHogEncoder has no hypervector
// encode to cache; the facade rejects such scans with kInvalidOptions).
// The enum keeps its one enumerator only because the end-to-end benchmark
// (e2ebench/cpp/scan.cpp) assigns it; it goes once that benchmark stops.
enum class EncodeMode {
  kCellPlane,
};

// Has no effect: every scan fills the cells its windows demand (see
// pipeline/parallel_detect.hpp). Both enumerators stay only because the
// end-to-end benchmark (e2ebench/cpp/scan.cpp) assigns them; they go with
// that benchmark's next change.
enum class PlaneMode {
  kEager,
  kLazy,
};

// Exact cache accounting for a cell-plane scan, merged from per-chunk shards
// after the scan — totals are identical at every thread count. The SET of
// filled cells is a pure function of (model, scene, cascade table), not of
// scheduling, so its size and parity-subgrid slice are exact too.
struct EncodeCacheStats {
  // Cells whose stochastic chain actually ran: the scan's demand set (the
  // cells its prescreened and surviving windows read), or every plane cell
  // for build_scene_cell_plane. detect_windows_on_plane fills nothing.
  std::uint64_t cells_computed = 0;
  // Grid cells the plane geometry holds. cells_computed / cells_total is the
  // materialized fraction the plane-encode bench gates on.
  std::uint64_t cells_total = 0;
  // Filled cells on the even/even parity subgrid the cascade prescreen reads
  // — the cells the prescreen phase demanded (prescreen scans only; 0
  // otherwise).
  std::uint64_t cells_forced_prescreen = 0;
  // (window, cell) reads, in every scan: a prescreened window reads its
  // parity cells, and a window scored by the stages or at full D reads all
  // of its cells (a survivor of the prescreen counts both).
  // 1 − cells_computed / ensure_checks is the plane hit rate: the fraction of
  // reads answered by a cell some earlier read already demanded.
  std::uint64_t ensure_checks = 0;
  // Cached (cell, bin) slot values consumed by window assembly (the hit
  // side; a per-window encode would have recomputed each of these). A
  // prescreen-rejected window consumes only its parity-subset slots.
  std::uint64_t slot_reads = 0;
  std::uint64_t windows_assembled = 0;

  void merge(const EncodeCacheStats& other) {
    cells_computed += other.cells_computed;
    cells_total += other.cells_total;
    cells_forced_prescreen += other.cells_forced_prescreen;
    ensure_checks += other.ensure_checks;
    slot_reads += other.slot_reads;
    windows_assembled += other.windows_assembled;
  }
};

}  // namespace hdface::pipeline
