#pragma once

// Scene-level cell-plane encode cache for sliding-window detection.
//
// Encoding each window on its own would re-run the full per-pixel stochastic
// gradient/bin/magnitude chain for every window, so with window w and stride s
// each pixel would be encoded up to (w/s)² times. But the expensive part of
// HdHogExtractor::slot_record — everything before window normalization — only
// depends on the *cell* a pixel belongs to, not on which window is looking at
// it. A CellPlane computes the raw per-(cell, bin) decoded slot values once
// per scene scale over a cell grid; window assembly then reduces to the cheap
// per-window tail (vmax normalization, level-memory lookup, weighted
// bundling) over cached cells. See DESIGN.md §10 for the cost model.
//
// Determinism contract: every cell's stochastic chain runs on a scratch
// context reseeded from the pure key (seed, scale_index, gx, gy) via
// cell_plane_seed(), so the plane — and every window assembled from it — is a
// pure function of (trained model, scene pixels, scale index), independent of
// thread count, chunk boundaries, and window enumeration order. Note this is
// a (deterministically) different random stream than encoding a cropped
// window with HdFacePipeline::encode_image: the two agree statistically, not
// bit-for-bit (tests pin the agreement rate).
//
// Grid geometry: cell origins sit at multiples of `grid_step`, which callers
// choose as gcd(stride, cell_size) so every cell of every window lands on the
// grid. When stride is a multiple of the cell size (the common dense-scan
// setup) the plane is exactly the scene cell grid; as the gcd shrinks the
// plane densifies and the amortization fades (at gcd 1 every pixel offset is
// a grid cell — the cache never makes results wrong, only slower).

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/rng.hpp"

namespace hdface::hog {

// Salt separating the cell-plane seed stream from every other consumer of the
// pipeline seed.
inline constexpr std::uint64_t kCellPlaneSalt = 0xCE11'91A7ULL;

// Pure per-cell reseed key: (seed, scale index, grid coordinates).
constexpr std::uint64_t cell_plane_seed(std::uint64_t seed_base,
                                        std::size_t scale_index, std::size_t gx,
                                        std::size_t gy) {
  return core::mix64(
      core::mix64(core::mix64(core::mix64(seed_base, kCellPlaneSalt),
                              scale_index),
                  gx),
      gy);
}

// Raw (pre-normalization) decoded slot values for one scene scale: grid cell
// (gx, gy) has pixel origin (gx·grid_step, gy·grid_step) and `bins`
// consecutive doubles. Values are exactly what slot_record's first pass
// produces for that cell, before window-local vmax normalization.
struct CellPlane {
  std::size_t cell_size = 0;
  std::size_t grid_step = 0;
  std::size_t bins = 0;
  std::size_t grid_x = 0;  // cells along x
  std::size_t grid_y = 0;  // cells along y
  std::size_t scale_index = 0;
  // Row-major cells, then bins: values[(gy * grid_x + gx) * bins + b].
  std::vector<double> values;

  std::size_t cells() const { return grid_x * grid_y; }

  const double* cell(std::size_t gx, std::size_t gy) const {
    return values.data() + (gy * grid_x + gx) * bins;
  }
  double* mutable_cell(std::size_t gx, std::size_t gy) {
    return values.data() + (gy * grid_x + gx) * bins;
  }

  // True when a window with its top-left pixel at (origin_x, origin_y)
  // covering cells_x × cells_y cells lies on the grid and inside the plane.
  bool window_on_grid(std::size_t origin_x, std::size_t origin_y,
                      std::size_t cells_x, std::size_t cells_y) const;
};

// Plane geometry for a scene: cell origins at every multiple of grid_step
// that keeps a full cell inside the scene. Throws std::invalid_argument on
// zero geometry, grid_step not dividing cell_size-aligned offsets (grid_step
// must divide cell_size), or a scene smaller than one cell.
CellPlane make_cell_plane_geometry(std::size_t scene_width,
                                   std::size_t scene_height,
                                   std::size_t cell_size, std::size_t bins,
                                   std::size_t grid_step,
                                   std::size_t scale_index);

}  // namespace hdface::hog
