#include "hog/hd_hog.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/kernels/kernels.hpp"

namespace hdface::hog {

namespace {

using MaskView = core::StochasticContext::PooledMaskView;

// Pooled masks are stored unrotated; mask word i is m.words[(i + off) % n].
// These helpers apply a kernel across the two contiguous segments of that
// rotation — [0, n−off) reads m.words+off, [n−off, n) wraps to m.words —
// so the rotated mask is never materialized. off == 0 degenerates to one
// full-length call.

// dst[i] = a[i] ^ mask[i]; dst may alias a.
inline void xor_rot(const core::kernels::KernelTable& kt,
                    const std::uint64_t* a, const MaskView& m,
                    std::uint64_t* dst, std::size_t n) {
  const std::size_t head = n - m.offset;
  kt.xor_words(a, m.words + m.offset, dst, head);
  if (m.offset != 0) kt.xor_words(a + head, m.words, dst + head, m.offset);
}

// dst = select_words(a, b, mask, cond_flip, out_flip); dst may alias a/b.
inline void select_rot(const core::kernels::KernelTable& kt,
                       const std::uint64_t* a, const std::uint64_t* b,
                       const MaskView& m, std::uint64_t cond_flip,
                       std::uint64_t out_flip, std::uint64_t* dst,
                       std::size_t n) {
  const std::size_t head = n - m.offset;
  kt.select_words(a, b, m.words + m.offset, cond_flip, out_flip, dst, head);
  if (m.offset != 0) {
    kt.select_words(a + head, b + head, m.words, cond_flip, out_flip,
                    dst + head, m.offset);
  }
}

// Σ popcount(select_words(a, b, mask, cond_flip, 0)[i] ^ x[i]).
inline std::uint64_t popsel_rot(const core::kernels::KernelTable& kt,
                                const std::uint64_t* a, const std::uint64_t* b,
                                const MaskView& m, const std::uint64_t* x,
                                std::uint64_t cond_flip, std::size_t n) {
  const std::size_t head = n - m.offset;
  std::uint64_t total =
      kt.popcount_select_xor(a, b, m.words + m.offset, x, cond_flip, head);
  if (m.offset != 0) {
    total += kt.popcount_select_xor(a + head, b + head, m.words, x + head,
                                    cond_flip, m.offset);
  }
  return total;
}

}  // namespace

HdHogExtractor::HdHogExtractor(core::StochasticContext& ctx,
                               const HdHogConfig& config, std::size_t image_width,
                               std::size_t image_height)
    : ctx_(ctx),
      config_(config),
      cells_x_(config.hog.cells_x(image_width)),
      cells_y_(config.hog.cells_y(image_height)),
      item_memory_(ctx, config.pixel_levels, 0.0, 1.0),
      histogram_memory_(ctx, config.histogram_levels, 0.0, 1.0),
      binner_(config.hog.bins),
      bundler_(ctx, cells_x_, cells_y_, config.hog.bins) {
  if (cells_x_ == 0 || cells_y_ == 0) {
    throw std::invalid_argument("HdHogExtractor: image smaller than one cell");
  }
  for (double t : binner_.boundary_tans()) {
    if (t <= 1.0) {
      boundary_consts_.push_back(ctx_.construct(t));
      boundary_uses_cot_.push_back(false);
    } else {
      boundary_consts_.push_back(ctx_.construct(1.0 / t));
      boundary_uses_cot_.push_back(true);
    }
  }
  boundary_consts_xor_basis_.reserve(boundary_consts_.size());
  for (const auto& c : boundary_consts_) {
    boundary_consts_xor_basis_.push_back(c ^ ctx_.basis());
  }
}

HdHogExtractor::GradientHv HdHogExtractor::pixel_gradient(const image::Image& img,
                                                          std::size_t x,
                                                          std::size_t y) {
  return pixel_gradient(img, x, y, ctx_);
}

HdHogExtractor::GradientHv HdHogExtractor::pixel_gradient(
    const image::Image& img, std::size_t x, std::size_t y,
    core::StochasticContext& ctx) const {
  const auto xi = static_cast<std::ptrdiff_t>(x);
  const auto yi = static_cast<std::ptrdiff_t>(y);
  // V_Gx = V_C(x+1) ⊕ (−V_C(x−1)) represents (C(x+1) − C(x−1)) / 2.
  GradientHv g{
      ctx.add_halved(pixel_hv(img.at_clamped(xi + 1, yi)),
                     ~pixel_hv(img.at_clamped(xi - 1, yi))),
      ctx.add_halved(pixel_hv(img.at_clamped(xi, yi + 1)),
                     ~pixel_hv(img.at_clamped(xi, yi - 1))),
  };
  return g;
}

core::Hypervector HdHogExtractor::pixel_magnitude(const GradientHv& grad) {
  return pixel_magnitude(grad, ctx_);
}

core::Hypervector HdHogExtractor::pixel_magnitude(
    const GradientHv& grad, core::StochasticContext& ctx) const {
  if (config_.mode == HdHogMode::kDecodeShortcut) {
    const double gx = ctx.decode(grad.gx);
    const double gy = ctx.decode(grad.gy);
    return ctx.construct(std::sqrt((gx * gx + gy * gy) / 2.0));
  }
  // (G_x ⊗ G_x) ⊕ (G_y ⊗ G_y), then the binary-search square root. The two
  // squares are sequenced explicitly (gy first — the order the original
  // nested-call form compiled to) so the RNG draw order is pinned by the
  // source rather than by argument evaluation order; the batched cell
  // encoder replays this exact stream.
  const core::Hypervector sq_gy = ctx.square(grad.gy);
  const core::Hypervector sq_gx = ctx.square(grad.gx);
  const core::Hypervector m2 = ctx.add_halved(sq_gx, sq_gy);
  return ctx.sqrt(m2);
}

std::size_t HdHogExtractor::pixel_bin(const GradientHv& grad) {
  return pixel_bin(grad, ctx_);
}

std::size_t HdHogExtractor::pixel_bin(const GradientHv& grad,
                                      core::StochasticContext& ctx) const {
  if (config_.mode == HdHogMode::kDecodeShortcut) {
    // Snap decoded components below the statistical noise floor to zero so
    // the quadrant convention matches the faithful path (zero → positive)
    // instead of letting decode noise pick the quadrant.
    const double eps = 2.0 / std::sqrt(static_cast<double>(ctx.dim()));
    double gx = ctx.decode(grad.gx);
    double gy = ctx.decode(grad.gy);
    if (std::fabs(gx) < eps) gx = 0.0;
    if (std::fabs(gy) < eps) gy = 0.0;
    return binner_.bin_of(static_cast<float>(gx), static_cast<float>(gy));
  }
  // Quadrant from hyperspace signs (zeros count as positive, matching the
  // reference binner's convention).
  const int sgx = ctx.sign_of(grad.gx) < 0 ? -1 : 1;
  const int sgy = ctx.sign_of(grad.gy) < 0 ? -1 : 1;
  const std::size_t q = AngleBinner::quadrant(sgx, sgy);

  const core::Hypervector abs_gx = sgx < 0 ? ~grad.gx : grad.gx;
  const core::Hypervector abs_gy = sgy < 0 ? ~grad.gy : grad.gy;
  const bool gy_over_gx = AngleBinner::ratio_is_gy_over_gx(q);
  const core::Hypervector& num = gy_over_gx ? abs_gy : abs_gx;
  const core::Hypervector& den = gy_over_gx ? abs_gx : abs_gy;

  std::vector<bool> greater;
  greater.reserve(boundary_consts_.size());
  for (std::size_t j = 0; j < boundary_consts_.size(); ++j) {
    // α = (num − r·den)/2 via V_α = 0.5·V_lhs ⊕ 0.5·(−V_rhs); sign of the
    // decoded α decides the comparison (paper §4.3). For boundaries with
    // tan > 1 the cot form compares cot(θ)·num against den instead.
    core::Hypervector lhs =
        boundary_uses_cot_[j] ? ctx.multiply(boundary_consts_[j], num) : num;
    core::Hypervector rhs =
        boundary_uses_cot_[j] ? den : ctx.multiply(boundary_consts_[j], den);
    greater.push_back(ctx.compare(lhs, rhs) > 0);
  }
  return binner_.global_bin(q, binner_.local_bin_from_comparisons(greater));
}

HdHogExtractor::SlotRecord HdHogExtractor::slot_record(const image::Image& img) {
  return slot_record(img, ctx_);
}

void HdHogExtractor::cell_raw_values(const image::Image& img, std::size_t x0,
                                     std::size_t y0,
                                     core::StochasticContext& ctx,
                                     double* out) const {
  cell_raw_values(img, nullptr, x0, y0, ctx, out);
}

void HdHogExtractor::cell_raw_values(const image::Image& img,
                                     const LevelIndexPlane* levels,
                                     std::size_t x0, std::size_t y0,
                                     core::StochasticContext& ctx,
                                     double* out) const {
  if (levels != nullptr &&
      (levels->width != img.width() || levels->height != img.height())) {
    throw std::invalid_argument(
        "HdHogExtractor: level-index plane geometry mismatches the image");
  }
  if (config_.mode == HdHogMode::kFaithful && ctx.pooled_fast_path()) {
    cell_raw_values_fused(img, levels, x0, y0, ctx, out);
    return;
  }
  cell_raw_values_reference(img, x0, y0, ctx, out);
}

void HdHogExtractor::cell_raw_values_reference(const image::Image& img,
                                               std::size_t x0, std::size_t y0,
                                               core::StochasticContext& ctx,
                                               double* out) const {
  const std::size_t bins = config_.hog.bins;
  const std::size_t cell = config_.hog.cell_size;
  const std::size_t pixels_per_cell = cell * cell;

  std::vector<core::Hypervector> bin_mean(bins);
  std::vector<std::size_t> bin_count(bins);
  for (std::size_t py = 0; py < cell; ++py) {
    for (std::size_t px = 0; px < cell; ++px) {
      const std::size_t x = x0 + px;
      const std::size_t y = y0 + py;
      GradientHv grad = pixel_gradient(img, x, y, ctx);
      const std::size_t bin = pixel_bin(grad, ctx);
      core::Hypervector mag = pixel_magnitude(grad, ctx);
      // Running stochastic mean of the magnitudes matched to this bin.
      auto& n = bin_count[bin];
      if (n == 0) {
        bin_mean[bin] = std::move(mag);
      } else {
        const double keep = static_cast<double>(n) / static_cast<double>(n + 1);
        bin_mean[bin] = ctx.weighted_average(bin_mean[bin], mag, keep);
      }
      ++n;
    }
  }
  // Bin value = mean of matched magnitudes × hit rate
  //           = (Σ matched magnitudes) / pixels-per-cell,
  // read out via the hyperspace decode.
  for (std::size_t b = 0; b < bins; ++b) {
    if (bin_count[b] == 0) {
      out[b] = 0.0;
    } else {
      const double rate = static_cast<double>(bin_count[b]) /
                          static_cast<double>(pixels_per_cell);
      out[b] = ctx.decode(ctx.scale(bin_mean[b], rate));
    }
  }
}

void HdHogExtractor::cell_raw_values_fused(const image::Image& img,
                                           const LevelIndexPlane* levels,
                                           std::size_t x0, std::size_t y0,
                                           core::StochasticContext& ctx,
                                           double* out) const {
  // Every stochastic op of the reference chain reduced to its word-kernel
  // core, with the algebraic folds the packed representation admits:
  //
  //   add_halved(a, ~b)        = select_words(a, b, m, ~0, ~0)
  //   multiply(c_j, v)         = (c_j ^ V₁) ^ v        (precomputed cjb)
  //   square(v)                = v ^ rot(mask)          (basis cancels)
  //   compare / scale+decode   = popcount_select_xor against V₁
  //
  // Draw-for-draw parity with the reference chain is the correctness
  // contract: each pooled_mask_view below stands where the reference draws
  // its bernoulli_mask, in the same order with the same probability, so the
  // RNG stream — and therefore every output double — is bit-identical.
  //
  // Op accounting follows the same contract. pooled_mask_view charges each
  // draw like bernoulli_mask; the reference chain's other charges are summed
  // from the primitives' op-cost model and added once.
  namespace cost = core::op_cost;
  // Two halved differences, two sign decodes, two squares, the halved sum
  // and sqrt's pre-loop construct.
  constexpr core::OpCharge kPerPixel = 3 * cost::kAddHalved +
                                       2 * cost::kSignOf +
                                       2 * cost::kSquare + cost::kConstruct;
  constexpr core::OpCharge kPerBoundary = cost::kMultiply + cost::kCompare;
  // Two constructs, a multiply and a compare; the breaking step counts.
  constexpr core::OpCharge kPerSqrtStep =
      2 * cost::kConstruct + cost::kMultiply + cost::kCompare;
  constexpr core::OpCharge kPerRepeatHit = cost::kWeightedAverage;
  constexpr core::OpCharge kPerFilledBin = cost::kScale + cost::kDecode;
  const auto& kt = core::kernels::active();
  const std::size_t bins = config_.hog.bins;
  const std::size_t cell = config_.hog.cell_size;
  const std::size_t pixels_per_cell = cell * cell;
  const std::size_t n = ctx.basis().num_words();
  const double dimd = static_cast<double>(ctx.dim());
  const double eps = 2.0 / std::sqrt(dimd);
  const std::uint64_t* basis = ctx.basis().words().data();
  const int iters = ctx.effective_search_iters();

  // Flat word workspace: gradient pair, boundary-multiply scratch, the sqrt
  // iterate and its square, and the readout zero vector.
  std::vector<std::uint64_t> ws(6 * n);
  std::uint64_t* gx = ws.data();
  std::uint64_t* gy = gx + n;
  std::uint64_t* tmp = gy + n;
  std::uint64_t* mid = tmp + n;
  std::uint64_t* msq = mid + n;
  std::uint64_t* zbuf = msq + n;
  std::vector<std::uint64_t> bin_mean(bins * n);
  std::vector<std::size_t> bin_count(bins, 0);
  std::vector<bool> greater(boundary_consts_.size());
  const std::uint64_t boundaries = boundary_consts_.size();
  core::OpCharge charged;

  const auto pix = [&](std::ptrdiff_t x, std::ptrdiff_t y) {
    if (levels != nullptr) {
      return item_memory_.level(levels->at_clamped(x, y)).words().data();
    }
    return item_memory_.at_value(static_cast<double>(img.at_clamped(x, y)))
        .words()
        .data();
  };

  for (std::size_t py = 0; py < cell; ++py) {
    for (std::size_t px = 0; px < cell; ++px) {
      const auto xi = static_cast<std::ptrdiff_t>(x0 + px);
      const auto yi = static_cast<std::ptrdiff_t>(y0 + py);
      charged += kPerPixel + boundaries * kPerBoundary;
      // Gradient: V_G = A ⊕ (−B); the operand/result complements of the
      // halved difference fold into the select flips.
      {
        const auto m = ctx.pooled_mask_view(0.5);
        select_rot(kt, pix(xi + 1, yi), pix(xi - 1, yi), m, ~0ULL, ~0ULL, gx,
                   n);
      }
      {
        const auto m = ctx.pooled_mask_view(0.5);
        select_rot(kt, pix(xi, yi + 1), pix(xi, yi - 1), m, ~0ULL, ~0ULL, gy,
                   n);
      }

      // Orientation bin: signs from the (draw-free) decode, then one fused
      // compare per interior boundary.
      const double dgx =
          1.0 - 2.0 * static_cast<double>(kt.hamming_words(gx, basis, n)) /
                    dimd;
      const double dgy =
          1.0 - 2.0 * static_cast<double>(kt.hamming_words(gy, basis, n)) /
                    dimd;
      const int sgx = dgx < -eps ? -1 : 1;
      const int sgy = dgy < -eps ? -1 : 1;
      const std::size_t q = AngleBinner::quadrant(sgx, sgy);
      const bool gy_over = AngleBinner::ratio_is_gy_over_gx(q);
      const std::uint64_t fgx = sgx < 0 ? ~0ULL : 0ULL;
      const std::uint64_t fgy = sgy < 0 ? ~0ULL : 0ULL;
      const std::uint64_t* num = gy_over ? gy : gx;
      const std::uint64_t* den = gy_over ? gx : gy;
      const std::uint64_t fnum = gy_over ? fgy : fgx;
      const std::uint64_t fden = gy_over ? fgx : fgy;
      for (std::size_t j = 0; j < boundary_consts_.size(); ++j) {
        const std::uint64_t* cjb = boundary_consts_xor_basis_[j].words().data();
        const std::uint64_t* lhs;
        const std::uint64_t* rhs;
        if (boundary_uses_cot_[j]) {
          kt.xor_words(cjb, num, tmp, n);
          lhs = tmp;
          rhs = den;
        } else {
          kt.xor_words(cjb, den, tmp, n);
          lhs = num;
          rhs = tmp;
        }
        // compare(L ⊕ fL, R ⊕ fR): the ~rhs of the halved difference gives
        // g = fR ^ ~0; a result flip of ~0 inverts every popcount word
        // (H = 64n − P), exact because dim % 64 == 0 on this path.
        const std::uint64_t g = fden ^ ~0ULL;
        const std::uint64_t cf = fnum ^ g;
        const auto m = ctx.pooled_mask_view(0.5);
        const std::uint64_t p = popsel_rot(kt, lhs, rhs, m, basis, cf, n);
        const std::uint64_t h = g == ~0ULL ? 64 * n - p : p;
        const double d = 1.0 - 2.0 * static_cast<double>(h) / dimd;
        greater[j] = d > eps / 2.0;
      }
      const std::size_t bin =
          binner_.global_bin(q, binner_.local_bin_from_comparisons(greater));

      // Magnitude: squares in place (multiply-by-regeneration is an XOR with
      // the construction mask — the basis cancels; gy first, matching the
      // reference chain's pinned order), halved sum into gx, then the
      // binary-search sqrt.
      {
        const auto m = ctx.pooled_mask_view((1.0 - dgy) / 2.0);
        xor_rot(kt, gy, m, gy, n);
      }
      {
        const auto m = ctx.pooled_mask_view((1.0 - dgx) / 2.0);
        xor_rot(kt, gx, m, gx, n);
      }
      {
        const auto m = ctx.pooled_mask_view(0.5);
        select_rot(kt, gx, gy, m, 0, 0, gx, n);
      }
      // sqrt's pre-loop construct(0.5) is overwritten on the first iteration
      // but still advances the stream.
      (void)ctx.pooled_mask_view(0.25);
      double lo = 0.0;
      double hi = 1.0;
      for (int it = 0; it < iters; ++it) {
        const double mval = (lo + hi) / 2.0;
        charged += kPerSqrtStep;
        {
          const auto m = ctx.pooled_mask_view((1.0 - mval) / 2.0);
          xor_rot(kt, basis, m, mid, n);
        }
        {
          const auto m = ctx.pooled_mask_view((1.0 - mval) / 2.0);
          xor_rot(kt, mid, m, msq, n);
        }
        const auto m = ctx.pooled_mask_view(0.5);
        const std::uint64_t p = popsel_rot(kt, msq, gx, m, basis, ~0ULL, n);
        const std::uint64_t h = 64 * n - p;
        const double d = 1.0 - 2.0 * static_cast<double>(h) / dimd;
        const int c = d > eps / 2.0 ? 1 : (d < -eps / 2.0 ? -1 : 0);
        if (c > 0) {
          hi = mval;
        } else if (c < 0) {
          lo = mval;
        } else {
          break;
        }
      }

      // Running stochastic mean of the magnitudes matched to this bin.
      std::uint64_t* mean = bin_mean.data() + bin * n;
      auto& cnt = bin_count[bin];
      if (cnt == 0) {
        std::copy(mid, mid + n, mean);
      } else {
        charged += kPerRepeatHit;
        const double keep =
            static_cast<double>(cnt) / static_cast<double>(cnt + 1);
        const auto m = ctx.pooled_mask_view(keep);
        select_rot(kt, mean, mid, m, 0, 0, mean, n);
      }
      ++cnt;
    }
  }

  // Readout: scale-by-rate (average with a fresh zero) fused with the decode.
  for (std::size_t b = 0; b < bins; ++b) {
    if (bin_count[b] == 0) {
      out[b] = 0.0;
      continue;
    }
    charged += kPerFilledBin;
    const double rate = static_cast<double>(bin_count[b]) /
                        static_cast<double>(pixels_per_cell);
    {
      const auto mz = ctx.pooled_mask_view(0.5);
      xor_rot(kt, basis, mz, zbuf, n);
    }
    const auto ms = ctx.pooled_mask_view(rate);
    const std::uint64_t p =
        popsel_rot(kt, bin_mean.data() + b * n, zbuf, ms, basis, 0, n);
    out[b] = 1.0 - 2.0 * static_cast<double>(p) / dimd;
  }
  ctx.charge(charged, n);
}

HdHogExtractor::SlotRecord HdHogExtractor::normalize_slots(
    std::vector<double> values) const {
  // Window normalization (the HD analogue of HOG block normalization) and
  // correlative level re-quantization (see HdHogConfig).
  double vmax = config_.histogram_floor;
  for (double v : values) vmax = std::max(vmax, v);
  SlotRecord record;
  record.hvs.reserve(values.size());
  record.values.reserve(values.size());
  for (double v : values) {
    const double normalized = std::max(0.0, v) / vmax;
    record.values.push_back(normalized);
    record.hvs.push_back(histogram_memory_.at_value(normalized));
  }
  return record;
}

HdHogExtractor::SlotRecord HdHogExtractor::slot_record(
    const image::Image& img, core::StochasticContext& ctx) const {
  if (config_.hog.cells_x(img.width()) != cells_x_ ||
      config_.hog.cells_y(img.height()) != cells_y_) {
    throw std::invalid_argument("HdHogExtractor: image geometry mismatch");
  }
  const std::size_t bins = config_.hog.bins;
  const std::size_t cell = config_.hog.cell_size;

  // First pass: per-(cell, bin) decoded histogram values from the hyperspace
  // magnitude/bin chain, row-major over the window's cells on one continuous
  // RNG chain (the seed-compatible stream; the CellPlane cache instead
  // reseeds per cell — see cell_plane.hpp).
  std::vector<double> values(cells_x_ * cells_y_ * bins);
  for (std::size_t cy = 0; cy < cells_y_; ++cy) {
    for (std::size_t cx = 0; cx < cells_x_; ++cx) {
      cell_raw_values(img, cx * cell, cy * cell, ctx,
                      values.data() + (cy * cells_x_ + cx) * bins);
    }
  }
  return normalize_slots(std::move(values));
}

HdHogExtractor::SlotRecord HdHogExtractor::slot_record_from_plane(
    const CellPlane& plane, std::size_t origin_x, std::size_t origin_y) const {
  if (plane.bins != config_.hog.bins ||
      plane.cell_size != config_.hog.cell_size) {
    throw std::invalid_argument(
        "HdHogExtractor: cell plane geometry mismatches this extractor");
  }
  if (!plane.window_on_grid(origin_x, origin_y, cells_x_, cells_y_)) {
    throw std::invalid_argument(
        "HdHogExtractor: window origin off the cell-plane grid");
  }
  const std::size_t bins = config_.hog.bins;
  const std::size_t cell = config_.hog.cell_size;
  std::vector<double> values;
  values.reserve(cells_x_ * cells_y_ * bins);
  for (std::size_t cy = 0; cy < cells_y_; ++cy) {
    for (std::size_t cx = 0; cx < cells_x_; ++cx) {
      const std::size_t gx = (origin_x + cx * cell) / plane.grid_step;
      const std::size_t gy = (origin_y + cy * cell) / plane.grid_step;
      const double* cached = plane.cell(gx, gy);
      values.insert(values.end(), cached, cached + bins);
    }
  }
  return normalize_slots(std::move(values));
}

void HdHogExtractor::gather_plane_slots(
    const CellPlane& plane, std::size_t origin_x, std::size_t origin_y,
    std::vector<const core::Hypervector*>& hvs,
    std::vector<double>& values) const {
  if (plane.bins != config_.hog.bins ||
      plane.cell_size != config_.hog.cell_size) {
    throw std::invalid_argument(
        "HdHogExtractor: cell plane geometry mismatches this extractor");
  }
  if (!plane.window_on_grid(origin_x, origin_y, cells_x_, cells_y_)) {
    throw std::invalid_argument(
        "HdHogExtractor: window origin off the cell-plane grid");
  }
  const std::size_t bins = config_.hog.bins;
  const std::size_t cell = config_.hog.cell_size;
  const std::size_t n_slots = cells_x_ * cells_y_ * bins;

  double vmax = config_.histogram_floor;
  std::vector<double> raw(n_slots);
  std::size_t s = 0;
  for (std::size_t cy = 0; cy < cells_y_; ++cy) {
    for (std::size_t cx = 0; cx < cells_x_; ++cx) {
      const std::size_t gx = (origin_x + cx * cell) / plane.grid_step;
      const std::size_t gy = (origin_y + cy * cell) / plane.grid_step;
      const double* cached = plane.cell(gx, gy);
      for (std::size_t b = 0; b < bins; ++b, ++s) {
        raw[s] = cached[b];
        vmax = std::max(vmax, cached[b]);
      }
    }
  }
  hvs.resize(n_slots);
  values.resize(n_slots);
  for (std::size_t i = 0; i < n_slots; ++i) {
    const double normalized = std::max(0.0, raw[i]) / vmax;
    values[i] = normalized;
    hvs[i] = &histogram_memory_.at_value(normalized);
  }
}

double HdHogExtractor::gather_plane_slots_prescreen(
    const CellPlane& plane, std::size_t origin_x, std::size_t origin_y,
    double norm_scale,
    std::vector<const core::Hypervector*>& hvs,
    std::vector<double>& values) const {
  if (plane.bins != config_.hog.bins ||
      plane.cell_size != config_.hog.cell_size) {
    throw std::invalid_argument(
        "HdHogExtractor: cell plane geometry mismatches this extractor");
  }
  if (plane.grid_step != config_.hog.cell_size) {
    throw std::invalid_argument(
        "HdHogExtractor: prescreen requires grid_step == cell_size (stride a "
        "multiple of the cell size)");
  }
  if (!plane.window_on_grid(origin_x, origin_y, cells_x_, cells_y_)) {
    throw std::invalid_argument(
        "HdHogExtractor: window origin off the cell-plane grid");
  }
  const std::size_t bins = config_.hog.bins;
  const std::size_t cell = config_.hog.cell_size;
  const std::size_t n_slots = cells_x_ * cells_y_ * bins;

  // Subset gather: only cells on the plane's even/even parity grid are read
  // (before the prescreen the scan fills no others). Excluded slots keep a
  // valid pointer — the bundler's min-weight skip runs before the
  // dereference, but the pointer must not dangle — with weight exactly 0.0.
  double vmax = config_.histogram_floor;
  double spread = 0.0;
  std::vector<double> raw(n_slots, -1.0);  // < 0 marks "excluded"
  std::size_t s = 0;
  for (std::size_t cy = 0; cy < cells_y_; ++cy) {
    for (std::size_t cx = 0; cx < cells_x_; ++cx) {
      const std::size_t gx = (origin_x + cx * cell) / plane.grid_step;
      const std::size_t gy = (origin_y + cy * cell) / plane.grid_step;
      if (gx % 2 != 0 || gy % 2 != 0) {
        s += bins;
        continue;
      }
      const double* cached = plane.cell(gx, gy);
      for (std::size_t b = 0; b < bins; ++b, ++s) {
        raw[s] = cached[b];
        vmax = std::max(vmax, cached[b]);
        if (b > 0) spread += std::abs(cached[b]);
      }
    }
  }
  hvs.resize(n_slots);
  values.resize(n_slots);
  const core::Hypervector* filler = &histogram_memory_.level(0);
  for (std::size_t i = 0; i < n_slots; ++i) {
    if (raw[i] < 0.0) {
      values[i] = 0.0;
      hvs[i] = filler;
      continue;
    }
    const double scale = norm_scale > 0.0 ? norm_scale : vmax;
    const double normalized =
        std::min(1.0, std::max(0.0, raw[i]) / scale);
    values[i] = normalized;
    hvs[i] = &histogram_memory_.at_value(normalized);
  }
  return spread;
}

core::Hypervector HdHogExtractor::extract_from_plane(
    const CellPlane& plane, std::size_t origin_x, std::size_t origin_y,
    core::OpCounter* counter) const {
  // Same validation and values as slot_record_from_plane + bundle_weighted,
  // but allocation-free: slot hypervectors stay inside histogram_memory_ and
  // key binding runs through Accumulator::add_xor. Per-window cost is what
  // makes the cell-plane cache pay off, so this path must stay at "cheap
  // tail" scale. Output is bit-identical to the record-based form.
  std::vector<const core::Hypervector*> hvs;
  std::vector<double> values;
  gather_plane_slots(plane, origin_x, origin_y, hvs, values);
  return bundler_.bundle_weighted_refs(hvs, values, config_.histogram_floor,
                                       counter);
}

void HdHogExtractor::StagedWindow::reset(const CellPlane& plane,
                                         std::size_t origin_x,
                                         std::size_t origin_y) {
  extractor_.gather_plane_slots(plane, origin_x, origin_y, hvs_, values_);
  // Restarting the tie stream here is what keeps staged assembly
  // bit-identical to the one-shot bundle: ascending ranges sharing this Rng
  // consume the zero-dimension draws in exactly the full bundle's order.
  tie_rng_ = core::Rng(extractor_.bundler_.tie_seed());
  assembled_words_ = 0;
}

void HdHogExtractor::StagedWindow::reset_prescreen(const CellPlane& plane,
                                                   std::size_t origin_x,
                                                   std::size_t origin_y,
                                                   double norm_scale) {
  prescreen_spread_ = extractor_.gather_plane_slots_prescreen(
      plane, origin_x, origin_y, norm_scale, hvs_, values_);
  tie_rng_ = core::Rng(extractor_.bundler_.tie_seed());
  assembled_words_ = 0;
}

const core::Hypervector& HdHogExtractor::StagedWindow::assemble_to(
    std::size_t word_hi, core::OpCounter* counter) {
  if (word_hi == assembled_words_) return feature_;
  if (word_hi < assembled_words_ || word_hi > total_words()) {
    throw std::invalid_argument(
        "StagedWindow: assemble_to ranges must ascend within the feature");
  }
  extractor_.bundler_.bundle_weighted_refs_range(
      hvs_, values_, extractor_.config_.histogram_floor, assembled_words_,
      word_hi, tie_rng_, counts_, feature_, counter);
  assembled_words_ = word_hi;
  return feature_;
}

core::Hypervector HdHogExtractor::extract(const image::Image& img) {
  return extract(img, ctx_);
}

core::Hypervector HdHogExtractor::extract(const image::Image& img,
                                          core::StochasticContext& ctx) const {
  // Weighted sparse bundling: each slot votes with its histogram value so
  // empty bins vanish instead of drowning the informative minority (see
  // feature_bundler.hpp).
  const SlotRecord record = slot_record(img, ctx);
  return bundler_.bundle_weighted(record.hvs, record.values,
                                  config_.histogram_floor, ctx.counter());
}

CellHistograms HdHogExtractor::decode_histograms(const image::Image& img) {
  const SlotRecord record = slot_record(img);
  CellHistograms cells;
  cells.cells_x = cells_x_;
  cells.cells_y = cells_y_;
  cells.bins = config_.hog.bins;
  cells.values.resize(record.hvs.size());
  for (std::size_t i = 0; i < record.hvs.size(); ++i) {
    cells.values[i] = static_cast<float>(ctx_.decode(record.hvs[i]));
  }
  return cells;
}

}  // namespace hdface::hog
