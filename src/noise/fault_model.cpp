#include "noise/fault_model.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "core/kernels/kernels.hpp"
#include "util/check.hpp"

namespace hdface::noise {

void FaultMask::apply(core::Hypervector& v) const {
  v.apply_fault_pattern(clear, set, flip);
}

core::Hypervector FaultMask::applied(const core::Hypervector& v) const {
  core::Hypervector out = v;
  apply(out);
  return out;
}

std::size_t FaultMask::selected_bits() const {
  return clear.popcount() + set.popcount() + flip.popcount();
}

namespace {

void validate(const FaultModel& model, std::size_t dim, const char* what) {
  if (dim == 0) throw std::invalid_argument(std::string(what) + ": dim 0");
  if (model.rate < 0.0 || model.rate > 1.0) {
    throw std::invalid_argument(std::string(what) + ": rate outside [0, 1]");
  }
}

// One Bernoulli draw per 64-bit word; a failed word inverts wholesale. The
// tail word participates like any other; its bits past dim stay zero.
void sample_word_burst(double rate, std::size_t dim, core::Rng& rng,
                       std::span<std::uint64_t> words) {
  for (auto& w : words) w = rng.uniform() < rate ? ~0ULL : 0ULL;
  if (dim % 64 != 0) words.back() &= (1ULL << (dim % 64)) - 1;
}

}  // namespace

FaultMask sample_fault_mask(const FaultModel& model, std::size_t dim,
                            core::Rng& rng) {
  validate(model, dim, "sample_fault_mask");
  FaultMask mask{core::Hypervector(dim), core::Hypervector(dim),
                 core::Hypervector(dim)};
  if (model.rate <= 0.0) return mask;
  switch (model.kind) {
    case FaultKind::kTransientFlip:
      mask.flip = core::Hypervector::bernoulli(dim, model.rate, rng);
      break;
    case FaultKind::kStuckAtZero:
      mask.clear = core::Hypervector::bernoulli(dim, model.rate, rng);
      break;
    case FaultKind::kStuckAtOne:
      mask.set = core::Hypervector::bernoulli(dim, model.rate, rng);
      break;
    case FaultKind::kWordBurst:
      sample_word_burst(model.rate, dim, rng, mask.flip.mutable_words());
      break;
  }
  return mask;
}

FaultMaskBatch sample_fault_masks(const FaultModel& model, std::size_t dim,
                                  std::span<const std::uint64_t> seeds) {
  validate(model, dim, "sample_fault_masks");
  FaultMaskBatch batch;
  batch.kind = model.kind;
  batch.dim = dim;
  batch.words = (dim + 63) / 64;
  batch.plane.assign(seeds.size() * batch.words, 0);
  if (model.rate <= 0.0 || seeds.empty()) return batch;
  if (model.kind == FaultKind::kWordBurst) {
    for (std::size_t i = 0; i < seeds.size(); ++i) {
      core::Rng rng(seeds[i]);
      sample_word_burst(model.rate, dim, rng,
                        std::span<std::uint64_t>(batch.plane)
                            .subspan(i * batch.words, batch.words));
    }
    return batch;
  }
  // The per-seed Rng states, laid out as the kernel's stream array.
  std::vector<std::uint64_t> state(4 * seeds.size());
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    core::Rng rng(seeds[i]);
    std::copy(rng.state().begin(), rng.state().end(), state.begin() + 4 * i);
  }
  core::kernels::active().bernoulli_streams(
      state.data(), seeds.size(), dim, core::bernoulli_threshold(model.rate),
      batch.plane.data(), batch.words);
  return batch;
}

void FaultMaskBatch::apply(std::size_t i, core::Hypervector& v) const {
  if (v.dim() != dim) {
    throw std::invalid_argument("FaultMaskBatch::apply: dimensionality mismatch");
  }
  const auto p = pattern(i);
  const auto w = v.mutable_words();
  // The pattern's tail bits are zero, so v keeps its zero tail.
  switch (kind) {
    case FaultKind::kTransientFlip:
    case FaultKind::kWordBurst:
      for (std::size_t k = 0; k < words; ++k) w[k] ^= p[k];
      return;
    case FaultKind::kStuckAtZero:
      for (std::size_t k = 0; k < words; ++k) w[k] &= ~p[k];
      return;
    case FaultKind::kStuckAtOne:
      for (std::size_t k = 0; k < words; ++k) w[k] |= p[k];
      return;
  }
  HD_UNREACHABLE("FaultMaskBatch::apply: FaultKind outside the enum");
}

double expected_disturbed_fraction(const FaultModel& model) {
  switch (model.kind) {
    case FaultKind::kStuckAtZero:
    case FaultKind::kStuckAtOne:
      // A stuck cell only changes the stored value when it held the opposite
      // bit — probability 1/2 for fair random storage.
      return model.rate / 2.0;
    case FaultKind::kTransientFlip:
    case FaultKind::kWordBurst:
      return model.rate;
  }
  HD_UNREACHABLE("expected_disturbed_fraction: FaultKind outside the enum");
}

double expected_similarity_after_fault(const FaultModel& model) {
  return 1.0 - 2.0 * expected_disturbed_fraction(model);
}

void apply_query_fault(const FaultPlan& plan, std::uint64_t query_index,
                       core::Hypervector& query) {
  if (!plan.queries || plan.model.rate <= 0.0) return;
  // Persistent kinds model one faulty query buffer: the same physical cells
  // fail for every window, so the pattern ignores the window index.
  const std::uint64_t index =
      plan.model.kind == FaultKind::kTransientFlip ? query_index : 0;
  core::Rng rng(fault_seed(plan.seed, FaultTarget::kQuery, index));
  sample_fault_mask(plan.model, query.dim(), rng).apply(query);
}

}  // namespace hdface::noise
