#include "pipeline/fault_injection.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/kernels/kernels.hpp"
#include "core/rng.hpp"
#include "util/check.hpp"

namespace hdface::pipeline {

namespace {

// Digest of every patched word. Four independent mix chains (word index mod
// 4) overlap the serial multiply latency of one; any single-word change
// still changes the result.
std::uint64_t words_checksum(const std::vector<core::Hypervector*>& targets) {
  std::uint64_t h[4] = {0x9E3779B97F4A7C15ULL, 1, 2, 3};
  for (const auto* v : targets) {
    const auto words = v->words();
    for (std::size_t i = 0; i < words.size(); ++i) {
      h[i % 4] = core::mix64(h[i % 4], words[i]);
    }
  }
  return core::mix64(core::mix64(h[0], h[1]), core::mix64(h[2], h[3]));
}

}  // namespace

void FaultSession::inject(std::span<const std::uint64_t> seeds) {
  if (targets_.empty()) return;
  const std::size_t dim = targets_.front()->dim();
  words_ = targets_.front()->num_words();
  const core::kernels::KernelTable& k = core::kernels::active();
  for (std::size_t lo = 0; lo < targets_.size(); lo += kChunk) {
    const std::size_t n = std::min(kChunk, targets_.size() - lo);
    const noise::FaultMaskBatch masks =
        noise::sample_fault_masks(plan_.model, dim, seeds.subspan(lo, n));
    std::vector<std::uint64_t>& clean = clean_.emplace_back();
    clean.reserve(n * words_);
    for (std::size_t i = 0; i < n; ++i) {
      core::Hypervector& stored = *targets_[lo + i];
      // Each fault plane indexes the same packed words as the storage it
      // patches; a width disagreement would read/write past the shorter
      // word array.
      HD_CHECK(masks.dim == stored.dim(),
               "inject: fault-plane width does not match the target storage");
      const auto words = stored.words();
      clean.insert(clean.end(), words.begin(), words.end());
      masks.apply(i, stored);
      disturbed_bits_ +=
          k.hamming_words(clean.data() + i * words_, words.data(), words_);
      faultable_bits_ += dim;
    }
  }
}

FaultSession::FaultSession(HdFacePipeline& pipeline,
                           const noise::FaultPlan& plan)
    : pipeline_(pipeline), plan_(plan) {
  if (plan.model.rate < 0.0 || plan.model.rate > 1.0) {
    throw std::invalid_argument("FaultSession: rate must be in [0, 1]");
  }
  // Warm the shared mask pool *before* patching it: a lazily-filled pool
  // would race the fill, and fork_context() requires a warmed pool anyway.
  pipeline_.prepare_concurrent();

  if (plan_.item_memory) {
    // Gather every stored target first, keeping the per-plane element
    // numbering of the seed schedule (pool entries count across buckets),
    // then sample all of their masks as one batch.
    std::vector<std::uint64_t> seeds;
    const auto add = [&](noise::FaultTarget target, std::uint64_t index,
                         core::Hypervector& stored) {
      targets_.push_back(&stored);
      seeds.push_back(noise::fault_seed(plan_.seed, target, index));
    };
    if (auto* ext = pipeline_.hd_extractor()) {
      auto& im = ext->mutable_item_memory();
      for (std::size_t i = 0; i < im.levels(); ++i) {
        add(noise::FaultTarget::kItemMemory, i, im.mutable_level(i));
      }
      auto& hm = ext->mutable_histogram_memory();
      for (std::size_t i = 0; i < hm.levels(); ++i) {
        add(noise::FaultTarget::kHistogramMemory, i, hm.mutable_level(i));
      }
    }
    auto& ctx = pipeline_.context();
    std::uint64_t entry_index = 0;
    for (std::size_t b = 0; b < ctx.pool_buckets(); ++b) {
      for (auto& entry : ctx.mutable_pool_bucket(b)) {
        add(noise::FaultTarget::kMaskPool, entry_index++, entry);
      }
    }
    inject(seeds);
  }

  if (plan_.prototypes) {
    auto& classifier = pipeline_.mutable_classifier();
    if (classifier.has_binary_override()) {
      saved_override_ = classifier.binary_override();
    }
    auto protos = classifier.binary_prototypes();
    for (std::size_t c = 0; c < protos.size(); ++c) {
      core::Rng rng(
          noise::fault_seed(plan_.seed, noise::FaultTarget::kPrototype, c));
      const noise::FaultMask mask =
          noise::sample_fault_mask(plan_.model, protos[c].dim(), rng);
      const core::Hypervector clean = protos[c];
      mask.apply(protos[c]);
      disturbed_bits_ += core::hamming(clean, protos[c]);
      faultable_bits_ += protos[c].dim();
    }
    classifier.set_binary_override(std::move(protos));
    override_set_ = true;
  }

  faulted_checksum_ = words_checksum(targets_);
  active_ = true;
}

void FaultSession::restore() {
  if (!active_) return;

  // Refuse to "restore" over storage someone else mutated mid-session: the
  // clean snapshots would silently erase their writes.
  if (words_checksum(targets_) != faulted_checksum_) {
    throw std::runtime_error(
        "FaultSession::restore: faulted storage was mutated behind the "
        "session's back (checksum mismatch)");
  }

  for (std::size_t i = 0; i < targets_.size(); ++i) {
    std::copy_n(clean_words(i), words_, targets_[i]->mutable_words().begin());
  }
  for (std::size_t i = 0; i < targets_.size(); ++i) {
    const auto words = targets_[i]->words();
    if (!std::equal(words.begin(), words.end(), clean_words(i))) {
      throw std::runtime_error("FaultSession::restore: verification failed");
    }
  }
  targets_.clear();
  clean_.clear();

  if (override_set_) {
    auto& classifier = pipeline_.mutable_classifier();
    if (saved_override_.empty()) {
      classifier.clear_binary_override();
    } else {
      classifier.set_binary_override(std::move(saved_override_));
      saved_override_.clear();
    }
    override_set_ = false;
  }
  active_ = false;
}

FaultSession::~FaultSession() {
  try {
    restore();
  } catch (...) {
    // A throwing destructor would terminate; explicit restore() reports.
  }
}

}  // namespace hdface::pipeline
