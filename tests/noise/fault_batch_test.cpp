// noise::sample_fault_masks must draw, for every seed, exactly the pattern
// the per-target noise::sample_fault_mask draws from Rng(seed), on every
// kernel backend, and FaultMaskBatch::apply must write exactly what
// FaultMask::apply writes.

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "core/kernels/kernels.hpp"
#include "noise/fault_model.hpp"

namespace hdface::noise {
namespace {

constexpr FaultKind kKinds[] = {FaultKind::kTransientFlip,
                                FaultKind::kStuckAtZero, FaultKind::kStuckAtOne,
                                FaultKind::kWordBurst};

// The one plane a single FaultMask of this kind populates.
const core::Hypervector& selected_plane(const FaultMask& m, FaultKind kind) {
  switch (kind) {
    case FaultKind::kStuckAtZero: return m.clear;
    case FaultKind::kStuckAtOne: return m.set;
    case FaultKind::kTransientFlip:
    case FaultKind::kWordBurst: return m.flip;
  }
  return m.flip;
}

std::vector<core::kernels::Backend> supported_backends() {
  std::vector<core::kernels::Backend> out;
  for (const auto* t : core::kernels::compiled_tables()) {
    if (core::kernels::backend_supported(t->backend)) out.push_back(t->backend);
  }
  return out;
}

TEST(FaultMaskBatch, MatchesPerSeedMasksOnEveryBackend) {
  for (const auto backend : supported_backends()) {
    const core::kernels::ScopedBackend forced(backend);
    for (const FaultKind kind : kKinds) {
      for (const double rate : {0.0, 0.02, 0.5, 1.0}) {
        for (const std::size_t dim : {64ul, 100ul, 2048ul}) {
          for (const std::size_t n : {1ul, 3ul, 8ul, 17ul, 300ul}) {
            std::vector<std::uint64_t> seeds(n);
            for (std::size_t i = 0; i < n; ++i) {
              seeds[i] = fault_seed(0xBA7C, FaultTarget::kMaskPool, i + dim);
            }
            const FaultModel model{kind, rate};
            const FaultMaskBatch batch = sample_fault_masks(model, dim, seeds);
            ASSERT_EQ(batch.size(), n);
            ASSERT_EQ(batch.dim, dim);
            for (std::size_t i = 0; i < n; ++i) {
              core::Rng rng(seeds[i]);
              const FaultMask mask = sample_fault_mask(model, dim, rng);
              const auto want = selected_plane(mask, kind).words();
              const auto got = batch.pattern(i);
              ASSERT_TRUE(std::equal(got.begin(), got.end(), want.begin(),
                                     want.end()))
                  << core::kernels::backend_name(backend) << " "
                  << fault_kind_name(kind) << " rate " << rate << " dim "
                  << dim << " pattern " << i << "/" << n;
              ASSERT_EQ(mask.selected_bits(),
                        selected_plane(mask, kind).popcount());
            }
          }
        }
      }
    }
  }
}

TEST(FaultMaskBatch, ApplyMatchesFaultMaskApply) {
  const std::size_t dim = 100;
  core::Rng data(0xDA7A);
  const core::Hypervector v = core::Hypervector::random(dim, data);
  const std::vector<std::uint64_t> seeds = {11, 22, 33};
  for (const FaultKind kind : kKinds) {
    const FaultModel model{kind, 0.3};
    const FaultMaskBatch batch = sample_fault_masks(model, dim, seeds);
    for (std::size_t i = 0; i < seeds.size(); ++i) {
      core::Rng rng(seeds[i]);
      const core::Hypervector want =
          sample_fault_mask(model, dim, rng).applied(v);
      core::Hypervector got = v;
      batch.apply(i, got);
      EXPECT_EQ(got, want) << fault_kind_name(kind) << " pattern " << i;
    }
  }
}

TEST(FaultMaskBatch, RejectsBadInputs) {
  const std::vector<std::uint64_t> seeds = {1};
  EXPECT_THROW(sample_fault_masks({FaultKind::kTransientFlip, 1.5}, 64, seeds),
               std::invalid_argument);
  EXPECT_THROW(sample_fault_masks({FaultKind::kTransientFlip, -0.1}, 64, seeds),
               std::invalid_argument);
  EXPECT_THROW(sample_fault_masks({FaultKind::kTransientFlip, 0.1}, 0, seeds),
               std::invalid_argument);
  EXPECT_EQ(sample_fault_masks({FaultKind::kWordBurst, 0.1}, 64, {}).size(), 0u);
  const FaultMaskBatch batch =
      sample_fault_masks({FaultKind::kStuckAtOne, 0.1}, 64, seeds);
  core::Hypervector wrong_width(128);
  EXPECT_THROW(batch.apply(0, wrong_width), std::invalid_argument);
}

}  // namespace
}  // namespace hdface::noise
