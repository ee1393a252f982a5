#pragma once

// Internal declarations for the optional SIMD backend translation units.
// Each TU is compiled only when the build detects the matching target flags
// (see src/core/CMakeLists.txt, HDFACE_KERNEL_* definitions); kernels.cpp
// references these accessors under the same preprocessor guards.

#include "core/kernels/kernels.hpp"

namespace hdface::core::kernels::detail {

const KernelTable& avx2_table();
const KernelTable& avx512_table();
const KernelTable& neon_table();

// The scalar bernoulli_streams reference. SIMD backends fall back to it when
// too few streams are requested to fill their lanes; NEON uses it outright.
void bernoulli_streams_scalar(std::uint64_t* state, std::size_t streams,
                              std::size_t dim, std::uint64_t threshold,
                              std::uint64_t* out, std::size_t stride);

}  // namespace hdface::core::kernels::detail
