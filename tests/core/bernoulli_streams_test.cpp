// Property suite for KernelTable::bernoulli_streams, the multi-stream
// Bernoulli sampler behind Hypervector::bernoulli and the batched fault
// masks. Every compiled-and-supported backend must reproduce, bit for bit,
// both the scalar table and a plain per-draw `Rng::uniform() < p` loop,
// leave every stream's generator exactly `dim` draws on, write zero tail
// bits, and never touch memory between rows. Stream counts 1–17 cover the
// lane remainders of every vector width (AVX2: 4 or 2×4 lanes, AVX-512: 8 or
// 2×8).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/hypervector.hpp"
#include "core/kernels/kernels.hpp"
#include "core/rng.hpp"

namespace kernels = hdface::core::kernels;
using hdface::core::bernoulli_threshold;
using hdface::core::Hypervector;
using hdface::core::Rng;

namespace {

constexpr std::size_t kDims[] = {64, 100, 2048, 4096};
constexpr double kRates[] = {0.0, 1e-300, 2e-3, 0.5, 1.0};
constexpr std::size_t kMaxStreams = 17;
constexpr std::uint64_t kSentinel = 0x5E5E5E5E5E5E5E5EULL;

std::vector<const kernels::KernelTable*> usable_backends() {
  std::vector<const kernels::KernelTable*> out;
  for (const kernels::KernelTable* t : kernels::compiled_tables()) {
    if (kernels::backend_supported(t->backend)) out.push_back(t);
  }
  return out;
}

std::uint64_t stream_seed(std::size_t dim, std::size_t streams,
                          std::size_t s) {
  return hdface::core::mix64(dim * 131 + streams, s);
}

// Rows of ceil(dim / 64) words plus one sentinel word between rows.
struct Sampled {
  std::vector<std::uint64_t> rows;
  std::vector<std::uint64_t> state;
};

Sampled run_kernel(const kernels::KernelTable& k, std::size_t dim,
                   std::size_t streams, double p) {
  const std::size_t words = (dim + 63) / 64;
  const std::size_t stride = words + 1;
  Sampled out;
  out.rows.assign(streams * stride, kSentinel);
  for (std::size_t s = 0; s < streams; ++s) {
    Rng rng(stream_seed(dim, streams, s));
    out.state.insert(out.state.end(), rng.state().begin(), rng.state().end());
  }
  k.bernoulli_streams(out.state.data(), streams, dim, bernoulli_threshold(p),
                      out.rows.data(), stride);
  return out;
}

// The definition: one Rng per stream, bit j = (j-th uniform() < p).
Sampled run_reference(std::size_t dim, std::size_t streams, double p) {
  const std::size_t words = (dim + 63) / 64;
  const std::size_t stride = words + 1;
  Sampled out;
  out.rows.assign(streams * stride, kSentinel);
  for (std::size_t s = 0; s < streams; ++s) {
    Rng rng(stream_seed(dim, streams, s));
    std::uint64_t* row = out.rows.data() + s * stride;
    for (std::size_t w = 0; w < words; ++w) row[w] = 0;
    for (std::size_t j = 0; j < dim; ++j) {
      if (rng.uniform() < p) row[j / 64] |= 1ULL << (j % 64);
    }
    out.state.insert(out.state.end(), rng.state().begin(), rng.state().end());
  }
  return out;
}

}  // namespace

TEST(BernoulliThreshold, MatchesUniformComparison) {
  EXPECT_EQ(bernoulli_threshold(0.0), 0u);
  EXPECT_EQ(bernoulli_threshold(-0.5), 0u);
  EXPECT_EQ(bernoulli_threshold(std::numeric_limits<double>::quiet_NaN()), 0u);
  EXPECT_EQ(bernoulli_threshold(1e-300), 1u);
  EXPECT_EQ(bernoulli_threshold(0.5), 1ULL << 52);
  EXPECT_EQ(bernoulli_threshold(1.0), 1ULL << 53);
  EXPECT_EQ(bernoulli_threshold(2.0), 1ULL << 53);
  // Random draws against random rates, plus rates sitting exactly on a draw
  // (p = k·2⁻⁵³, where uniform() < p must be false for draw k).
  Rng rng(0x7E57);
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t x = rng.next();
    const std::uint64_t k = x >> 11;
    const double on_draw = static_cast<double>(k) * 0x1.0p-53;
    for (const double p : {rng.uniform(), on_draw,
                           std::nextafter(on_draw, 1.0),
                           std::nextafter(on_draw, 0.0)}) {
      const bool via_uniform = on_draw < p;  // uniform() of draw x
      EXPECT_EQ(k < bernoulli_threshold(p), via_uniform) << p;
    }
  }
}

TEST(BernoulliStreams, EveryBackendMatchesScalarAndPerDrawLoop) {
  for (const std::size_t dim : kDims) {
    for (const double p : kRates) {
      for (std::size_t streams = 1; streams <= kMaxStreams; ++streams) {
        const Sampled ref = run_reference(dim, streams, p);
        const Sampled scalar =
            run_kernel(kernels::scalar_table(), dim, streams, p);
        ASSERT_EQ(scalar.rows, ref.rows)
            << "scalar dim " << dim << " p " << p << " streams " << streams;
        ASSERT_EQ(scalar.state, ref.state);
        for (const kernels::KernelTable* t : usable_backends()) {
          const Sampled got = run_kernel(*t, dim, streams, p);
          ASSERT_EQ(got.rows, ref.rows)
              << kernels::backend_name(t->backend) << " dim " << dim << " p "
              << p << " streams " << streams;
          ASSERT_EQ(got.state, ref.state)
              << kernels::backend_name(t->backend) << " dim " << dim;
        }
      }
    }
  }
}

TEST(BernoulliStreams, TailBitsZeroAndGapsUntouched) {
  // dim 100 leaves 28 tail bits; at p = 1 every in-range bit is set, so any
  // stray tail bit would show.
  const std::size_t dim = 100;
  const std::size_t stride = 3;
  for (const kernels::KernelTable* t : usable_backends()) {
    for (std::size_t streams = 1; streams <= kMaxStreams; ++streams) {
      const Sampled got = run_kernel(*t, dim, streams, 1.0);
      for (std::size_t s = 0; s < streams; ++s) {
        EXPECT_EQ(got.rows[s * stride], ~0ULL);
        EXPECT_EQ(got.rows[s * stride + 1], (1ULL << 36) - 1);
        EXPECT_EQ(got.rows[s * stride + 2], kSentinel)
            << kernels::backend_name(t->backend) << " streams " << streams;
      }
    }
  }
}

TEST(BernoulliStreams, HypervectorBernoulliIsTheOneStreamCase) {
  for (const kernels::KernelTable* t : usable_backends()) {
    const kernels::ScopedBackend forced(t->backend);
    for (const std::size_t dim : {1ul, 63ul, 100ul, 2048ul, 4097ul}) {
      for (const double p : kRates) {
        Rng rng(0xB0 + dim);
        Rng loop = rng;
        const Hypervector v = Hypervector::bernoulli(dim, p, rng);
        Hypervector expected(dim);
        for (std::size_t j = 0; j < dim; ++j) {
          if (loop.uniform() < p) expected.set(j, true);
        }
        EXPECT_EQ(v, expected) << kernels::backend_name(t->backend) << " dim "
                               << dim << " p " << p;
        // The generator advanced exactly one draw per bit.
        EXPECT_EQ(rng.next(), loop.next());
      }
    }
  }
}
