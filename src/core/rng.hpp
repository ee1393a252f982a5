#pragma once

// Deterministic random number generation for the HDC substrate.
//
// All stochastic-arithmetic randomness flows through these generators so that
// every experiment in the repository is reproducible from a single seed.
// SplitMix64 seeds streams; xoshiro256** produces the bulk 64-bit words used
// for hypervector material and Bernoulli selection masks.

#include <array>
#include <cstdint>

namespace hdface::core {

// One SplitMix64 step; also usable as a 64-bit mixing/hash function.
constexpr std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// Stateless mix of two 64-bit values into one (for deriving per-item seeds).
constexpr std::uint64_t mix64(std::uint64_t a, std::uint64_t b) {
  std::uint64_t s = a ^ (b * 0x9E3779B97F4A7C15ULL);
  return splitmix64(s);
}

// xoshiro256** — fast, high-quality 64-bit generator (Blackman & Vigna).
class Rng {
 public:
  explicit constexpr Rng(std::uint64_t seed) : s_{} {
    std::uint64_t sm = seed;
    for (auto& w : s_) w = splitmix64(sm);
  }

  constexpr std::uint64_t next() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  // Uniform double in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

  // The raw xoshiro256** state words. Kernels that run many generators in
  // SIMD lanes (kernels::KernelTable::bernoulli_streams) read it, advance it
  // exactly as next() would, and write it back.
  std::array<std::uint64_t, 4>& state() { return s_; }

  // Uniform integer in [0, n). n must be > 0.
  std::uint64_t below(std::uint64_t n) {
    // Rejection-free multiply-shift; bias < 2^-64, irrelevant for our sizes.
    const unsigned __int128 m =
        static_cast<unsigned __int128>(next()) * static_cast<unsigned __int128>(n);
    return static_cast<std::uint64_t>(m >> 64);
  }

  // Normal(0, 1) via Box–Muller (used by the nonlinear encoder baseline).
  double gaussian() {
    double u1 = uniform();
    while (u1 <= 1e-300) u1 = uniform();
    const double u2 = uniform();
    return __builtin_sqrt(-2.0 * __builtin_log(u1)) *
           __builtin_cos(6.283185307179586 * u2);
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  std::array<std::uint64_t, 4> s_;
};

// Integer form of the Bernoulli test `uniform() < p`: for every draw x,
//   uniform() < p  ⟺  (x >> 11) < bernoulli_threshold(p).
// uniform() is k·2⁻⁵³ for the integer k = x >> 11 < 2⁵³, and both that
// product and p·2⁵³ are exact (scaling by a power of two), so k·2⁻⁵³ < p
// ⟺ k < p·2⁵³ ⟺ k < ⌈p·2⁵³⌉. p ≤ 0 and NaN accept nothing (threshold 0);
// p ≥ 1 accepts every draw (threshold 2⁵³).
inline std::uint64_t bernoulli_threshold(double p) {
  if (!(p > 0.0)) return 0;
  if (p >= 1.0) return std::uint64_t{1} << 53;
  return static_cast<std::uint64_t>(__builtin_ceil(p * 0x1.0p53));
}

}  // namespace hdface::core
