// NEON backend (aarch64): 128-bit logic with vcntq_u8 byte popcounts folded
// through the vpaddlq widening-add chain. Advanced SIMD is part of the
// aarch64 base ISA, so this TU needs no extra target flags and "compiled"
// implies "supported" (kernels.cpp::backend_supported).
//
// The float kernels (add_xor_weighted, threshold_words) intentionally keep
// the scalar reference loops: at two doubles per vector the win is small,
// and bit-identity stays true by construction on a target this repo's CI
// cannot execute.

#if defined(HDFACE_KERNEL_NEON)

#include <arm_neon.h>

#include <bit>
#include <cstdint>

#include "core/kernels/backends.hpp"

namespace hdface::core::kernels::detail {
namespace {

// uint64x2_t lane popcounts: per-byte counts widened 8→16→32→64.
inline uint64x2_t popcount_lanes(uint64x2_t v) {
  return vpaddlq_u32(vpaddlq_u16(vpaddlq_u8(vcntq_u8(vreinterpretq_u8_u64(v)))));
}

void xor_words_neon(const std::uint64_t* a, const std::uint64_t* b,
                    std::uint64_t* dst, std::size_t n) {
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    vst1q_u64(dst + i, veorq_u64(vld1q_u64(a + i), vld1q_u64(b + i)));
  }
  for (; i < n; ++i) dst[i] = a[i] ^ b[i];
}

void and_words_neon(const std::uint64_t* a, const std::uint64_t* b,
                    std::uint64_t* dst, std::size_t n) {
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    vst1q_u64(dst + i, vandq_u64(vld1q_u64(a + i), vld1q_u64(b + i)));
  }
  for (; i < n; ++i) dst[i] = a[i] & b[i];
}

void or_words_neon(const std::uint64_t* a, const std::uint64_t* b,
                   std::uint64_t* dst, std::size_t n) {
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    vst1q_u64(dst + i, vorrq_u64(vld1q_u64(a + i), vld1q_u64(b + i)));
  }
  for (; i < n; ++i) dst[i] = a[i] | b[i];
}

void not_words_neon(const std::uint64_t* a, std::uint64_t* dst,
                    std::size_t n) {
  const uint64x2_t ones = vdupq_n_u64(~0ULL);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    vst1q_u64(dst + i, veorq_u64(vld1q_u64(a + i), ones));
  }
  for (; i < n; ++i) dst[i] = ~a[i];
}

std::uint64_t popcount_words_neon(const std::uint64_t* a, std::size_t n) {
  uint64x2_t acc = vdupq_n_u64(0);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    acc = vaddq_u64(acc, popcount_lanes(vld1q_u64(a + i)));
  }
  std::uint64_t total = vaddvq_u64(acc);
  for (; i < n; ++i) {
    total += static_cast<std::uint64_t>(std::popcount(a[i]));
  }
  return total;
}

std::uint64_t hamming_words_neon(const std::uint64_t* a, const std::uint64_t* b,
                                 std::size_t n) {
  uint64x2_t acc = vdupq_n_u64(0);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    acc = vaddq_u64(
        acc, popcount_lanes(veorq_u64(vld1q_u64(a + i), vld1q_u64(b + i))));
  }
  std::uint64_t total = vaddvq_u64(acc);
  for (; i < n; ++i) {
    total += static_cast<std::uint64_t>(std::popcount(a[i] ^ b[i]));
  }
  return total;
}

void hamming_block_neon(const std::uint64_t* query, const std::uint64_t* block,
                        std::size_t words, std::size_t count,
                        std::size_t stride, std::uint64_t* out) {
  // Two prototype lanes per vector; the PrototypeBlock stride is a multiple
  // of 8, so lanes [c, c+2) never leave the (zero-padded) row.
  std::size_t c = 0;
  for (; c < count; c += 2) {
    uint64x2_t acc = vdupq_n_u64(0);
    for (std::size_t w = 0; w < words; ++w) {
      const uint64x2_t q = vdupq_n_u64(query[w]);
      const uint64x2_t p = vld1q_u64(block + w * stride + c);
      acc = vaddq_u64(acc, popcount_lanes(veorq_u64(q, p)));
    }
    if (count - c >= 2) {
      vst1q_u64(out + c, acc);
    } else {
      out[c] = vgetq_lane_u64(acc, 0);
    }
  }
}

void add_xor_weighted_neon(const std::uint64_t* a, const std::uint64_t* b,
                           std::size_t dim, double weight, double* counts) {
  const double sel[2] = {-weight, weight};
  const std::size_t full_words = dim / 64;
  for (std::size_t w = 0; w < full_words; ++w) {
    std::uint64_t x = a[w] ^ b[w];
    double* c = counts + w * 64;
    for (std::size_t bit = 0; bit < 64; ++bit, x >>= 1) {
      c[bit] += sel[x & 1ULL];
    }
  }
  const std::size_t rem = dim - full_words * 64;
  if (rem != 0) {
    std::uint64_t x = a[full_words] ^ b[full_words];
    double* c = counts + full_words * 64;
    for (std::size_t bit = 0; bit < rem; ++bit, x >>= 1) {
      c[bit] += sel[x & 1ULL];
    }
  }
}

std::size_t threshold_words_neon(const double* counts, std::size_t dim,
                                 std::uint64_t* out_words) {
  std::size_t zeros = 0;
  const std::size_t full_words = dim / 64;
  for (std::size_t w = 0; w < full_words; ++w) {
    const double* c = counts + w * 64;
    std::uint64_t word = 0;
    for (std::size_t bit = 0; bit < 64; ++bit) {
      word |= static_cast<std::uint64_t>(c[bit] > 0.0) << bit;
      zeros += static_cast<std::size_t>(c[bit] == 0.0);
    }
    out_words[w] = word;
  }
  const std::size_t rem = dim - full_words * 64;
  if (rem != 0) {
    const double* c = counts + full_words * 64;
    std::uint64_t word = 0;
    for (std::size_t bit = 0; bit < rem; ++bit) {
      word |= static_cast<std::uint64_t>(c[bit] > 0.0) << bit;
      zeros += static_cast<std::size_t>(c[bit] == 0.0);
    }
    out_words[full_words] = word;
  }
  return zeros;
}

void select_words_neon(const std::uint64_t* a, const std::uint64_t* b,
                       const std::uint64_t* m, std::uint64_t cond_flip,
                       std::uint64_t out_flip, std::uint64_t* dst,
                       std::size_t n) {
  const uint64x2_t cf = vdupq_n_u64(cond_flip);
  const uint64x2_t of = vdupq_n_u64(out_flip);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const uint64x2_t av = vld1q_u64(a + i);
    const uint64x2_t bv = vld1q_u64(b + i);
    const uint64x2_t mv = vld1q_u64(m + i);
    const uint64x2_t cond = vandq_u64(veorq_u64(veorq_u64(av, bv), cf), mv);
    vst1q_u64(dst + i, veorq_u64(veorq_u64(bv, cond), of));
  }
  for (; i < n; ++i) {
    dst[i] = (b[i] ^ (((a[i] ^ b[i]) ^ cond_flip) & m[i])) ^ out_flip;
  }
}

std::uint64_t popcount_select_xor_neon(const std::uint64_t* a,
                                       const std::uint64_t* b,
                                       const std::uint64_t* m,
                                       const std::uint64_t* x,
                                       std::uint64_t cond_flip, std::size_t n) {
  const uint64x2_t cf = vdupq_n_u64(cond_flip);
  uint64x2_t acc = vdupq_n_u64(0);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const uint64x2_t av = vld1q_u64(a + i);
    const uint64x2_t bv = vld1q_u64(b + i);
    const uint64x2_t mv = vld1q_u64(m + i);
    const uint64x2_t cond = vandq_u64(veorq_u64(veorq_u64(av, bv), cf), mv);
    const uint64x2_t sel = veorq_u64(bv, cond);
    acc = vaddq_u64(acc, popcount_lanes(veorq_u64(sel, vld1q_u64(x + i))));
  }
  std::uint64_t total = vaddvq_u64(acc);
  for (; i < n; ++i) {
    const std::uint64_t sel = b[i] ^ (((a[i] ^ b[i]) ^ cond_flip) & m[i]);
    total += static_cast<std::uint64_t>(std::popcount(sel ^ x[i]));
  }
  return total;
}

// Prefix/range variant: a hamming_block over the words [word_lo, word_hi),
// run by this backend's own block kernel on offset pointers — bit-identity
// to scalar follows from the full kernel's.
void hamming_block_range_neon(const std::uint64_t* query,
                              const std::uint64_t* block, std::size_t word_lo,
                              std::size_t word_hi, std::size_t count,
                              std::size_t stride, std::uint64_t* out) {
  hamming_block_neon(query + word_lo, block + word_lo * stride,
                     word_hi - word_lo, count, stride, out);
}

}  // namespace

const KernelTable& neon_table() {
  static const KernelTable table = {
      Backend::kNeon,            &xor_words_neon,
      &and_words_neon,           &or_words_neon,
      &not_words_neon,           &popcount_words_neon,
      &hamming_words_neon,       &hamming_block_neon,
      &hamming_block_range_neon, &add_xor_weighted_neon,
      &threshold_words_neon,     &select_words_neon,
      &popcount_select_xor_neon, &bernoulli_streams_scalar};
  return table;
}

}  // namespace hdface::core::kernels::detail

#endif  // HDFACE_KERNEL_NEON
