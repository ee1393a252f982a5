// AVX2 backend: 256-bit logic + VPSHUFB nibble-LUT popcount (Mula's method,
// the VPSHUFB scheme from the hardware-HDC literature) reduced with
// _mm256_sad_epu8 into four 64-bit lane sums. This TU is compiled with
// -mavx2 only (see src/core/CMakeLists.txt); it must never be entered on a
// CPU without AVX2 — dispatch guarantees that via __builtin_cpu_supports.
//
// Bit-identity with the scalar backend:
//   * logic/popcount/hamming kernels are integer-exact;
//   * add_xor_weighted builds ±weight by XORing the IEEE sign bit (exact
//     negation) and performs exactly one rounded add per dimension, the same
//     as the scalar two-entry select table;
//   * threshold_words uses ordered > / == compares against +0.0, identical
//     to the scalar comparisons.

#if defined(HDFACE_KERNEL_AVX2)

#include <immintrin.h>

#include <bit>
#include <cstdint>

#include "core/kernels/backends.hpp"

namespace hdface::core::kernels::detail {
namespace {

// Pointer reinterpretation here is the intrinsic load/store ABI for packed
// word arrays; the bytes are reinterpreted as themselves.
inline __m256i load256(const std::uint64_t* p) {
  // hdlint: allow(reinterpret-cast) — unaligned SIMD load of uint64 words
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}

inline void store256(std::uint64_t* p, __m256i v) {
  // hdlint: allow(reinterpret-cast) — unaligned SIMD store of uint64 words
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
}

// Per-64-bit-lane popcount of v: VPSHUFB nibble lookup, byte sums folded
// with SAD against zero.
inline __m256i popcount_lanes(__m256i v) {
  const __m256i lut =
      _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1, 1,
                       2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low_mask = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_and_si256(v, low_mask);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low_mask);
  const __m256i counts = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                                         _mm256_shuffle_epi8(lut, hi));
  return _mm256_sad_epu8(counts, _mm256_setzero_si256());
}

inline std::uint64_t hsum_epi64(__m256i v) {
  const __m128i lo = _mm256_castsi256_si128(v);
  const __m128i hi = _mm256_extracti128_si256(v, 1);
  const __m128i sum = _mm_add_epi64(lo, hi);
  return static_cast<std::uint64_t>(_mm_extract_epi64(sum, 0)) +
         static_cast<std::uint64_t>(_mm_extract_epi64(sum, 1));
}

void xor_words_avx2(const std::uint64_t* a, const std::uint64_t* b,
                    std::uint64_t* dst, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    store256(dst + i, _mm256_xor_si256(load256(a + i), load256(b + i)));
  }
  for (; i < n; ++i) dst[i] = a[i] ^ b[i];
}

void and_words_avx2(const std::uint64_t* a, const std::uint64_t* b,
                    std::uint64_t* dst, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    store256(dst + i, _mm256_and_si256(load256(a + i), load256(b + i)));
  }
  for (; i < n; ++i) dst[i] = a[i] & b[i];
}

void or_words_avx2(const std::uint64_t* a, const std::uint64_t* b,
                   std::uint64_t* dst, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    store256(dst + i, _mm256_or_si256(load256(a + i), load256(b + i)));
  }
  for (; i < n; ++i) dst[i] = a[i] | b[i];
}

void not_words_avx2(const std::uint64_t* a, std::uint64_t* dst,
                    std::size_t n) {
  const __m256i ones = _mm256_set1_epi64x(-1);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    store256(dst + i, _mm256_xor_si256(load256(a + i), ones));
  }
  for (; i < n; ++i) dst[i] = ~a[i];
}

std::uint64_t popcount_words_avx2(const std::uint64_t* a, std::size_t n) {
  __m256i acc = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc = _mm256_add_epi64(acc, popcount_lanes(load256(a + i)));
  }
  std::uint64_t total = hsum_epi64(acc);
  for (; i < n; ++i) {
    total += static_cast<std::uint64_t>(std::popcount(a[i]));
  }
  return total;
}

std::uint64_t hamming_words_avx2(const std::uint64_t* a, const std::uint64_t* b,
                                 std::size_t n) {
  __m256i acc = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i x0 = _mm256_xor_si256(load256(a + i), load256(b + i));
    const __m256i x1 =
        _mm256_xor_si256(load256(a + i + 4), load256(b + i + 4));
    acc = _mm256_add_epi64(
        acc, _mm256_add_epi64(popcount_lanes(x0), popcount_lanes(x1)));
  }
  for (; i + 4 <= n; i += 4) {
    acc = _mm256_add_epi64(
        acc, popcount_lanes(_mm256_xor_si256(load256(a + i), load256(b + i))));
  }
  std::uint64_t total = hsum_epi64(acc);
  for (; i < n; ++i) {
    total += static_cast<std::uint64_t>(std::popcount(a[i] ^ b[i]));
  }
  return total;
}

void hamming_block_avx2(const std::uint64_t* query, const std::uint64_t* block,
                        std::size_t words, std::size_t count,
                        std::size_t stride, std::uint64_t* out) {
  // Four prototype lanes per vector; the PrototypeBlock stride is a multiple
  // of 8, so reading lanes [c, c+4) never leaves the (zero-padded) row.
  std::size_t c = 0;
  for (; c < count; c += 4) {
    __m256i acc = _mm256_setzero_si256();
    for (std::size_t w = 0; w < words; ++w) {
      const __m256i q = _mm256_set1_epi64x(
          static_cast<long long>(query[w]));
      const __m256i p = load256(block + w * stride + c);
      acc = _mm256_add_epi64(acc, popcount_lanes(_mm256_xor_si256(q, p)));
    }
    alignas(32) std::uint64_t lanes[4];
    store256(lanes, acc);
    const std::size_t take = count - c < 4 ? count - c : 4;
    for (std::size_t j = 0; j < take; ++j) out[c + j] = lanes[j];
  }
}

void add_xor_weighted_avx2(const std::uint64_t* a, const std::uint64_t* b,
                           std::size_t dim, double weight, double* counts) {
  const __m256d wv = _mm256_set1_pd(weight);
  const __m256i lane_shift = _mm256_setr_epi64x(0, 1, 2, 3);
  const std::size_t full_words = dim / 64;
  for (std::size_t w = 0; w < full_words; ++w) {
    // Invert so a set sign bit means "subtract weight" (xor bit was 0).
    std::uint64_t xinv = ~(a[w] ^ b[w]);
    double* c = counts + w * 64;
    for (std::size_t g = 0; g < 64; g += 4, xinv >>= 4) {
      const __m256i bits =
          _mm256_srlv_epi64(_mm256_set1_epi64x(static_cast<long long>(xinv)),
                            lane_shift);
      const __m256i sign = _mm256_slli_epi64(bits, 63);
      const __m256d addend = _mm256_xor_pd(wv, _mm256_castsi256_pd(sign));
      _mm256_storeu_pd(c + g, _mm256_add_pd(_mm256_loadu_pd(c + g), addend));
    }
  }
  const std::size_t rem = dim - full_words * 64;
  if (rem != 0) {
    const double sel[2] = {-weight, weight};
    std::uint64_t x = a[full_words] ^ b[full_words];
    double* c = counts + full_words * 64;
    for (std::size_t bit = 0; bit < rem; ++bit, x >>= 1) {
      c[bit] += sel[x & 1ULL];
    }
  }
}

std::size_t threshold_words_avx2(const double* counts, std::size_t dim,
                                 std::uint64_t* out_words) {
  const __m256d zero = _mm256_setzero_pd();
  std::size_t zeros = 0;
  const std::size_t full_words = dim / 64;
  for (std::size_t w = 0; w < full_words; ++w) {
    const double* c = counts + w * 64;
    std::uint64_t word = 0;
    for (std::size_t g = 0; g < 64; g += 4) {
      const __m256d v = _mm256_loadu_pd(c + g);
      const int gt = _mm256_movemask_pd(_mm256_cmp_pd(v, zero, _CMP_GT_OQ));
      const int eq = _mm256_movemask_pd(_mm256_cmp_pd(v, zero, _CMP_EQ_OQ));
      word |= static_cast<std::uint64_t>(gt) << g;
      zeros += static_cast<std::size_t>(std::popcount(
          static_cast<unsigned>(eq)));
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

void select_words_avx2(const std::uint64_t* a, const std::uint64_t* b,
                       const std::uint64_t* m, std::uint64_t cond_flip,
                       std::uint64_t out_flip, std::uint64_t* dst,
                       std::size_t n) {
  const __m256i cf = _mm256_set1_epi64x(static_cast<long long>(cond_flip));
  const __m256i of = _mm256_set1_epi64x(static_cast<long long>(out_flip));
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i av = load256(a + i);
    const __m256i bv = load256(b + i);
    const __m256i mv = load256(m + i);
    const __m256i cond =
        _mm256_and_si256(_mm256_xor_si256(_mm256_xor_si256(av, bv), cf), mv);
    store256(dst + i, _mm256_xor_si256(_mm256_xor_si256(bv, cond), of));
  }
  for (; i < n; ++i) {
    dst[i] = (b[i] ^ (((a[i] ^ b[i]) ^ cond_flip) & m[i])) ^ out_flip;
  }
}

std::uint64_t popcount_select_xor_avx2(const std::uint64_t* a,
                                       const std::uint64_t* b,
                                       const std::uint64_t* m,
                                       const std::uint64_t* x,
                                       std::uint64_t cond_flip, std::size_t n) {
  const __m256i cf = _mm256_set1_epi64x(static_cast<long long>(cond_flip));
  __m256i acc = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i av = load256(a + i);
    const __m256i bv = load256(b + i);
    const __m256i mv = load256(m + i);
    const __m256i cond =
        _mm256_and_si256(_mm256_xor_si256(_mm256_xor_si256(av, bv), cf), mv);
    const __m256i sel = _mm256_xor_si256(bv, cond);
    acc = _mm256_add_epi64(
        acc, popcount_lanes(_mm256_xor_si256(sel, load256(x + i))));
  }
  std::uint64_t total = hsum_epi64(acc);
  for (; i < n; ++i) {
    const std::uint64_t sel = b[i] ^ (((a[i] ^ b[i]) ^ cond_flip) & m[i]);
    total += static_cast<std::uint64_t>(std::popcount(sel ^ x[i]));
  }
  return total;
}

// Prefix/range variant: a hamming_block over the words [word_lo, word_hi),
// run by this backend's own block kernel on offset pointers — bit-identity
// to scalar follows from the full kernel's.
void hamming_block_range_avx2(const std::uint64_t* query,
                              const std::uint64_t* block, std::size_t word_lo,
                              std::size_t word_hi, std::size_t count,
                              std::size_t stride, std::uint64_t* out) {
  hamming_block_avx2(query + word_lo, block + word_lo * stride,
                     word_hi - word_lo, count, stride, out);
}

inline __m256i rotl256(__m256i x, int k) {
  return _mm256_or_si256(_mm256_slli_epi64(x, k), _mm256_srli_epi64(x, 64 - k));
}

// xoshiro256** advanced in all four 64-bit lanes at once; returns each lane's
// output word. s1·5 and r·9 are shift-adds (exact mod 2^64), so every lane
// is bit-for-bit core::Rng::next.
inline __m256i xoshiro_next(__m256i& s0, __m256i& s1, __m256i& s2,
                            __m256i& s3) {
  const __m256i r =
      rotl256(_mm256_add_epi64(s1, _mm256_slli_epi64(s1, 2)), 7);
  const __m256i result = _mm256_add_epi64(r, _mm256_slli_epi64(r, 3));
  const __m256i t = _mm256_slli_epi64(s1, 17);
  s2 = _mm256_xor_si256(s2, s0);
  s3 = _mm256_xor_si256(s3, s1);
  s1 = _mm256_xor_si256(s1, s2);
  s0 = _mm256_xor_si256(s0, s3);
  s2 = _mm256_xor_si256(s2, t);
  s3 = rotl256(s3, 45);
  return result;
}

// Up to 4·V streams (`lanes` of them real), one stream per 64-bit lane of V
// interleaved vectors. Idle lanes run an all-zero state (a fixed point) and
// are never written. x >> 11 and the threshold are both < 2^63, so the signed
// 64-bit compare orders them like the scalar unsigned one.
template <int V>
void bernoulli_block_avx2(std::uint64_t* state, std::size_t lanes,
                          std::size_t dim, std::uint64_t threshold,
                          std::uint64_t* out, std::size_t stride) {
  constexpr std::size_t kLanes = 4 * V;
  alignas(32) std::uint64_t st[4][kLanes] = {};
  for (std::size_t l = 0; l < lanes; ++l) {
    for (std::size_t k = 0; k < 4; ++k) st[k][l] = state[4 * l + k];
  }
  __m256i s0[V], s1[V], s2[V], s3[V];
  for (int v = 0; v < V; ++v) {
    s0[v] = load256(st[0] + 4 * v);
    s1[v] = load256(st[1] + 4 * v);
    s2[v] = load256(st[2] + 4 * v);
    s3[v] = load256(st[3] + 4 * v);
  }
  const __m256i thr = _mm256_set1_epi64x(static_cast<long long>(threshold));
  alignas(32) std::uint64_t words[kLanes];
  for (std::size_t base = 0; base < dim; base += 64) {
    const std::size_t bits = dim - base < 64 ? dim - base : 64;
    __m256i acc[V];
    for (int v = 0; v < V; ++v) acc[v] = _mm256_setzero_si256();
    __m256i bit = _mm256_set1_epi64x(1);
    for (std::size_t j = 0; j < bits; ++j) {
      for (int v = 0; v < V; ++v) {
        const __m256i x = xoshiro_next(s0[v], s1[v], s2[v], s3[v]);
        const __m256i hit =
            _mm256_cmpgt_epi64(thr, _mm256_srli_epi64(x, 11));
        acc[v] = _mm256_or_si256(acc[v], _mm256_and_si256(hit, bit));
      }
      bit = _mm256_add_epi64(bit, bit);
    }
    for (int v = 0; v < V; ++v) store256(words + 4 * v, acc[v]);
    for (std::size_t l = 0; l < lanes; ++l) out[l * stride + base / 64] = words[l];
  }
  for (int v = 0; v < V; ++v) {
    store256(st[0] + 4 * v, s0[v]);
    store256(st[1] + 4 * v, s1[v]);
    store256(st[2] + 4 * v, s2[v]);
    store256(st[3] + 4 * v, s3[v]);
  }
  for (std::size_t l = 0; l < lanes; ++l) {
    for (std::size_t k = 0; k < 4; ++k) state[4 * l + k] = st[k][l];
  }
}

void bernoulli_streams_avx2(std::uint64_t* state, std::size_t streams,
                            std::size_t dim, std::uint64_t threshold,
                            std::uint64_t* out, std::size_t stride) {
  // One or two streams cannot fill a vector: the scalar recurrence is
  // faster than four lanes of which most idle.
  if (streams <= 2) {
    bernoulli_streams_scalar(state, streams, dim, threshold, out, stride);
    return;
  }
  std::size_t s = 0;
  for (; s + 8 <= streams; s += 8) {
    bernoulli_block_avx2<2>(state + 4 * s, 8, dim, threshold,
                            out + s * stride, stride);
  }
  const std::size_t rest = streams - s;
  if (rest > 4) {
    bernoulli_block_avx2<2>(state + 4 * s, rest, dim, threshold,
                            out + s * stride, stride);
  } else if (rest > 0) {
    bernoulli_block_avx2<1>(state + 4 * s, rest, dim, threshold,
                            out + s * stride, stride);
  }
}

}  // namespace

const KernelTable& avx2_table() {
  static const KernelTable table = {
      Backend::kAvx2,            &xor_words_avx2,
      &and_words_avx2,           &or_words_avx2,
      &not_words_avx2,           &popcount_words_avx2,
      &hamming_words_avx2,       &hamming_block_avx2,
      &hamming_block_range_avx2, &add_xor_weighted_avx2,
      &threshold_words_avx2,     &select_words_avx2,
      &popcount_select_xor_avx2, &bernoulli_streams_avx2};
  return table;
}

}  // namespace hdface::core::kernels::detail

#endif  // HDFACE_KERNEL_AVX2
