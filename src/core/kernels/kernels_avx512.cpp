// AVX-512 backend: 512-bit logic with native per-lane popcount
// (_mm512_popcnt_epi64 / VPOPCNTQ, the avx512_vpopcntdq extension) — the
// associative-memory search of the paper as one wide data-parallel
// reduction. Compiled with -mavx512f -mavx512bw -mavx512vl
// -mavx512vpopcntdq only (src/core/CMakeLists.txt); dispatch only selects
// it when __builtin_cpu_supports reports all four features.
//
// Bit-identity with the scalar backend follows the same argument as the
// AVX2 TU: integer kernels are exact; add_xor_weighted sign-flips ±weight
// via the IEEE sign bit and rounds once per add; threshold_words compares
// against +0.0 with ordered > / ==.

#if defined(HDFACE_KERNEL_AVX512)

#include <immintrin.h>

#include <bit>
#include <cstdint>

#include "core/kernels/backends.hpp"

namespace hdface::core::kernels::detail {
namespace {

inline __m512i load512(const std::uint64_t* p) {
  return _mm512_loadu_si512(p);
}

inline void store512(std::uint64_t* p, __m512i v) {
  _mm512_storeu_si512(p, v);
}

// Masked tail load/store: lanes past the mask read as zero / stay untouched.
inline __m512i load512_tail(const std::uint64_t* p, __mmask8 m) {
  return _mm512_maskz_loadu_epi64(m, p);
}

inline __mmask8 tail_mask(std::size_t lanes) {
  return static_cast<__mmask8>((1u << lanes) - 1u);
}

void xor_words_avx512(const std::uint64_t* a, const std::uint64_t* b,
                      std::uint64_t* dst, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    store512(dst + i, _mm512_xor_si512(load512(a + i), load512(b + i)));
  }
  if (i < n) {
    const __mmask8 m = tail_mask(n - i);
    _mm512_mask_storeu_epi64(
        dst + i, m,
        _mm512_xor_si512(load512_tail(a + i, m), load512_tail(b + i, m)));
  }
}

void and_words_avx512(const std::uint64_t* a, const std::uint64_t* b,
                      std::uint64_t* dst, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    store512(dst + i, _mm512_and_si512(load512(a + i), load512(b + i)));
  }
  if (i < n) {
    const __mmask8 m = tail_mask(n - i);
    _mm512_mask_storeu_epi64(
        dst + i, m,
        _mm512_and_si512(load512_tail(a + i, m), load512_tail(b + i, m)));
  }
}

void or_words_avx512(const std::uint64_t* a, const std::uint64_t* b,
                     std::uint64_t* dst, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    store512(dst + i, _mm512_or_si512(load512(a + i), load512(b + i)));
  }
  if (i < n) {
    const __mmask8 m = tail_mask(n - i);
    _mm512_mask_storeu_epi64(
        dst + i, m,
        _mm512_or_si512(load512_tail(a + i, m), load512_tail(b + i, m)));
  }
}

void not_words_avx512(const std::uint64_t* a, std::uint64_t* dst,
                      std::size_t n) {
  const __m512i ones = _mm512_set1_epi64(-1);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    store512(dst + i, _mm512_xor_si512(load512(a + i), ones));
  }
  if (i < n) {
    const __mmask8 m = tail_mask(n - i);
    _mm512_mask_storeu_epi64(dst + i, m,
                             _mm512_xor_si512(load512_tail(a + i, m), ones));
  }
}

std::uint64_t popcount_words_avx512(const std::uint64_t* a, std::size_t n) {
  __m512i acc = _mm512_setzero_si512();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(load512(a + i)));
  }
  if (i < n) {
    acc = _mm512_add_epi64(
        acc, _mm512_popcnt_epi64(load512_tail(a + i, tail_mask(n - i))));
  }
  return static_cast<std::uint64_t>(_mm512_reduce_add_epi64(acc));
}

std::uint64_t hamming_words_avx512(const std::uint64_t* a,
                                   const std::uint64_t* b, std::size_t n) {
  __m512i acc = _mm512_setzero_si512();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512i x0 = _mm512_xor_si512(load512(a + i), load512(b + i));
    const __m512i x1 =
        _mm512_xor_si512(load512(a + i + 8), load512(b + i + 8));
    acc = _mm512_add_epi64(acc, _mm512_add_epi64(_mm512_popcnt_epi64(x0),
                                                 _mm512_popcnt_epi64(x1)));
  }
  for (; i + 8 <= n; i += 8) {
    acc = _mm512_add_epi64(
        acc,
        _mm512_popcnt_epi64(_mm512_xor_si512(load512(a + i), load512(b + i))));
  }
  if (i < n) {
    const __mmask8 m = tail_mask(n - i);
    acc = _mm512_add_epi64(
        acc, _mm512_popcnt_epi64(
                 _mm512_xor_si512(load512_tail(a + i, m),
                                  load512_tail(b + i, m))));
  }
  return static_cast<std::uint64_t>(_mm512_reduce_add_epi64(acc));
}

void hamming_block_avx512(const std::uint64_t* query,
                          const std::uint64_t* block, std::size_t words,
                          std::size_t count, std::size_t stride,
                          std::uint64_t* out) {
  // Eight prototype lanes per vector; the PrototypeBlock stride is a
  // multiple of 8, so lanes [c, c+8) never leave the (zero-padded) row.
  std::size_t c = 0;
  for (; c < count; c += 8) {
    __m512i acc = _mm512_setzero_si512();
    for (std::size_t w = 0; w < words; ++w) {
      const __m512i q =
          _mm512_set1_epi64(static_cast<long long>(query[w]));
      const __m512i p = load512(block + w * stride + c);
      acc = _mm512_add_epi64(acc,
                             _mm512_popcnt_epi64(_mm512_xor_si512(q, p)));
    }
    const std::size_t take = count - c < 8 ? count - c : 8;
    _mm512_mask_storeu_epi64(out + c, tail_mask(take), acc);
  }
}

void add_xor_weighted_avx512(const std::uint64_t* a, const std::uint64_t* b,
                             std::size_t dim, double weight, double* counts) {
  const __m512d wv = _mm512_set1_pd(weight);
  const __m512i lane_shift = _mm512_setr_epi64(0, 1, 2, 3, 4, 5, 6, 7);
  const std::size_t full_words = dim / 64;
  for (std::size_t w = 0; w < full_words; ++w) {
    // Invert so a set sign bit means "subtract weight" (xor bit was 0).
    std::uint64_t xinv = ~(a[w] ^ b[w]);
    double* c = counts + w * 64;
    for (std::size_t g = 0; g < 64; g += 8, xinv >>= 8) {
      const __m512i bits = _mm512_srlv_epi64(
          _mm512_set1_epi64(static_cast<long long>(xinv)), lane_shift);
      const __m512i sign = _mm512_slli_epi64(bits, 63);
      // Sign flip in the integer domain (_mm512_xor_pd would pull in
      // AVX512DQ, which dispatch does not probe for).
      const __m512d addend = _mm512_castsi512_pd(
          _mm512_xor_si512(_mm512_castpd_si512(wv), sign));
      _mm512_storeu_pd(c + g, _mm512_add_pd(_mm512_loadu_pd(c + g), addend));
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

std::size_t threshold_words_avx512(const double* counts, std::size_t dim,
                                   std::uint64_t* out_words) {
  const __m512d zero = _mm512_setzero_pd();
  std::size_t zeros = 0;
  const std::size_t full_words = dim / 64;
  for (std::size_t w = 0; w < full_words; ++w) {
    const double* c = counts + w * 64;
    std::uint64_t word = 0;
    for (std::size_t g = 0; g < 64; g += 8) {
      const __m512d v = _mm512_loadu_pd(c + g);
      const __mmask8 gt = _mm512_cmp_pd_mask(v, zero, _CMP_GT_OQ);
      const __mmask8 eq = _mm512_cmp_pd_mask(v, zero, _CMP_EQ_OQ);
      word |= static_cast<std::uint64_t>(gt) << g;
      zeros += static_cast<std::size_t>(
          std::popcount(static_cast<unsigned>(eq)));
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

void select_words_avx512(const std::uint64_t* a, const std::uint64_t* b,
                         const std::uint64_t* m, std::uint64_t cond_flip,
                         std::uint64_t out_flip, std::uint64_t* dst,
                         std::size_t n) {
  const __m512i cf = _mm512_set1_epi64(static_cast<long long>(cond_flip));
  const __m512i of = _mm512_set1_epi64(static_cast<long long>(out_flip));
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512i av = load512(a + i);
    const __m512i bv = load512(b + i);
    const __m512i mv = load512(m + i);
    const __m512i cond =
        _mm512_and_si512(_mm512_xor_si512(_mm512_xor_si512(av, bv), cf), mv);
    store512(dst + i, _mm512_xor_si512(_mm512_xor_si512(bv, cond), of));
  }
  if (i < n) {
    const __mmask8 k = tail_mask(n - i);
    const __m512i av = load512_tail(a + i, k);
    const __m512i bv = load512_tail(b + i, k);
    const __m512i mv = load512_tail(m + i, k);
    const __m512i cond =
        _mm512_and_si512(_mm512_xor_si512(_mm512_xor_si512(av, bv), cf), mv);
    _mm512_mask_storeu_epi64(
        dst + i, k, _mm512_xor_si512(_mm512_xor_si512(bv, cond), of));
  }
}

std::uint64_t popcount_select_xor_avx512(const std::uint64_t* a,
                                         const std::uint64_t* b,
                                         const std::uint64_t* m,
                                         const std::uint64_t* x,
                                         std::uint64_t cond_flip,
                                         std::size_t n) {
  const __m512i cf = _mm512_set1_epi64(static_cast<long long>(cond_flip));
  __m512i acc = _mm512_setzero_si512();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512i av = load512(a + i);
    const __m512i bv = load512(b + i);
    const __m512i mv = load512(m + i);
    const __m512i cond =
        _mm512_and_si512(_mm512_xor_si512(_mm512_xor_si512(av, bv), cf), mv);
    const __m512i sel = _mm512_xor_si512(bv, cond);
    acc = _mm512_add_epi64(
        acc, _mm512_popcnt_epi64(_mm512_xor_si512(sel, load512(x + i))));
  }
  std::uint64_t total = static_cast<std::uint64_t>(_mm512_reduce_add_epi64(acc));
  for (; i < n; ++i) {
    const std::uint64_t sel = b[i] ^ (((a[i] ^ b[i]) ^ cond_flip) & m[i]);
    total += static_cast<std::uint64_t>(std::popcount(sel ^ x[i]));
  }
  return total;
}

// Prefix/range variant: a hamming_block over the words [word_lo, word_hi),
// run by this backend's own block kernel on offset pointers — bit-identity
// to scalar follows from the full kernel's.
void hamming_block_range_avx512(const std::uint64_t* query,
                                const std::uint64_t* block, std::size_t word_lo,
                                std::size_t word_hi, std::size_t count,
                                std::size_t stride, std::uint64_t* out) {
  hamming_block_avx512(query + word_lo, block + word_lo * stride,
                       word_hi - word_lo, count, stride, out);
}

// xoshiro256** advanced in all eight 64-bit lanes at once; returns each
// lane's output word. s1·5 and r·9 are shift-adds (exact mod 2^64) and the
// rotations are native VPROLQ, so every lane is bit-for-bit core::Rng::next.
inline __m512i xoshiro_next(__m512i& s0, __m512i& s1, __m512i& s2,
                            __m512i& s3) {
  const __m512i r =
      _mm512_rol_epi64(_mm512_add_epi64(s1, _mm512_slli_epi64(s1, 2)), 7);
  const __m512i result = _mm512_add_epi64(r, _mm512_slli_epi64(r, 3));
  const __m512i t = _mm512_slli_epi64(s1, 17);
  s2 = _mm512_xor_si512(s2, s0);
  s3 = _mm512_xor_si512(s3, s1);
  s1 = _mm512_xor_si512(s1, s2);
  s0 = _mm512_xor_si512(s0, s3);
  s2 = _mm512_xor_si512(s2, t);
  s3 = _mm512_rol_epi64(s3, 45);
  return result;
}

// Up to 8·V streams (`lanes` of them real), one stream per 64-bit lane of V
// interleaved vectors; V = 2 keeps two independent recurrences in flight.
// Idle lanes run an all-zero state (a fixed point) and are never written.
template <int V>
void bernoulli_block_avx512(std::uint64_t* state, std::size_t lanes,
                            std::size_t dim, std::uint64_t threshold,
                            std::uint64_t* out, std::size_t stride) {
  constexpr std::size_t kLanes = 8 * V;
  alignas(64) std::uint64_t st[4][kLanes] = {};
  for (std::size_t l = 0; l < lanes; ++l) {
    for (std::size_t k = 0; k < 4; ++k) st[k][l] = state[4 * l + k];
  }
  __m512i s0[V], s1[V], s2[V], s3[V];
  for (int v = 0; v < V; ++v) {
    s0[v] = _mm512_load_si512(st[0] + 8 * v);
    s1[v] = _mm512_load_si512(st[1] + 8 * v);
    s2[v] = _mm512_load_si512(st[2] + 8 * v);
    s3[v] = _mm512_load_si512(st[3] + 8 * v);
  }
  const __m512i thr = _mm512_set1_epi64(static_cast<long long>(threshold));
  alignas(64) std::uint64_t words[kLanes];
  for (std::size_t base = 0; base < dim; base += 64) {
    const std::size_t bits = dim - base < 64 ? dim - base : 64;
    __m512i acc[V];
    for (int v = 0; v < V; ++v) acc[v] = _mm512_setzero_si512();
    __m512i bit = _mm512_set1_epi64(1);
    for (std::size_t j = 0; j < bits; ++j) {
      for (int v = 0; v < V; ++v) {
        const __m512i x = xoshiro_next(s0[v], s1[v], s2[v], s3[v]);
        const __mmask8 hit =
            _mm512_cmplt_epu64_mask(_mm512_srli_epi64(x, 11), thr);
        acc[v] = _mm512_mask_or_epi64(acc[v], hit, acc[v], bit);
      }
      bit = _mm512_add_epi64(bit, bit);
    }
    for (int v = 0; v < V; ++v) _mm512_store_si512(words + 8 * v, acc[v]);
    for (std::size_t l = 0; l < lanes; ++l) out[l * stride + base / 64] = words[l];
  }
  for (int v = 0; v < V; ++v) {
    _mm512_store_si512(st[0] + 8 * v, s0[v]);
    _mm512_store_si512(st[1] + 8 * v, s1[v]);
    _mm512_store_si512(st[2] + 8 * v, s2[v]);
    _mm512_store_si512(st[3] + 8 * v, s3[v]);
  }
  for (std::size_t l = 0; l < lanes; ++l) {
    for (std::size_t k = 0; k < 4; ++k) state[4 * l + k] = st[k][l];
  }
}

void bernoulli_streams_avx512(std::uint64_t* state, std::size_t streams,
                              std::size_t dim, std::uint64_t threshold,
                              std::uint64_t* out, std::size_t stride) {
  // One or two streams cannot fill a vector: the scalar recurrence is
  // faster than eight lanes of which most idle.
  if (streams <= 2) {
    bernoulli_streams_scalar(state, streams, dim, threshold, out, stride);
    return;
  }
  std::size_t s = 0;
  for (; s + 16 <= streams; s += 16) {
    bernoulli_block_avx512<2>(state + 4 * s, 16, dim, threshold,
                              out + s * stride, stride);
  }
  const std::size_t rest = streams - s;
  if (rest > 8) {
    bernoulli_block_avx512<2>(state + 4 * s, rest, dim, threshold,
                              out + s * stride, stride);
  } else if (rest > 0) {
    bernoulli_block_avx512<1>(state + 4 * s, rest, dim, threshold,
                              out + s * stride, stride);
  }
}

}  // namespace

const KernelTable& avx512_table() {
  static const KernelTable table = {
      Backend::kAvx512,            &xor_words_avx512,
      &and_words_avx512,           &or_words_avx512,
      &not_words_avx512,           &popcount_words_avx512,
      &hamming_words_avx512,       &hamming_block_avx512,
      &hamming_block_range_avx512, &add_xor_weighted_avx512,
      &threshold_words_avx512,     &select_words_avx512,
      &popcount_select_xor_avx512, &bernoulli_streams_avx512};
  return table;
}

}  // namespace hdface::core::kernels::detail

#endif  // HDFACE_KERNEL_AVX512
