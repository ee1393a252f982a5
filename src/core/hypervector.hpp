#pragma once

// Binary (bipolar ±1) hypervector with packed 64-bit-word storage.
//
// Semantics: each dimension holds an element of {-1, +1}; bit value 1 encodes
// +1 and bit value 0 encodes -1. Similarity between two hypervectors is the
// normalized dot product δ(A, B) = A·B / D = 1 − 2·hamming(A, B)/D, computed
// with XOR + popcount. Dimensions need not be a multiple of 64; the bits of
// the final word beyond `dim` are kept at zero as a class invariant so that
// popcount-based reductions never see garbage.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/op_counter.hpp"
#include "core/rng.hpp"

namespace hdface::core {

class Hypervector {
 public:
  Hypervector() = default;

  // All-zero-bit (all −1 elements) hypervector of the given dimensionality.
  explicit Hypervector(std::size_t dim);

  // i.i.d. fair random hypervector.
  static Hypervector random(std::size_t dim, Rng& rng);

  // Random hypervector whose bits are 1 (element +1) with probability p:
  // bit i is set iff the i-th rng.uniform() draw is < p (one draw per bit).
  static Hypervector bernoulli(std::size_t dim, double p, Rng& rng);

  std::size_t dim() const { return dim_; }
  std::size_t num_words() const { return words_.size(); }
  bool empty() const { return dim_ == 0; }

  std::span<const std::uint64_t> words() const { return words_; }
  std::span<std::uint64_t> mutable_words() { return words_; }

  bool get(std::size_t i) const;
  void set(std::size_t i, bool value);
  void flip(std::size_t i);

  // Number of set bits (+1 elements).
  std::size_t popcount() const;

  // Bitwise operators (element-wise over the packed words). Operands must
  // share the same dimensionality.
  Hypervector operator^(const Hypervector& o) const;
  Hypervector operator&(const Hypervector& o) const;
  Hypervector operator|(const Hypervector& o) const;
  Hypervector operator~() const;  // element-wise negation: V → −V
  Hypervector& operator^=(const Hypervector& o);

  bool operator==(const Hypervector& o) const = default;

  // Circular rotation by k positions (the HDC permutation primitive ρ).
  Hypervector rotated(std::size_t k) const;

  // Element at i as ±1.
  int element(std::size_t i) const { return get(i) ? +1 : -1; }

  // Restores the zero-tail invariant after external word mutation.
  void mask_tail();

  // Fault-injection hook (noise/fault_model.hpp): applies a raw bit-level
  // fault pattern v ← ((v & ~clear) | set) ^ flip word-wise, then re-imposes
  // the zero-tail invariant so popcount-based reductions stay correct even
  // when a fault pattern touches the tail word. Operands must share this
  // dimensionality.
  void apply_fault_pattern(const Hypervector& clear, const Hypervector& set,
                           const Hypervector& flip);

 private:
  void check_compatible(const Hypervector& o) const;

  std::size_t dim_ = 0;
  std::vector<std::uint64_t> words_;
};

// Number of dimensions at which a and b differ.
std::size_t hamming(const Hypervector& a, const Hypervector& b);

// Batched multi-prototype Hamming: out[c] = hamming(query, prototypes[c])
// for every class plane via the dispatched XOR+popcount kernel (the
// similarity-search hot loop of classifier inference — one query against all
// class prototypes; callers with a stable prototype set should pack a
// core::PrototypeBlock and use its SoA hamming_many instead). Exactly
// equal to calling hamming() per prototype, just cheaper. When `counter` is
// set, the word XORs and popcounts are charged to it (one of each per
// prototype word). Throws std::invalid_argument on any dimensionality
// mismatch or when out.size() != prototypes.size().
void hamming_many(const Hypervector& query,
                  std::span<const Hypervector> prototypes,
                  std::span<std::size_t> out, OpCounter* counter = nullptr);

// Convenience allocation form.
std::vector<std::size_t> hamming_many(const Hypervector& query,
                                      std::span<const Hypervector> prototypes,
                                      OpCounter* counter = nullptr);

// Normalized dot-product similarity δ(a, b) = 1 − 2·hamming/D ∈ [−1, 1].
double similarity(const Hypervector& a, const Hypervector& b);

// XOR binding (self-inverse association operator).
inline Hypervector bind(const Hypervector& a, const Hypervector& b) {
  return a ^ b;
}

// Permutation primitive ρ^k.
inline Hypervector permute(const Hypervector& v, std::size_t k) {
  return v.rotated(k);
}

}  // namespace hdface::core
