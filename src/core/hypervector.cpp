#include "core/hypervector.hpp"

#include <stdexcept>

#include "core/kernels/kernels.hpp"
#include "util/check.hpp"

namespace hdface::core {

namespace {
constexpr std::size_t kWordBits = 64;

std::size_t words_for(std::size_t dim) { return (dim + kWordBits - 1) / kWordBits; }

std::uint64_t tail_mask(std::size_t dim) {
  const std::size_t rem = dim % kWordBits;
  return rem == 0 ? ~0ULL : ((1ULL << rem) - 1);
}
}  // namespace

Hypervector::Hypervector(std::size_t dim) : dim_(dim), words_(words_for(dim), 0) {
  if (dim == 0) throw std::invalid_argument("Hypervector: dim must be > 0");
}

Hypervector Hypervector::random(std::size_t dim, Rng& rng) {
  Hypervector v(dim);
  for (auto& w : v.words_) w = rng.next();
  v.mask_tail();
  return v;
}

Hypervector Hypervector::bernoulli(std::size_t dim, double p, Rng& rng) {
  Hypervector v(dim);
  // The one-stream case of the batched fault-mask sampler: bit i is
  // rng.uniform() < p for the i-th draw, and rng ends `dim` draws on.
  kernels::active().bernoulli_streams(rng.state().data(), 1, dim,
                                      bernoulli_threshold(p), v.words_.data(),
                                      v.words_.size());
  return v;
}

bool Hypervector::get(std::size_t i) const {
  HD_DCHECK(i < dim_, "bit index past the hypervector dimension reads an "
                      "out-of-bounds packed word");
  return (words_[i / kWordBits] >> (i % kWordBits)) & 1ULL;
}

void Hypervector::set(std::size_t i, bool value) {
  HD_DCHECK(i < dim_, "bit index past the hypervector dimension writes an "
                      "out-of-bounds packed word");
  const std::uint64_t bit = 1ULL << (i % kWordBits);
  if (value) {
    words_[i / kWordBits] |= bit;
  } else {
    words_[i / kWordBits] &= ~bit;
  }
}

void Hypervector::flip(std::size_t i) {
  HD_DCHECK(i < dim_, "bit index past the hypervector dimension flips an "
                      "out-of-bounds packed word");
  words_[i / kWordBits] ^= 1ULL << (i % kWordBits);
}

std::size_t Hypervector::popcount() const {
  return static_cast<std::size_t>(
      kernels::active().popcount_words(words_.data(), words_.size()));
}

void Hypervector::check_compatible(const Hypervector& o) const {
  if (dim_ != o.dim_) {
    throw std::invalid_argument("Hypervector: dimensionality mismatch");
  }
}

Hypervector Hypervector::operator^(const Hypervector& o) const {
  check_compatible(o);
  Hypervector r(dim_);
  kernels::active().xor_words(words_.data(), o.words_.data(), r.words_.data(),
                              words_.size());
  return r;
}

Hypervector Hypervector::operator&(const Hypervector& o) const {
  check_compatible(o);
  Hypervector r(dim_);
  kernels::active().and_words(words_.data(), o.words_.data(), r.words_.data(),
                              words_.size());
  return r;
}

Hypervector Hypervector::operator|(const Hypervector& o) const {
  check_compatible(o);
  Hypervector r(dim_);
  kernels::active().or_words(words_.data(), o.words_.data(), r.words_.data(),
                             words_.size());
  return r;
}

Hypervector Hypervector::operator~() const {
  Hypervector r(dim_);
  kernels::active().not_words(words_.data(), r.words_.data(), words_.size());
  r.mask_tail();
  return r;
}

Hypervector& Hypervector::operator^=(const Hypervector& o) {
  check_compatible(o);
  kernels::active().xor_words(words_.data(), o.words_.data(), words_.data(),
                              words_.size());
  return *this;
}

Hypervector Hypervector::rotated(std::size_t k) const {
  HD_CHECK(dim_ > 0, "rotating a default-constructed (dimension-0) "
                     "hypervector divides by zero");
  Hypervector r(dim_);
  k %= dim_;
  if (k == 0) return *this;
  // Bit i of the result takes bit (i - k) mod dim of the source.
  for (std::size_t i = 0; i < dim_; ++i) {
    const std::size_t src = (i + dim_ - k) % dim_;
    if (get(src)) r.set(i, true);
  }
  return r;
}

void Hypervector::mask_tail() {
  if (!words_.empty()) words_.back() &= tail_mask(dim_);
}

void Hypervector::apply_fault_pattern(const Hypervector& clear,
                                      const Hypervector& set,
                                      const Hypervector& flip) {
  check_compatible(clear);
  check_compatible(set);
  check_compatible(flip);
  const auto cw = clear.words();
  const auto sw = set.words();
  const auto fw = flip.words();
  for (std::size_t i = 0; i < words_.size(); ++i) {
    words_[i] = ((words_[i] & ~cw[i]) | sw[i]) ^ fw[i];
  }
  mask_tail();
}

std::size_t hamming(const Hypervector& a, const Hypervector& b) {
  if (a.dim() != b.dim()) {
    throw std::invalid_argument("hamming: dimensionality mismatch");
  }
  const auto wa = a.words();
  return static_cast<std::size_t>(
      kernels::active().hamming_words(wa.data(), b.words().data(), wa.size()));
}

void hamming_many(const Hypervector& query,
                  std::span<const Hypervector> prototypes,
                  std::span<std::size_t> out, OpCounter* counter) {
  if (out.size() != prototypes.size()) {
    throw std::invalid_argument("hamming_many: output size mismatch");
  }
  for (const auto& p : prototypes) {
    if (p.dim() != query.dim()) {
      throw std::invalid_argument("hamming_many: dimensionality mismatch");
    }
  }
  const auto qw = query.words();
  const std::size_t nw = qw.size();
  // AoS prototypes can't use the SoA hamming_block kernel; one dispatched
  // hamming_words pass per prototype still vectorizes the word loop. Hot
  // callers pack a core::PrototypeBlock instead.
  const kernels::KernelTable& k = kernels::active();
  for (std::size_t c = 0; c < prototypes.size(); ++c) {
    out[c] = static_cast<std::size_t>(
        k.hamming_words(qw.data(), prototypes[c].words().data(), nw));
  }
  if (counter) {
    const auto ops = static_cast<std::uint64_t>(nw) * prototypes.size();
    counter->add(OpKind::kWordLogic, ops);
    counter->add(OpKind::kPopcount, ops);
  }
}

std::vector<std::size_t> hamming_many(const Hypervector& query,
                                      std::span<const Hypervector> prototypes,
                                      OpCounter* counter) {
  std::vector<std::size_t> out(prototypes.size());
  hamming_many(query, prototypes, out, counter);
  return out;
}

double similarity(const Hypervector& a, const Hypervector& b) {
  return 1.0 - 2.0 * static_cast<double>(hamming(a, b)) / static_cast<double>(a.dim());
}

}  // namespace hdface::core
