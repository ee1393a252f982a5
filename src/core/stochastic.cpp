#include "core/stochastic.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/check.hpp"

namespace hdface::core {

namespace {
double clamp_unit(double x) { return std::clamp(x, -1.0, 1.0); }
}  // namespace

StochasticContext::StochasticContext(const StochasticConfig& config)
    : config_(config), rng_(config.seed), basis_(Hypervector::random(config.dim, rng_)) {
  if (config.dim == 0) throw std::invalid_argument("StochasticContext: dim must be > 0");
  if (config.mask_bits < 1 || config.mask_bits > 30) {
    throw std::invalid_argument("StochasticContext: mask_bits out of range");
  }
  if (config.search_iters < 0) {
    throw std::invalid_argument("StochasticContext: search_iters must be >= 0");
  }
  if (config.mask_pool > 0) {
    pool_ = std::make_shared<std::vector<std::vector<Hypervector>>>(256);
  }
}

void StochasticContext::warm_pool() {
  if (config_.mask_pool == 0 || pool_warmed_) return;
  OpCounter* saved = counter_;
  counter_ = nullptr;  // pool construction is setup cost, not runtime cost
  for (std::size_t bucket = 0; bucket < pool_->size(); ++bucket) {
    auto& masks = (*pool_)[bucket];
    while (masks.size() < config_.mask_pool) {
      masks.push_back(fresh_mask(static_cast<double>(bucket) / 255.0));
    }
  }
  counter_ = saved;
  pool_warmed_ = true;
}

StochasticContext StochasticContext::fork(std::uint64_t stream_seed) const {
  if (config_.mask_pool > 0 && !pool_warmed_) {
    throw std::logic_error("StochasticContext::fork: warm_pool() first");
  }
  StochasticContext out(*this);  // shares pool_, copies basis/config
  out.rng_ = Rng(stream_seed);
  out.counter_ = nullptr;
  return out;
}

std::vector<Hypervector>& StochasticContext::mutable_pool_bucket(
    std::size_t bucket) {
  if (!pool_ || !pool_warmed_) {
    throw std::logic_error(
        "StochasticContext::mutable_pool_bucket: warm_pool() first");
  }
  return pool_->at(bucket);
}

int StochasticContext::effective_search_iters() const {
  if (config_.search_iters > 0) return config_.search_iters;
  // Stop once the interval term 2^-iters sinks below the ~1/√D noise floor.
  int iters = 1;
  while ((1u << iters) * (1u << iters) < config_.dim && iters < 16) ++iters;
  return iters + 1;
}

Hypervector StochasticContext::bernoulli_mask(double p) {
  // NaN survives std::clamp and would turn llround() into an out-of-bounds
  // pool-bucket index — a silent wild read in the unchecked build.
  HD_CHECK(!std::isnan(p), "bernoulli_mask: NaN probability (upstream "
                           "arithmetic produced a poisoned value)");
  p = std::clamp(p, 0.0, 1.0);
  if (config_.mask_pool == 0) return fresh_mask(p);
  // Pool mode: quantize the probability to 8 bits, lazily fill the bucket's
  // pool, and pick a pool entry at random (one RNG draw, two word reads).
  const auto bucket =
      static_cast<std::size_t>(std::llround(p * 255.0));
  auto& masks = (*pool_)[bucket];
  if (masks.size() < config_.mask_pool) {
    // Fill the whole bucket on first use so op accounting is amortized.
    OpCounter* saved = counter_;
    counter_ = nullptr;  // pool construction is setup cost, not runtime cost
    while (masks.size() < config_.mask_pool) {
      masks.push_back(fresh_mask(static_cast<double>(bucket) / 255.0));
    }
    counter_ = saved;
  }
  count(OpKind::kRngWord, 1);  // pool index + rotation draw
  count(OpKind::kWordLogic, basis_.num_words());  // mask stream read
  const Hypervector& entry = masks[rng_.below(masks.size())];
  // Rotation decorrelation: a random circular shift turns `mask_pool` stored
  // masks into pool × (D/64) effectively distinct ones, so collisions between
  // any two drawn masks are ~1/(pool·words) — negligible even inside the
  // square/compare decorrelation paths. Word-granular rotation is free in
  // hardware (address offset) and a copy on the host.
  if (config_.dim % 64 == 0) {
    const std::size_t words = entry.num_words();
    const std::size_t off = rng_.below(words);
    if (off == 0) return entry;
    Hypervector out(config_.dim);
    auto ow = out.mutable_words();
    const auto ew = entry.words();
    for (std::size_t i = 0; i < words; ++i) ow[i] = ew[(i + off) % words];
    return out;
  }
  return entry.rotated(rng_.below(config_.dim));
}

StochasticContext::PooledMaskView StochasticContext::pooled_mask_view(
    double p) {
  if (!pooled_fast_path()) {
    throw std::logic_error(
        "pooled_mask_view: requires pool mode, a warmed pool, and dim % 64 "
        "== 0 (check pooled_fast_path() first)");
  }
  // Mirror bernoulli_mask's pool path draw-for-draw: same NaN contract, same
  // clamp/quantization, same counter charges, same two RNG draws (pool index
  // then word rotation) — only the rotated copy is never materialized.
  HD_CHECK(!std::isnan(p), "pooled_mask_view: NaN probability (upstream "
                           "arithmetic produced a poisoned value)");
  p = std::clamp(p, 0.0, 1.0);
  const auto bucket = static_cast<std::size_t>(std::llround(p * 255.0));
  const auto& masks = (*pool_)[bucket];
  count(OpKind::kRngWord, 1);  // pool index + rotation draw
  count(OpKind::kWordLogic, basis_.num_words());  // mask stream read
  const Hypervector& entry = masks[rng_.below(masks.size())];
  const std::size_t off = rng_.below(entry.num_words());
  return PooledMaskView{entry.words().data(), off};
}

Hypervector StochasticContext::fresh_mask(double p) {
  HD_CHECK(!std::isnan(p), "fresh_mask: NaN probability (upstream "
                           "arithmetic produced a poisoned value)");
  p = std::clamp(p, 0.0, 1.0);
  const int bits = config_.mask_bits;
  const auto scale = static_cast<std::uint64_t>(1) << bits;
  const auto p_fixed =
      static_cast<std::uint64_t>(std::llround(p * static_cast<double>(scale)));

  Hypervector mask(config_.dim);
  auto words = mask.mutable_words();
  if (p_fixed == 0) return mask;
  if (p_fixed >= scale) {
    for (auto& w : words) w = ~0ULL;
    mask.mask_tail();
    count(OpKind::kWordLogic, words.size());
    return mask;
  }
  // Binary-expansion trick: process the fixed-point bits of p from LSB to
  // MSB; OR with a fresh fair word doubles-and-adds the probability, AND
  // halves it. After `bits` steps every bit is 1 with probability p exactly
  // (to mask_bits precision).
  for (auto& w : words) {
    std::uint64_t acc = 0;
    for (int i = 0; i < bits; ++i) {
      const std::uint64_t r = rng_.next();
      acc = ((p_fixed >> i) & 1ULL) ? (acc | r) : (acc & r);
    }
    w = acc;
  }
  mask.mask_tail();
  count(OpKind::kRngWord, words.size() * static_cast<std::uint64_t>(bits));
  count(OpKind::kWordLogic, words.size() * static_cast<std::uint64_t>(bits));
  return mask;
}

Hypervector StochasticContext::construct(double a) {
  HD_CHECK(!std::isnan(a), "construct: NaN value cannot be represented");
  a = clamp_unit(a);
  // Flip each basis bit with probability (1−a)/2 so that agreement with V₁
  // is (1+a)/2 and δ(V_a, V₁) = a in expectation.
  Hypervector flips = bernoulli_mask((1.0 - a) / 2.0);
  charge(op_cost::kConstruct, basis_.num_words());
  return basis_ ^ flips;
}

double StochasticContext::decode(const Hypervector& v) const {
  charge(op_cost::kDecode, v.num_words());
  return similarity(v, basis_);
}

Hypervector StochasticContext::weighted_average(const Hypervector& a,
                                                const Hypervector& b, double p) {
  if (a.dim() != dim() || b.dim() != dim()) {
    throw std::invalid_argument("weighted_average: dimensionality mismatch");
  }
  const Hypervector mask = bernoulli_mask(p);
  charge(op_cost::kWeightedAverage, a.num_words());
  // select: (a & mask) | (b & ~mask) == b ^ ((a ^ b) & mask)
  Hypervector out = a ^ b;
  auto ow = out.mutable_words();
  const auto mw = mask.words();
  const auto bw = b.words();
  for (std::size_t i = 0; i < ow.size(); ++i) ow[i] = bw[i] ^ (ow[i] & mw[i]);
  return out;
}

Hypervector StochasticContext::multiply(const Hypervector& a, const Hypervector& b) {
  if (a.dim() != dim() || b.dim() != dim()) {
    throw std::invalid_argument("multiply: dimensionality mismatch");
  }
  charge(op_cost::kMultiply, a.num_words());
  // Paper rule: result dim = V₁ dim where operands agree, −V₁ dim otherwise.
  // In packed-bit form that is exactly a ^ b ^ V₁.
  return a ^ b ^ basis_;
}

Hypervector StochasticContext::square(const Hypervector& v) {
  HD_CHECK(v.dim() == dim(), "square: operand dimensionality mismatch");
  // Regeneration decorrelates the operands (rotation-decorrelated pooled
  // masks make a collision with v's own construction negligible).
  return multiply(v, regenerate(v));
}

Hypervector StochasticContext::scale(const Hypervector& v, double c) {
  HD_CHECK(v.dim() == dim(), "scale: operand dimensionality mismatch");
  HD_CHECK(!std::isnan(c), "scale: NaN factor");
  c = clamp_unit(c);
  // δ(wavg(v, fresh-zero, |c|), V₁) = |c|·a; flip for negative c.
  Hypervector out = weighted_average(v, zero(), std::fabs(c));
  if (c < 0.0) {
    charge(op_cost::kNegate, out.num_words());
    return ~out;
  }
  return out;
}

Hypervector StochasticContext::abs(const Hypervector& v) {
  HD_CHECK(v.dim() == dim(), "abs: operand dimensionality mismatch");
  if (sign_of(v) < 0) {
    charge(op_cost::kNegate, v.num_words());
    return ~v;
  }
  return v;
}

Hypervector StochasticContext::sqrt(const Hypervector& v) {
  HD_CHECK(v.dim() == dim(), "sqrt: operand dimensionality mismatch");
  // Binary search per paper §4.2: the interval endpoints start at the known
  // constants 0 and 1, so every midpoint is a known dyadic constant — the
  // hyperspace work is the per-step comparison of V_m ⊗ V_m (decorrelated)
  // against the operand. Tracking the interval numerically is semantically
  // identical to averaging V_low/V_high hypervectors but avoids compounding
  // selection noise across iterations.
  double lo = 0.0;
  double hi = 1.0;
  double m = 0.5;
  Hypervector mid = construct(m);
  for (int it = 0, iters = effective_search_iters(); it < iters; ++it) {
    m = (lo + hi) / 2.0;
    mid = construct(m);
    const Hypervector mid_sq = multiply(mid, construct(m));
    const int c = compare(mid_sq, v);
    if (c > 0) {
      hi = m;
    } else if (c < 0) {
      lo = m;
    } else {
      break;  // within statistical margin of error
    }
  }
  return mid;
}

Hypervector StochasticContext::divide(const Hypervector& a, const Hypervector& b) {
  HD_CHECK(a.dim() == dim() && b.dim() == dim(),
           "divide: operand dimensionality mismatch");
  // Find q with q·b ≈ a via binary search over |q| ∈ [0, 1] (results are
  // clamped to the representable interval), handling signs separately.
  const int sign_a = sign_of(a);
  const int sign_b = sign_of(b);
  if (sign_b == 0) {
    // Division by (statistical) zero saturates at ±1.
    return sign_a >= 0 ? construct(1.0) : construct(-1.0);
  }
  const Hypervector abs_a = sign_a < 0 ? ~a : a;
  const Hypervector abs_b = sign_b < 0 ? ~b : b;

  double lo = 0.0;
  double hi = 1.0;
  double m = 0.5;
  Hypervector mid = construct(m);
  for (int it = 0, iters = effective_search_iters(); it < iters; ++it) {
    m = (lo + hi) / 2.0;
    mid = construct(m);
    // An independent construction of the midpoint keeps its randomness
    // independent of abs_b so the product identity applies.
    const Hypervector prod = multiply(construct(m), abs_b);
    const int c = compare(prod, abs_a);
    if (c > 0) {
      hi = m;
    } else if (c < 0) {
      lo = m;
    } else {
      break;
    }
  }
  const bool negative = (sign_a < 0) != (sign_b < 0);
  if (negative) {
    charge(op_cost::kNegate, mid.num_words());
    return ~mid;
  }
  return mid;
}

double StochasticContext::default_eps() const {
  return 2.0 / std::sqrt(static_cast<double>(config_.dim));
}

int StochasticContext::compare(const Hypervector& a, const Hypervector& b,
                               double eps) {
  if (eps < 0.0) eps = default_eps();
  // δ(0.5a ⊕ 0.5(−b), V₁) = (a − b)/2 in expectation.
  charge(op_cost::kNegate, b.num_words());
  const Hypervector diff = weighted_average(a, ~b, 0.5);
  const double d = decode(diff);
  if (d > eps / 2.0) return 1;
  if (d < -eps / 2.0) return -1;
  return 0;
}

int StochasticContext::sign_of(const Hypervector& v, double eps) const {
  if (eps < 0.0) eps = default_eps();
  const double d = decode(v);
  if (d > eps) return 1;
  if (d < -eps) return -1;
  return 0;
}

}  // namespace hdface::core
