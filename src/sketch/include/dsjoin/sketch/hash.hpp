// Hash families for sketches and Bloom filters.
//
// AGMS sketches [1] require 4-wise independent +/-1 variables; we implement
// them as degree-3 polynomials over the Mersenne prime p = 2^61 - 1 (the
// classic Carter-Wegman construction), taking the low bit as the sign.
// Bloom filters need only well-mixed indices; those come from the cheaper
// double-hashing scheme over two SplitMix64-derived mixes.
#pragma once

#include <array>
#include <bit>
#include <cstdint>

#include "dsjoin/common/rng.hpp"

namespace dsjoin::sketch {

/// Remainder by a fixed range for the batch hot paths: power-of-two ranges
/// (the common bucket/counter geometry) reduce with a mask, everything else
/// falls back to the hardware divide. mod(x) == x % range for every x, so
/// batch paths using it stay bit-identical to the scalar `%`.
class RangeReducer {
 public:
  explicit RangeReducer(std::uint64_t range) noexcept
      : range_(range),
        mask_(range != 0 && std::has_single_bit(range) ? range - 1 : 0) {}

  std::uint64_t range() const noexcept { return range_; }

  std::uint64_t mod(std::uint64_t x) const noexcept {
    return mask_ != 0 ? (x & mask_) : x % range_;
  }

 private:
  std::uint64_t range_;
  std::uint64_t mask_;  // range - 1 when range is a power of two, else 0
};

/// The Mersenne prime 2^61 - 1 used by the polynomial family.
inline constexpr std::uint64_t kMersenne61 = (std::uint64_t{1} << 61) - 1;

/// Multiplies two residues mod 2^61-1 without overflow (128-bit intermediate).
constexpr std::uint64_t mul_mod_m61(std::uint64_t a, std::uint64_t b) noexcept {
  __extension__ using uint128 = unsigned __int128;
  const uint128 prod = static_cast<uint128>(a) * static_cast<uint128>(b);
  std::uint64_t lo = static_cast<std::uint64_t>(prod & kMersenne61);
  std::uint64_t hi = static_cast<std::uint64_t>(prod >> 61);
  std::uint64_t r = lo + hi;
  if (r >= kMersenne61) r -= kMersenne61;
  return r;
}

/// Shared powers x, x^2, x^3 (mod 2^61-1) of one key, computed once and
/// reused across every polynomial hash evaluated on that key. In batch
/// updates this both amortizes the reduction of the raw key and turns the
/// Horner dependency chain into independent multiplies.
struct KeyPowers {
  std::uint64_t x1, x2, x3;

  static KeyPowers of(std::uint64_t x) noexcept {
    const std::uint64_t x1 = x % kMersenne61;
    const std::uint64_t x2 = mul_mod_m61(x1, x1);
    return KeyPowers{x1, x2, mul_mod_m61(x2, x1)};
  }
};

/// Degree-3 polynomial hash over GF(2^61-1): 4-wise independent.
class FourWiseHash {
 public:
  /// Draws random coefficients (a3 forced nonzero) from the given generator.
  explicit FourWiseHash(common::Xoshiro256& rng);

  /// Polynomial value in [0, 2^61-1).
  std::uint64_t eval(std::uint64_t x) const noexcept {
    const std::uint64_t xm = x % kMersenne61;
    std::uint64_t acc = coeff_[3];
    acc = mul_mod_m61(acc, xm);
    acc += coeff_[2];
    if (acc >= kMersenne61) acc -= kMersenne61;
    acc = mul_mod_m61(acc, xm);
    acc += coeff_[1];
    if (acc >= kMersenne61) acc -= kMersenne61;
    acc = mul_mod_m61(acc, xm);
    acc += coeff_[0];
    if (acc >= kMersenne61) acc -= kMersenne61;
    return acc;
  }

  /// eval() from precomputed key powers. The power-basis sum and the
  /// Horner chain reduce to the same fully-reduced residue in [0, 2^61-1),
  /// so the result is identical to eval(x) — but the three multiplies are
  /// independent (latency-hidden), the key reduction is amortized, and the
  /// products accumulate lazily in 128 bits (each is < 2^122, so the
  /// four-term sum is < 2^124 and cannot overflow), replacing three
  /// intermediate reductions with one final double-fold.
  std::uint64_t eval_powers(const KeyPowers& p) const noexcept {
    __extension__ using uint128 = unsigned __int128;
    uint128 s = static_cast<uint128>(coeff_[3]) * p.x3;
    s += static_cast<uint128>(coeff_[2]) * p.x2;
    s += static_cast<uint128>(coeff_[1]) * p.x1;
    s += coeff_[0];
    // s < 2^124: first fold leaves r < 2^61 + 2^63 (fits 64 bits), second
    // leaves r < 2^61 + 7, so one conditional subtract reaches [0, p).
    std::uint64_t r = static_cast<std::uint64_t>(s & kMersenne61) +
                      static_cast<std::uint64_t>(s >> 61);
    r = (r & kMersenne61) + (r >> 61);
    if (r >= kMersenne61) r -= kMersenne61;
    return r;
  }

  /// The 4-wise independent +/-1 variable AGMS needs.
  int sign(std::uint64_t x) const noexcept {
    return (eval(x) & 1u) ? 1 : -1;
  }

  /// Bucket index in [0, buckets) (used by the Fast-AGMS variant).
  std::uint64_t bucket(std::uint64_t x, std::uint64_t buckets) const noexcept {
    return eval(x) % buckets;
  }

 private:
  std::array<std::uint64_t, 4> coeff_;
};

/// Two independent 64-bit mixes for double hashing: index_i = h1 + i*h2.
/// Kirsch-Mitzenmacher double hashing preserves Bloom filter asymptotics
/// with only two hash evaluations per key.
class DoubleHash {
 public:
  explicit DoubleHash(common::Xoshiro256& rng)
      : seed1_(rng.next()), seed2_(rng.next() | 1u) {}

  /// Both mixes of one key, computed once and reused for every probe of
  /// that key (the scalar probe() recomputes them per probe).
  /// index(i, m) reproduces probe(key, i, m.range()) exactly.
  struct Prepared {
    std::uint64_t h1, h2;

    std::uint64_t index(std::uint32_t i, const RangeReducer& m) const noexcept {
      return m.mod(h1 + static_cast<std::uint64_t>(i) * h2);
    }
  };

  Prepared prepare(std::uint64_t key) const noexcept {
    return Prepared{mix(key ^ seed1_), mix(key ^ seed2_) | 1u};
  }

  /// i-th probe position in [0, range).
  std::uint64_t probe(std::uint64_t key, std::uint32_t i,
                      std::uint64_t range) const noexcept {
    const std::uint64_t h1 = mix(key ^ seed1_);
    const std::uint64_t h2 = mix(key ^ seed2_) | 1u;  // odd => full period
    return (h1 + static_cast<std::uint64_t>(i) * h2) % range;
  }

 private:
  static constexpr std::uint64_t mix(std::uint64_t z) noexcept {
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  std::uint64_t seed1_;
  std::uint64_t seed2_;
};

}  // namespace dsjoin::sketch
