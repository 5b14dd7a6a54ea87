#include "dsjoin/sketch/bloom.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <numbers>
#include <limits>
#include <stdexcept>

namespace dsjoin::sketch {

namespace {
common::Xoshiro256 seeded(std::uint64_t seed) { return common::Xoshiro256(seed); }
}  // namespace

std::uint32_t optimal_hash_count(std::size_t bits, std::size_t expected_keys) noexcept {
  if (expected_keys == 0) return 1;
  const double k = static_cast<double>(bits) / static_cast<double>(expected_keys) *
                   std::numbers::ln2;
  const auto rounded = static_cast<std::uint32_t>(std::lround(k));
  return rounded < 1 ? 1 : (rounded > 16 ? 16 : rounded);
}

double bloom_false_positive_rate(std::size_t bits, std::uint32_t hashes,
                                 std::size_t keys) noexcept {
  if (bits == 0) return 1.0;
  const double exponent = -static_cast<double>(hashes) *
                          static_cast<double>(keys) / static_cast<double>(bits);
  return std::pow(1.0 - std::exp(exponent), static_cast<double>(hashes));
}

BloomFilter::BloomFilter(std::size_t bits, std::uint32_t hashes, std::uint64_t seed)
    : bits_(bits), hashes_(hashes), seed_(seed),
      hash_([&] {
        auto rng = seeded(seed);
        return DoubleHash(rng);
      }()),
      words_((bits + 63) / 64, 0) {
  if (bits == 0 || hashes == 0) {
    throw std::invalid_argument("Bloom filter geometry must be positive");
  }
}

void BloomFilter::insert(std::uint64_t key) {
  for (std::uint32_t i = 0; i < hashes_; ++i) {
    const std::uint64_t bit = hash_.probe(key, i, bits_);
    words_[bit >> 6] |= std::uint64_t{1} << (bit & 63);
  }
}

bool BloomFilter::contains(std::uint64_t key) const {
  for (std::uint32_t i = 0; i < hashes_; ++i) {
    const std::uint64_t bit = hash_.probe(key, i, bits_);
    if ((words_[bit >> 6] & (std::uint64_t{1} << (bit & 63))) == 0) return false;
  }
  return true;
}

std::size_t BloomFilter::popcount() const noexcept {
  std::size_t total = 0;
  for (std::uint64_t w : words_) total += static_cast<std::size_t>(std::popcount(w));
  return total;
}

double BloomFilter::estimated_fpp() const noexcept {
  const double fill = static_cast<double>(popcount()) / static_cast<double>(bits_);
  return std::pow(fill, static_cast<double>(hashes_));
}

void BloomFilter::serialize(common::BufferWriter& out) const {
  out.write_u64(bits_);
  out.write_u32(hashes_);
  out.write_u64(seed_);
  for (std::uint64_t w : words_) out.write_u64(w);
}

common::Result<BloomFilter> BloomFilter::deserialize(common::BufferReader& in) {
  auto bits = in.read_u64();
  if (!bits) return bits.status();
  auto hashes = in.read_u32();
  if (!hashes) return hashes.status();
  auto seed = in.read_u64();
  if (!seed) return seed.status();
  if (bits.value() == 0 || bits.value() > (1ull << 33) || hashes.value() == 0 ||
      hashes.value() > 16) {
    return common::Status(common::ErrorCode::kDataLoss, "implausible Bloom geometry");
  }
  BloomFilter filter(bits.value(), hashes.value(), seed.value());
  for (auto& w : filter.words_) {
    auto v = in.read_u64();
    if (!v) return v.status();
    w = v.value();
  }
  return filter;
}

CountingBloomFilter::CountingBloomFilter(std::size_t counters, std::uint32_t hashes,
                                         std::uint64_t seed)
    : hashes_(hashes), seed_(seed),
      hash_([&] {
        auto rng = seeded(seed);
        return DoubleHash(rng);
      }()),
      counters_mod_(counters),
      counters_(counters, 0) {
  if (counters == 0 || hashes == 0) {
    throw std::invalid_argument("counting Bloom geometry must be positive");
  }
}

void CountingBloomFilter::insert(std::uint64_t key) {
  for (std::uint32_t i = 0; i < hashes_; ++i) {
    auto& c = counters_[hash_.probe(key, i, counters_.size())];
    if (c != std::numeric_limits<std::uint16_t>::max()) ++c;  // saturate
  }
}

void CountingBloomFilter::erase(std::uint64_t key) {
  for (std::uint32_t i = 0; i < hashes_; ++i) {
    auto& c = counters_[hash_.probe(key, i, counters_.size())];
    // Saturated counters stay pinned (they have lost their exact count);
    // zero counters indicate a misuse that we refuse to wrap around.
    if (c != 0 && c != std::numeric_limits<std::uint16_t>::max()) --c;
  }
}

void CountingBloomFilter::apply_batch(std::span<const std::uint64_t> keys,
                                      std::span<const std::int32_t> deltas) {
  // Mixed inserts and erases do NOT commute (a decrement can be absorbed at
  // zero before an increment lands), so touches keep strict (key, probe)
  // order: state after the call is bit-identical to per-key insert()/erase().
  assert(keys.size() == deltas.size());
  constexpr auto kMax = std::numeric_limits<std::uint16_t>::max();
  for (std::size_t j = 0; j < keys.size(); ++j) {
    const DoubleHash::Prepared p = hash_.prepare(keys[j]);
    if (deltas[j] > 0) {
      for (std::uint32_t i = 0; i < hashes_; ++i) {
        auto& c = counters_[p.index(i, counters_mod_)];
        if (c != kMax) ++c;  // saturate
      }
    } else if (deltas[j] < 0) {
      for (std::uint32_t i = 0; i < hashes_; ++i) {
        auto& c = counters_[p.index(i, counters_mod_)];
        if (c != 0 && c != kMax) --c;  // pinned / refuse wrap, as erase()
      }
    }
  }
}

bool CountingBloomFilter::contains(std::uint64_t key) const {
  for (std::uint32_t i = 0; i < hashes_; ++i) {
    if (counters_[hash_.probe(key, i, counters_.size())] == 0) return false;
  }
  return true;
}

BloomFilter CountingBloomFilter::snapshot() const {
  BloomFilter out(counters_.size(), hashes_, seed_);
  for (std::size_t i = 0; i < counters_.size(); ++i) {
    if (counters_[i] > 0) {
      out.words_[i >> 6] |= std::uint64_t{1} << (i & 63);
    }
  }
  return out;
}

}  // namespace dsjoin::sketch
