// Bloom filters for the BLOOM baseline (Broder-Mitzenmacher [5]).
//
// Each node maintains a *counting* Bloom filter over its sliding window
// (inserts on arrival, decrements on expiry) and periodically ships a plain
// bit-vector snapshot to its peers; arriving tuples are tested against peer
// snapshots to decide forwarding, exactly as Section 6 describes.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "dsjoin/common/rng.hpp"
#include "dsjoin/common/serialize.hpp"
#include "dsjoin/common/status.hpp"
#include "dsjoin/sketch/hash.hpp"

namespace dsjoin::sketch {

/// Number of hash functions minimizing the false-positive rate for m bits
/// and n expected keys: round(m/n * ln 2), clamped to [1, 16].
std::uint32_t optimal_hash_count(std::size_t bits, std::size_t expected_keys) noexcept;

/// Theoretical false-positive rate (1 - e^{-kn/m})^k.
double bloom_false_positive_rate(std::size_t bits, std::uint32_t hashes,
                                 std::size_t keys) noexcept;

/// Immutable bit-vector Bloom filter — the wire snapshot.
class BloomFilter {
 public:
  /// Empty filter with the given geometry. `seed` fixes the hash functions;
  /// a snapshot only tests correctly against filters using the same seed.
  BloomFilter(std::size_t bits, std::uint32_t hashes, std::uint64_t seed);

  void insert(std::uint64_t key);
  /// True if the key may be present (no false negatives).
  bool contains(std::uint64_t key) const;

  std::size_t bit_count() const noexcept { return bits_; }
  std::uint32_t hash_count() const noexcept { return hashes_; }
  /// Number of set bits.
  std::size_t popcount() const noexcept;
  /// Empirical fill ratio -> estimated false-positive probability.
  double estimated_fpp() const noexcept;

  std::size_t wire_bytes() const noexcept { return words_.size() * 8 + 24; }
  void serialize(common::BufferWriter& out) const;
  static common::Result<BloomFilter> deserialize(common::BufferReader& in);

 private:
  friend class CountingBloomFilter;

  std::size_t bits_;
  std::uint32_t hashes_;
  std::uint64_t seed_;
  DoubleHash hash_;
  std::vector<std::uint64_t> words_;
};

/// Counting Bloom filter: supports erase, so it can track a sliding window.
class CountingBloomFilter {
 public:
  /// @param counters number of 16-bit counters (the "m" of the filter).
  CountingBloomFilter(std::size_t counters, std::uint32_t hashes,
                      std::uint64_t seed);

  void insert(std::uint64_t key);
  /// Decrements the key's counters. Erasing a key that was never inserted
  /// corrupts the filter (standard counting-Bloom caveat); callers pair
  /// every erase with a prior insert. Saturated counters are left pinned.
  void erase(std::uint64_t key);
  bool contains(std::uint64_t key) const;

  /// Applies one insert (+1) or erase (-1) per key, strictly in key order.
  /// Each key's two SplitMix mixes are computed once and shared by all of
  /// its probes (the tuple-at-a-time path recomputes both per probe).
  /// Mixed inserts and erases make counter updates order-dependent under
  /// the saturate/pin clamps, so touches keep the exact (key, probe)
  /// interleaving — state after the call is bit-identical to per-key
  /// insert()/erase() calls.
  ///
  /// This is the production lane (the BLOOM policy feeds window arrivals
  /// and evictions through it); insert()/erase() are its reference. There
  /// is no SIMD kernel: the operator is bound by the k random counter
  /// touches per key, and staging vector-hashed probe indices through a
  /// table costs more memory traffic than the hashing saves while breaking
  /// the hash/touch latency overlap the per-key order gets for free
  /// (DESIGN.md section 13).
  void apply_batch(std::span<const std::uint64_t> keys,
                   std::span<const std::int32_t> deltas);

  std::size_t counter_count() const noexcept { return counters_.size(); }
  std::uint32_t hash_count() const noexcept { return hashes_; }
  const std::vector<std::uint16_t>& counters() const noexcept { return counters_; }

  /// Plain bit-vector snapshot (counter > 0 -> bit set) sharing this
  /// filter's geometry and seed; this is what goes on the wire.
  BloomFilter snapshot() const;

 private:
  std::uint32_t hashes_;
  std::uint64_t seed_;
  DoubleHash hash_;
  RangeReducer counters_mod_;  // exact `% counter_count()` for batches
  std::vector<std::uint16_t> counters_;
};

}  // namespace dsjoin::sketch
