// AGMS sketches (Alon-Gibbons-Matias-Szegedy [1]) for join-size estimation.
//
// The SKCH baseline of the paper's evaluation estimates |R_i join S_j| from
// compact randomized sketches. An AGMS sketch is an s0 x s1 grid of atomic
// estimators; each atomic counter is sum_v f(v) * xi(v) with xi a 4-wise
// independent +/-1 variable. The inner product of two atomic counters built
// with the *same* xi is an unbiased estimator of the join size
// sum_v f(v) g(v); averaging s1 copies controls variance and the median of
// s0 averages boosts confidence. Section 6 of the paper keeps s0 : s1 = 5:1.
//
// Sketches are linear, so sliding-window maintenance is a +1 update for the
// arriving tuple and a -1 update for the expiring one.
//
// Fast-AGMS (Cormode-Garofalakis) is provided as an extension/ablation: one
// bucket update per row instead of touching every counter, at equal space.
// No policy feeds it, so it has only the per-key update().
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "dsjoin/common/rng.hpp"
#include "dsjoin/common/serialize.hpp"
#include "dsjoin/common/status.hpp"
#include "dsjoin/sketch/hash.hpp"

namespace dsjoin::sketch {

/// Geometry of an AGMS sketch.
struct AgmsShape {
  std::uint32_t s0 = 5;  ///< rows whose averages are median-combined
  std::uint32_t s1 = 1;  ///< atomic estimators averaged per row

  std::size_t counters() const noexcept {
    return static_cast<std::size_t>(s0) * s1;
  }

  /// Shape with s0:s1 = 5:1 (the paper's setting) using at most
  /// `total_counters` counters.
  static AgmsShape for_budget(std::size_t total_counters);
};

/// Classic AGMS sketch. Every update touches all s0*s1 counters, matching
/// the cost profile the paper reports in Table 1.
class AgmsSketch {
 public:
  /// Two sketches can be combined (inner product / merge) only if they were
  /// built from the same `seed` (identical hash functions) and shape.
  AgmsSketch(AgmsShape shape, std::uint64_t seed);

  /// Adds `weight` copies of `key` (negative weight = deletion). The
  /// per-key reference that update_batch() is tested against.
  void update(std::uint64_t key, std::int64_t weight = 1);

  /// The production lane: adds `weight` copies of every key in `keys`, as
  /// plain loops (no SIMD kernel). Counter updates are integer additions,
  /// so reordering them is exact: the batch path hashes all keys first
  /// (shared key powers into a scratch buffer), then sweeps the counter
  /// grid once, accumulating each counter's total sign in a register.
  /// State after the call is bit-identical to calling update() per key.
  void update_batch(std::span<const std::uint64_t> keys,
                    std::int64_t weight = 1);

  /// Unbiased join-size estimate sum_v f(v)*g(v): mean within rows, median
  /// across rows. Shapes and seeds must match. Uses f's preallocated
  /// scratch — sketches are per-node state, not shared across threads.
  static double estimate_join(const AgmsSketch& f, const AgmsSketch& g);

  /// Self-join size (second frequency moment F2) estimate.
  double estimate_self_join() const { return estimate_join(*this, *this); }

  /// Adds another sketch built with the same seed/shape (stream union).
  void merge(const AgmsSketch& other);

  const AgmsShape& shape() const noexcept { return shape_; }
  std::uint64_t seed() const noexcept { return seed_; }
  /// Wire size: one i64 per counter.
  std::size_t wire_bytes() const noexcept { return counters_.size() * 8; }

  void serialize(common::BufferWriter& out) const;
  /// Reconstructs a sketch from the wire form; hash functions are re-derived
  /// from the embedded seed.
  static common::Result<AgmsSketch> deserialize(common::BufferReader& in);

  const std::vector<std::int64_t>& counters() const noexcept { return counters_; }

  /// Replaces the counter grid (wire decoding); size must match the shape.
  void set_counters(std::vector<std::int64_t> counters);

 private:
  AgmsShape shape_;
  std::uint64_t seed_;
  std::vector<FourWiseHash> xi_;         // one per (row, column)
  std::vector<std::int64_t> counters_;   // row-major s0 x s1
  std::vector<KeyPowers> powers_scratch_;   // batch pass 1: key powers
  mutable std::vector<double> estimate_scratch_; // row means, reused
};

/// Fast-AGMS: per row, the key selects one bucket (2-wise hash) and adds its
/// +/-1 sign. Update cost O(s0) instead of O(s0*s1) at equal space.
class FastAgmsSketch {
 public:
  /// @param rows    number of independent rows (median-combined)
  /// @param buckets counters per row
  FastAgmsSketch(std::uint32_t rows, std::uint32_t buckets, std::uint64_t seed);

  void update(std::uint64_t key, std::int64_t weight = 1);

  /// Join-size estimate: per-row inner product, median across rows. Uses
  /// f's preallocated scratch — sketches are per-node, not shared.
  static double estimate_join(const FastAgmsSketch& f, const FastAgmsSketch& g);

  double estimate_self_join() const { return estimate_join(*this, *this); }

  std::uint32_t rows() const noexcept { return rows_; }
  std::uint32_t buckets() const noexcept { return buckets_; }
  std::size_t wire_bytes() const noexcept { return counters_.size() * 8; }

  const std::vector<std::int64_t>& counters() const noexcept { return counters_; }

 private:
  std::uint32_t rows_;
  std::uint32_t buckets_;
  std::uint64_t seed_;
  std::vector<FourWiseHash> bucket_hash_;  // one per row
  std::vector<FourWiseHash> sign_hash_;    // one per row
  std::vector<std::int64_t> counters_;     // row-major rows x buckets
  mutable std::vector<double> estimate_scratch_; // row products, reused
};

/// Median of a small vector (copies; intended for s0-sized inputs).
double median(std::vector<double> values);

/// Median computed in place over caller-owned storage (no allocation).
double median_in_place(std::span<double> values);

}  // namespace dsjoin::sketch
