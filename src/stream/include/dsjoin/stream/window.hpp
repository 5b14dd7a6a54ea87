// Sliding-window stores.
//
// Section 2 of the paper defines the window in terms of time duration,
// number of tuples, or a landmark, and notes the approach is agnostic to the
// choice. All three policies are implemented:
//
//  * TupleStore      — timestamp-retained, key-indexed store used by the
//                      distributed join (time-duration semantics with a
//                      retention margin so delayed arrivals still match);
//  * CountWindow     — last-W tuples ring (also the window the DFT sees);
//  * LandmarkWindow  — everything since the most recent landmark.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "dsjoin/stream/tuple.hpp"

namespace dsjoin::stream {

/// Minimal record retained per stored tuple (the key is the index key).
struct StoredTuple {
  std::uint64_t id;
  double timestamp;
  net::NodeId origin;
};

/// Hash-partitioned, columnar multiset of tuples with timestamp-based
/// eviction (DESIGN.md section 16). Keys hash to one of kPartitions
/// partitions; each partition is a list of SoA chunks (parallel key /
/// timestamp / id / origin columns, appended in arrival order). Probes scan
/// a partition's chunk columns linearly with the common::simd match-scan
/// kernels; eviction advances a dead-prefix cursor on time-sorted chunks
/// (the common case) and compacts a chunk in place — order-preserving —
/// only when a late arrival broke its sort.
///
/// Observable semantics are identical to the PR 1 per-key bucket store:
/// inserts may arrive out of timestamp order, evict_before(t) drops exactly
/// the tuples with timestamp < t present at the call, and collect_matches
/// appends matches in per-key insertion order.
class TupleStore {
 public:
  TupleStore() = default;
  TupleStore(TupleStore&&) = default;
  TupleStore& operator=(TupleStore&&) = default;

  void insert(const Tuple& tuple);

  /// Drops every tuple with timestamp < min_timestamp.
  void evict_before(double min_timestamp);

  /// Number of stored tuples with the given key and timestamp within
  /// [center - half_width, center + half_width].
  std::uint64_t count_matches(std::int64_t key, double center,
                              double half_width) const;

  /// Appends every match to `out` (same predicate as count_matches), in
  /// per-key insertion order.
  void collect_matches(std::int64_t key, double center, double half_width,
                       std::vector<StoredTuple>& out) const;

  std::size_t size() const noexcept { return size_; }

 private:
  static constexpr std::size_t kPartitions = 64;
  static constexpr std::size_t kChunkCap = 256;

  // One partition segment: parallel columns over at most kChunkCap tuples
  // in arrival order. Columns grow naturally (no up-front reserve — nodes
  // hold many stores and most stay small). `live_begin` is the evicted
  // prefix length while the chunk is sorted; `live_min` / `max_ts` bound
  // the live timestamps for probe pruning (`max_ts` may go stale-high
  // after prefix eviction — conservative, never wrong); `sorted` records
  // whether appends stayed non-decreasing.
  struct Chunk {
    std::vector<std::int64_t> keys;
    std::vector<double> ts;
    std::vector<std::uint64_t> ids;
    std::vector<net::NodeId> origins;
    std::size_t live_begin = 0;
    double live_min = std::numeric_limits<double>::infinity();
    double max_ts = -std::numeric_limits<double>::infinity();
    bool sorted = true;

    std::size_t n() const noexcept { return keys.size(); }
    std::size_t live() const noexcept { return keys.size() - live_begin; }
  };

  // Chunks in creation order. Appends go to the back chunk; a probe scans
  // the chunk list front to back, which restricted to one key is exactly
  // that key's insertion order (the order the old per-key buckets exposed).
  struct Partition {
    std::vector<std::unique_ptr<Chunk>> chunks;
  };

  // Fibonacci multiplicative hash; top bits select the partition so nearby
  // keys spread instead of clustering in one chunk list.
  static std::size_t part_of(std::int64_t key) noexcept {
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(key) * 0x9E3779B97F4A7C15ull) >> 58);
  }

  std::array<Partition, kPartitions> parts_;
  std::size_t size_ = 0;
};

/// Ring of the last W tuples (count-based window).
class CountWindow {
 public:
  explicit CountWindow(std::size_t capacity);

  /// Inserts a tuple; returns the evicted tuple's key if the window was
  /// full (the caller unwinds index structures with it).
  struct Evicted {
    bool valid = false;
    Tuple tuple;
  };
  Evicted insert(const Tuple& tuple);

  /// Inserts every tuple in order, appending each eviction (in eviction
  /// order) to `evicted`. Final window and index state is identical to
  /// calling insert() per tuple; batches that cannot evict skip the
  /// per-tuple capacity bookkeeping entirely.
  void insert_batch(std::span<const Tuple> tuples, std::vector<Tuple>& evicted);

  std::uint64_t count_matches(std::int64_t key) const;
  std::size_t size() const noexcept { return ring_.size(); }
  std::size_t capacity() const noexcept { return capacity_; }
  bool full() const noexcept { return ring_.size() == capacity_; }

 private:
  std::size_t capacity_;
  std::deque<Tuple> ring_;
  std::unordered_map<std::int64_t, std::uint64_t> key_counts_;
};

/// Everything since the last landmark (e.g. "since market open").
class LandmarkWindow {
 public:
  explicit LandmarkWindow(double landmark_time = 0.0);

  /// Inserts if the tuple is at or after the landmark; pre-landmark tuples
  /// are ignored and false is returned.
  bool insert(const Tuple& tuple);

  /// Moves the landmark forward, discarding older tuples.
  void reset_landmark(double landmark_time);

  std::uint64_t count_matches(std::int64_t key) const;
  std::size_t size() const noexcept { return size_; }
  double landmark() const noexcept { return landmark_; }

 private:
  double landmark_;
  std::unordered_map<std::int64_t, std::vector<StoredTuple>> by_key_;
  std::size_t size_ = 0;
};

/// Brute-force reference join: all pairs (r, s) with equal keys and
/// |r.timestamp - s.timestamp| <= half_width. Ground truth for tests.
std::vector<ResultPair> reference_join(const std::vector<Tuple>& r_tuples,
                                       const std::vector<Tuple>& s_tuples,
                                       double half_width);

}  // namespace dsjoin::stream
