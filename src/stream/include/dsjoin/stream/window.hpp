// Sliding-window stores.
//
// Section 2 of the paper defines the window in terms of time duration,
// number of tuples, or a landmark, and notes the approach is agnostic to the
// choice. Two are implemented, one per job:
//
//  * TupleStore   — timestamp-retained, key-indexed store used by the
//                   distributed join (time-duration semantics);
//  * CountWindow  — ring of the last W keys: the window the BLOOM, SKCH
//                   and SPEC summaries see.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
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
/// partitions; each partition is a list of SoA chunks (key / timestamp /
/// id / origin columns in one block, appended in arrival order). Probes scan
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

  /// Appends every stored tuple with the given key and timestamp within
  /// [center - half_width, center + half_width] to `out`, in per-key
  /// insertion order.
  void collect_matches(std::int64_t key, double center, double half_width,
                       std::vector<StoredTuple>& out) const;

  std::size_t size() const noexcept { return size_; }

 private:
  static constexpr std::size_t kPartitions = 64;
  static constexpr std::size_t kChunkCap = 256;

  static constexpr std::size_t kFirstCap = 4;

  // One partition segment: at most kChunkCap tuples in arrival order, as
  // four columns of `cap` slots in one heap block (keys | ts | ids |
  // origins). The block starts at kFirstCap slots and doubles when full
  // (no up-front reserve — nodes hold many stores and most stay small), so
  // a chunk costs one allocation per doubling, not four. `live_begin` is
  // the evicted prefix length while the chunk is sorted; `live_min` /
  // `max_ts` bound the live timestamps for probe pruning (`max_ts` may go
  // stale-high after prefix eviction — conservative, never wrong); `sorted`
  // records whether appends stayed non-decreasing.
  struct Chunk {
    std::unique_ptr<std::byte[]> block;
    std::size_t count = 0;
    std::size_t cap = 0;
    std::size_t live_begin = 0;
    double live_min = std::numeric_limits<double>::infinity();
    double max_ts = -std::numeric_limits<double>::infinity();
    bool sorted = true;

    std::int64_t* keys() const noexcept {
      return reinterpret_cast<std::int64_t*>(block.get());
    }
    double* ts() const noexcept {
      return reinterpret_cast<double*>(block.get() + cap * 8);
    }
    std::uint64_t* ids() const noexcept {
      return reinterpret_cast<std::uint64_t*>(block.get() + cap * 16);
    }
    net::NodeId* origins() const noexcept {
      return reinterpret_cast<net::NodeId*>(block.get() + cap * 24);
    }
    std::size_t live() const noexcept { return count - live_begin; }
    /// Doubles the block (or makes the first one), keeping the columns.
    void grow();
  };

  // Chunks in creation order. Appends go to the back chunk; a probe scans
  // the chunk list front to back, which restricted to one key is exactly
  // that key's insertion order (the order the old per-key buckets exposed).
  struct Partition {
    std::vector<Chunk> chunks;
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

/// Ring of the last W keys (count-based window). The summaries read only
/// which key falls out, so that is all the window keeps.
class CountWindow {
 public:
  explicit CountWindow(std::size_t capacity);

  /// Appends a key; once the window is full, returns the oldest key, which
  /// the new one displaces (the caller unwinds its summary with it).
  std::optional<std::int64_t> insert(std::int64_t key);

  std::size_t size() const noexcept { return ring_.size(); }
  bool full() const noexcept { return ring_.size() == capacity_; }

 private:
  std::size_t capacity_;
  // Grows to capacity_ on first fill (most windows never fill, and a node
  // holds several), then wraps: head_ is the oldest slot.
  std::vector<std::int64_t> ring_;
  std::size_t head_ = 0;
};

/// Brute-force reference join: all pairs (r, s) with equal keys and
/// |r.timestamp - s.timestamp| <= half_width. Ground truth for tests.
std::vector<ResultPair> reference_join(const std::vector<Tuple>& r_tuples,
                                       const std::vector<Tuple>& s_tuples,
                                       double half_width);

}  // namespace dsjoin::stream
