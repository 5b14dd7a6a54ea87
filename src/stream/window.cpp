#include "dsjoin/stream/window.hpp"

#include <algorithm>
#include <cassert>

#include "dsjoin/common/simd.hpp"

namespace dsjoin::stream {

void TupleStore::Chunk::grow() {
  const std::size_t new_cap = cap == 0 ? kFirstCap : std::min(2 * cap, kChunkCap);
  Chunk next;
  next.block = std::make_unique_for_overwrite<std::byte[]>(
      new_cap * (sizeof(std::int64_t) + sizeof(double) +
                 sizeof(std::uint64_t) + sizeof(net::NodeId)));
  next.cap = new_cap;
  std::copy_n(keys(), count, next.keys());
  std::copy_n(ts(), count, next.ts());
  std::copy_n(ids(), count, next.ids());
  std::copy_n(origins(), count, next.origins());
  block = std::move(next.block);
  cap = new_cap;
}

void TupleStore::insert(const Tuple& tuple) {
  Partition& part = parts_[part_of(tuple.key)];
  if (part.chunks.empty() || part.chunks.back().count == kChunkCap) {
    part.chunks.emplace_back();
  }
  Chunk& c = part.chunks.back();
  if (c.count == c.cap) c.grow();
  const std::size_t at = c.count++;
  if (at > 0 && tuple.timestamp < c.ts()[at - 1]) c.sorted = false;
  c.keys()[at] = tuple.key;
  c.ts()[at] = tuple.timestamp;
  c.ids()[at] = tuple.id;
  c.origins()[at] = tuple.origin;
  if (tuple.timestamp < c.live_min) c.live_min = tuple.timestamp;
  if (tuple.timestamp > c.max_ts) c.max_ts = tuple.timestamp;
  ++size_;
}

void TupleStore::evict_before(double min_timestamp) {
  for (Partition& part : parts_) {
    bool any_empty = false;
    for (Chunk& c : part.chunks) {
      // live_min is exact over the live region, so a chunk whose oldest
      // live tuple already meets the horizon is skipped without touching
      // its columns — the steady-state cost of eviction is one double
      // compare per chunk, not per tuple.
      if (c.live() == 0 || c.live_min >= min_timestamp) {
        any_empty |= c.live() == 0;
        continue;
      }
      if (c.sorted) {
        // Dead tuples form a prefix: advance the cursor, never move data.
        const double* ts = c.ts();
        std::size_t b = c.live_begin;
        const std::size_t n = c.count;
        while (b < n && ts[b] < min_timestamp) ++b;
        size_ -= b - c.live_begin;
        c.live_begin = b;
        c.live_min = b < n ? ts[b] : std::numeric_limits<double>::infinity();
      } else {
        // A late arrival broke the sort: compact the live region in place,
        // preserving arrival order (observable via collect_matches), and
        // recompute the exact bounds while the data streams through.
        std::int64_t* keys = c.keys();
        double* ts = c.ts();
        std::uint64_t* ids = c.ids();
        net::NodeId* origins = c.origins();
        std::size_t w = 0;
        double live_min = std::numeric_limits<double>::infinity();
        double max_ts = -std::numeric_limits<double>::infinity();
        double prev = -std::numeric_limits<double>::infinity();
        bool sorted = true;
        for (std::size_t r = c.live_begin; r < c.count; ++r) {
          if (ts[r] < min_timestamp) continue;
          keys[w] = keys[r];
          ts[w] = ts[r];
          ids[w] = ids[r];
          origins[w] = origins[r];
          if (ts[w] < live_min) live_min = ts[w];
          if (ts[w] > max_ts) max_ts = ts[w];
          if (ts[w] < prev) sorted = false;
          prev = ts[w];
          ++w;
        }
        size_ -= c.live() - w;
        c.count = w;
        c.live_begin = 0;
        c.live_min = live_min;
        c.max_ts = max_ts;
        c.sorted = sorted;
      }
      any_empty |= c.live() == 0;
    }
    if (any_empty) {
      std::erase_if(part.chunks, [](const Chunk& c) { return c.live() == 0; });
    }
  }
}

void TupleStore::collect_matches(std::int64_t key, double center,
                                 double half_width,
                                 std::vector<StoredTuple>& out) const {
  const double lo = center - half_width;
  const double hi = center + half_width;
  const Partition& part = parts_[part_of(key)];
  std::uint32_t idx[kChunkCap];
  for (const Chunk& c : part.chunks) {
    if (c.live() == 0 || c.max_ts < lo || c.live_min > hi) continue;
    const double* ts = c.ts();
    const std::uint64_t* ids = c.ids();
    const net::NodeId* origins = c.origins();
    const std::size_t m = common::simd::match_collect_scan(
        c.keys() + c.live_begin, ts + c.live_begin, c.live(), key, lo, hi,
        idx);
    for (std::size_t k = 0; k < m; ++k) {
      const std::size_t j = c.live_begin + idx[k];
      out.push_back(StoredTuple{ids[j], ts[j], origins[j]});
    }
  }
}

CountWindow::CountWindow(std::size_t capacity) : capacity_(capacity) {
  assert(capacity >= 1);
}

std::optional<std::int64_t> CountWindow::insert(std::int64_t key) {
  if (ring_.size() < capacity_) {
    ring_.push_back(key);
    return std::nullopt;
  }
  const std::int64_t evicted = ring_[head_];
  ring_[head_] = key;
  if (++head_ == capacity_) head_ = 0;
  return evicted;
}

std::vector<ResultPair> reference_join(const std::vector<Tuple>& r_tuples,
                                       const std::vector<Tuple>& s_tuples,
                                       double half_width) {
  std::vector<ResultPair> out;
  for (const Tuple& r : r_tuples) {
    for (const Tuple& s : s_tuples) {
      if (r.key == s.key &&
          s.timestamp >= r.timestamp - half_width &&
          s.timestamp <= r.timestamp + half_width) {
        out.push_back(ResultPair{r.id, s.id});
      }
    }
  }
  return out;
}

}  // namespace dsjoin::stream
