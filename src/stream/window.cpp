#include "dsjoin/stream/window.hpp"

#include <algorithm>
#include <cassert>

#include "dsjoin/common/simd.hpp"

namespace dsjoin::stream {

namespace {

// First insert into a bucket reserves a few slots so the 1 -> 2 -> 4
// growth reallocations never happen for the typical short bucket.
void bucket_push(std::vector<StoredTuple>& bucket, const Tuple& tuple) {
  if (bucket.capacity() == 0) bucket.reserve(4);
  bucket.push_back(StoredTuple{tuple.id, tuple.timestamp, tuple.origin});
}

}  // namespace

void TupleStore::insert(const Tuple& tuple) {
  Partition& part = parts_[part_of(tuple.key)];
  if (part.chunks.empty() || part.chunks.back()->n() == kChunkCap) {
    part.chunks.push_back(std::make_unique<Chunk>());
  }
  Chunk& c = *part.chunks.back();
  if (!c.ts.empty() && tuple.timestamp < c.ts.back()) c.sorted = false;
  c.keys.push_back(tuple.key);
  c.ts.push_back(tuple.timestamp);
  c.ids.push_back(tuple.id);
  c.origins.push_back(tuple.origin);
  if (tuple.timestamp < c.live_min) c.live_min = tuple.timestamp;
  if (tuple.timestamp > c.max_ts) c.max_ts = tuple.timestamp;
  ++size_;
}

void TupleStore::evict_before(double min_timestamp) {
  for (Partition& part : parts_) {
    bool any_empty = false;
    for (auto& chunk : part.chunks) {
      Chunk& c = *chunk;
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
        std::size_t b = c.live_begin;
        const std::size_t n = c.n();
        while (b < n && c.ts[b] < min_timestamp) ++b;
        size_ -= b - c.live_begin;
        c.live_begin = b;
        c.live_min =
            b < n ? c.ts[b] : std::numeric_limits<double>::infinity();
      } else {
        // A late arrival broke the sort: compact the live region in place,
        // preserving arrival order (observable via collect_matches), and
        // recompute the exact bounds while the data streams through.
        std::size_t w = 0;
        double live_min = std::numeric_limits<double>::infinity();
        double max_ts = -std::numeric_limits<double>::infinity();
        double prev = -std::numeric_limits<double>::infinity();
        bool sorted = true;
        for (std::size_t r = c.live_begin; r < c.n(); ++r) {
          if (c.ts[r] < min_timestamp) continue;
          c.keys[w] = c.keys[r];
          c.ts[w] = c.ts[r];
          c.ids[w] = c.ids[r];
          c.origins[w] = c.origins[r];
          if (c.ts[w] < live_min) live_min = c.ts[w];
          if (c.ts[w] > max_ts) max_ts = c.ts[w];
          if (c.ts[w] < prev) sorted = false;
          prev = c.ts[w];
          ++w;
        }
        size_ -= c.live() - w;
        c.keys.resize(w);
        c.ts.resize(w);
        c.ids.resize(w);
        c.origins.resize(w);
        c.live_begin = 0;
        c.live_min = live_min;
        c.max_ts = max_ts;
        c.sorted = sorted;
      }
      any_empty |= c.live() == 0;
    }
    if (any_empty) {
      std::erase_if(part.chunks, [](const std::unique_ptr<Chunk>& c) {
        return c->live() == 0;
      });
    }
  }
}

std::uint64_t TupleStore::count_matches(std::int64_t key, double center,
                                        double half_width) const {
  const double lo = center - half_width;
  const double hi = center + half_width;
  const Partition& part = parts_[part_of(key)];
  std::uint64_t n = 0;
  for (const auto& chunk : part.chunks) {
    const Chunk& c = *chunk;
    if (c.live() == 0 || c.max_ts < lo || c.live_min > hi) continue;
    n += common::simd::match_count_scan(c.keys.data() + c.live_begin,
                                        c.ts.data() + c.live_begin, c.live(),
                                        key, lo, hi);
  }
  return n;
}

void TupleStore::collect_matches(std::int64_t key, double center,
                                 double half_width,
                                 std::vector<StoredTuple>& out) const {
  const double lo = center - half_width;
  const double hi = center + half_width;
  const Partition& part = parts_[part_of(key)];
  std::uint32_t idx[kChunkCap];
  for (const auto& chunk : part.chunks) {
    const Chunk& c = *chunk;
    if (c.live() == 0 || c.max_ts < lo || c.live_min > hi) continue;
    const std::size_t m = common::simd::match_collect_scan(
        c.keys.data() + c.live_begin, c.ts.data() + c.live_begin, c.live(),
        key, lo, hi, idx);
    for (std::size_t k = 0; k < m; ++k) {
      const std::size_t j = c.live_begin + idx[k];
      out.push_back(StoredTuple{c.ids[j], c.ts[j], c.origins[j]});
    }
  }
}

CountWindow::CountWindow(std::size_t capacity) : capacity_(capacity) {
  assert(capacity >= 1);
}

CountWindow::Evicted CountWindow::insert(const Tuple& tuple) {
  Evicted evicted;
  if (ring_.size() == capacity_) {
    evicted.valid = true;
    evicted.tuple = ring_.front();
    auto it = key_counts_.find(evicted.tuple.key);
    assert(it != key_counts_.end());
    if (--it->second == 0) key_counts_.erase(it);
    ring_.pop_front();
  }
  ring_.push_back(tuple);
  ++key_counts_[tuple.key];
  return evicted;
}

void CountWindow::insert_batch(std::span<const Tuple> tuples,
                               std::vector<Tuple>& evicted) {
  std::size_t i = 0;
  // While the window still has room for the whole remaining batch, no
  // insert can evict: skip the capacity check and front-eviction
  // bookkeeping per tuple.
  const std::size_t room = capacity_ - ring_.size();
  const std::size_t free_fill = std::min(room, tuples.size());
  for (; i < free_fill; ++i) {
    ring_.push_back(tuples[i]);
    ++key_counts_[tuples[i].key];
  }
  for (; i < tuples.size(); ++i) {
    Evicted e = insert(tuples[i]);
    if (e.valid) evicted.push_back(std::move(e.tuple));
  }
}

std::uint64_t CountWindow::count_matches(std::int64_t key) const {
  const auto it = key_counts_.find(key);
  return it == key_counts_.end() ? 0 : it->second;
}

LandmarkWindow::LandmarkWindow(double landmark_time) : landmark_(landmark_time) {}

bool LandmarkWindow::insert(const Tuple& tuple) {
  if (tuple.timestamp < landmark_) return false;
  bucket_push(by_key_[tuple.key], tuple);
  ++size_;
  return true;
}

void LandmarkWindow::reset_landmark(double landmark_time) {
  landmark_ = landmark_time;
  for (auto it = by_key_.begin(); it != by_key_.end();) {
    auto& bucket = it->second;
    const auto before = bucket.size();
    std::erase_if(bucket, [&](const StoredTuple& st) {
      return st.timestamp < landmark_;
    });
    size_ -= before - bucket.size();
    it = bucket.empty() ? by_key_.erase(it) : std::next(it);
  }
}

std::uint64_t LandmarkWindow::count_matches(std::int64_t key) const {
  const auto it = by_key_.find(key);
  return it == by_key_.end() ? 0 : it->second.size();
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
