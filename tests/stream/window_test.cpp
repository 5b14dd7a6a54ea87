#include "dsjoin/stream/window.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "dsjoin/common/rng.hpp"

namespace dsjoin::stream {
namespace {

Tuple make_tuple(std::uint64_t id, std::int64_t key, double ts,
                 StreamSide side = StreamSide::kR, net::NodeId origin = 0) {
  Tuple t;
  t.id = id;
  t.key = key;
  t.timestamp = ts;
  t.side = side;
  t.origin = origin;
  return t;
}

// Number of stored tuples collect_matches finds for (key, center +/- hw).
std::size_t collected(const TupleStore& store, std::int64_t key, double center,
                      double half_width) {
  std::vector<StoredTuple> matches;
  store.collect_matches(key, center, half_width, matches);
  return matches.size();
}

TEST(TupleStore, CountsMatchesWithinWindow) {
  TupleStore store;
  store.insert(make_tuple(1, 5, 10.0));
  store.insert(make_tuple(2, 5, 12.0));
  store.insert(make_tuple(3, 5, 30.0));
  store.insert(make_tuple(4, 7, 11.0));
  EXPECT_EQ(collected(store, 5, 11.0, 2.0), 2u);  // ids 1, 2
  EXPECT_EQ(collected(store, 5, 11.0, 100.0), 3u);
  EXPECT_EQ(collected(store, 7, 11.0, 0.5), 1u);
  EXPECT_EQ(collected(store, 9, 11.0, 100.0), 0u);
  EXPECT_EQ(store.size(), 4u);
}

TEST(TupleStore, WindowBoundariesAreInclusive) {
  TupleStore store;
  store.insert(make_tuple(1, 5, 10.0));
  EXPECT_EQ(collected(store, 5, 12.0, 2.0), 1u);  // exactly at the edge
  EXPECT_EQ(collected(store, 5, 12.0, 1.999), 0u);
}

TEST(TupleStore, ForEachMatchVisitsAll) {
  TupleStore store;
  store.insert(make_tuple(1, 5, 10.0, StreamSide::kR, 3));
  store.insert(make_tuple(2, 5, 11.0, StreamSide::kR, 4));
  std::vector<StoredTuple> matches;
  store.collect_matches(5, 10.5, 1.0, matches);
  std::vector<std::uint64_t> ids;
  std::vector<net::NodeId> origins;
  for (const StoredTuple& st : matches) {
    ids.push_back(st.id);
    origins.push_back(st.origin);
  }
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, (std::vector<std::uint64_t>{1, 2}));
  std::sort(origins.begin(), origins.end());
  EXPECT_EQ(origins, (std::vector<net::NodeId>{3, 4}));
}

TEST(TupleStore, EvictionDropsOldTuples) {
  TupleStore store;
  for (std::uint64_t i = 0; i < 100; ++i) {
    store.insert(make_tuple(i, 1, static_cast<double>(i)));
  }
  store.evict_before(50.0);
  EXPECT_EQ(store.size(), 50u);
  EXPECT_EQ(collected(store, 1, 50.0, 1000.0), 50u);
  // timestamp 50 itself survives (strictly-before eviction)
  EXPECT_EQ(collected(store, 1, 50.0, 0.0), 1u);
}

TEST(TupleStore, EvictionHandlesOutOfOrderInserts) {
  TupleStore store;
  common::Xoshiro256 rng(1);
  // Insert 500 tuples with shuffled timestamps.
  std::vector<double> times;
  for (int i = 0; i < 500; ++i) times.push_back(static_cast<double>(i));
  for (int i = 499; i > 0; --i) {
    std::swap(times[static_cast<std::size_t>(i)],
              times[rng.next_below(static_cast<std::uint64_t>(i + 1))]);
  }
  for (int i = 0; i < 500; ++i) {
    store.insert(make_tuple(static_cast<std::uint64_t>(i), 9, times[static_cast<std::size_t>(i)]));
  }
  store.evict_before(250.0);
  EXPECT_EQ(store.size(), 250u);
  EXPECT_EQ(collected(store, 9, 0.0, 1e9), 250u);
  EXPECT_EQ(collected(store, 9, 100.0, 10.0), 0u);  // all below 250 gone
}

TEST(TupleStore, EvictionRemovesEmptyKeys) {
  TupleStore store;
  store.insert(make_tuple(1, 5, 1.0));
  store.evict_before(10.0);
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(collected(store, 5, 1.0, 10.0), 0u);
}

TEST(CountWindow, EvictsOldestWhenFull) {
  CountWindow window(3);
  EXPECT_FALSE(window.insert(10).has_value());
  EXPECT_FALSE(window.insert(20).has_value());
  EXPECT_FALSE(window.insert(10).has_value());
  EXPECT_TRUE(window.full());
  // Each insert into the full window displaces the oldest key, in order.
  EXPECT_EQ(window.insert(30), std::optional<std::int64_t>(10));
  EXPECT_EQ(window.insert(40), std::optional<std::int64_t>(20));
  EXPECT_EQ(window.insert(50), std::optional<std::int64_t>(10));
  EXPECT_EQ(window.insert(60), std::optional<std::int64_t>(30));
  EXPECT_EQ(window.size(), 3u);
}

TEST(ReferenceJoin, MatchesBruteForceSemantics) {
  std::vector<Tuple> r{make_tuple(1, 5, 10.0, StreamSide::kR),
                       make_tuple(2, 5, 20.0, StreamSide::kR),
                       make_tuple(3, 6, 10.0, StreamSide::kR)};
  std::vector<Tuple> s{make_tuple(10, 5, 11.0, StreamSide::kS),
                       make_tuple(11, 6, 100.0, StreamSide::kS)};
  const auto pairs = reference_join(r, s, 5.0);
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0].r_id, 1u);
  EXPECT_EQ(pairs[0].s_id, 10u);
}

TEST(TupleStoreVsReferenceJoin, AgreeOnRandomData) {
  // Property: streaming matches through TupleStore equals the brute-force
  // reference join, for every tuple as probe.
  common::Xoshiro256 rng(3);
  std::vector<Tuple> r_tuples, s_tuples;
  for (std::uint64_t i = 0; i < 300; ++i) {
    r_tuples.push_back(make_tuple(i, rng.next_in(1, 20),
                                  rng.next_double_in(0, 100), StreamSide::kR));
    s_tuples.push_back(make_tuple(1000 + i, rng.next_in(1, 20),
                                  rng.next_double_in(0, 100), StreamSide::kS));
  }
  const double half = 7.0;
  const auto expected = reference_join(r_tuples, s_tuples, half);

  TupleStore s_store;
  for (const auto& s : s_tuples) s_store.insert(s);
  std::size_t streamed = 0;
  for (const auto& r : r_tuples) {
    streamed += collected(s_store, r.key, r.timestamp, half);
  }
  EXPECT_EQ(streamed, expected.size());
}

}  // namespace
}  // namespace dsjoin::stream
