#include "dsjoin/core/oracle.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "dsjoin/common/rng.hpp"
#include "dsjoin/stream/window.hpp"

namespace dsjoin::core {
namespace {

stream::Tuple make_tuple(std::uint64_t id, std::int64_t key, double ts,
                         stream::StreamSide side) {
  stream::Tuple t;
  t.id = id;
  t.key = key;
  t.timestamp = ts;
  t.side = side;
  return t;
}

TEST(ExactJoinOracle, EmptyIsZero) {
  ExactJoinOracle oracle(5.0);
  EXPECT_EQ(oracle.total_pairs(), 0u);
}

TEST(ExactJoinOracle, CountsCoexistingEqualKeys) {
  ExactJoinOracle oracle(5.0);
  oracle.observe(make_tuple(1, 7, 0.0, stream::StreamSide::kR));
  oracle.observe(make_tuple(2, 7, 3.0, stream::StreamSide::kS));   // pairs with 1
  oracle.observe(make_tuple(3, 7, 10.0, stream::StreamSide::kS));  // too late for 1
  oracle.observe(make_tuple(4, 7, 12.0, stream::StreamSide::kR));  // pairs with 3
  EXPECT_EQ(oracle.total_pairs(), 2u);
}

TEST(ExactJoinOracle, SameSideTuplesNeverPair) {
  ExactJoinOracle oracle(100.0);
  for (std::uint64_t i = 0; i < 10; ++i) {
    oracle.observe(make_tuple(i, 1, static_cast<double>(i), stream::StreamSide::kR));
  }
  EXPECT_EQ(oracle.total_pairs(), 0u);
}

TEST(ExactJoinOracle, KeyMismatchNeverPairs) {
  ExactJoinOracle oracle(100.0);
  oracle.observe(make_tuple(1, 1, 0.0, stream::StreamSide::kR));
  oracle.observe(make_tuple(2, 2, 0.0, stream::StreamSide::kS));
  EXPECT_EQ(oracle.total_pairs(), 0u);
}

TEST(ExactJoinOracle, WindowEdgeIsInclusive) {
  ExactJoinOracle oracle(5.0);
  oracle.observe(make_tuple(1, 9, 0.0, stream::StreamSide::kR));
  oracle.observe(make_tuple(2, 9, 5.0, stream::StreamSide::kS));
  EXPECT_EQ(oracle.total_pairs(), 1u);
}

TEST(ExactJoinOracle, MatchesReferenceJoinOnRandomStream) {
  common::Xoshiro256 rng(11);
  const double half = 4.0;
  std::vector<stream::Tuple> r_tuples, s_tuples, all;
  double ts = 0.0;
  for (std::uint64_t i = 0; i < 2000; ++i) {
    ts += rng.next_exponential(10.0);
    auto t = make_tuple(i, rng.next_in(1, 25), ts,
                        rng.next_bool(0.5) ? stream::StreamSide::kR
                                           : stream::StreamSide::kS);
    (t.side == stream::StreamSide::kR ? r_tuples : s_tuples).push_back(t);
    all.push_back(t);
  }
  const auto expected = stream::reference_join(r_tuples, s_tuples, half).size();

  ExactJoinOracle oracle(half);
  for (const auto& t : all) oracle.observe(t);  // already in ts order
  EXPECT_EQ(oracle.total_pairs(), expected);
}

TEST(ExactJoinOracle, MatchesReferenceJoinWithTiesAndReentry) {
  // Timestamps on a 0.5 s grid: equal timestamps across sides and partners
  // exactly half_width apart are common. Six keys recur every few seconds,
  // longer than the narrow windows, and a rare 10 s gap outlasts every
  // window, so keys leave the live counts and re-enter them.
  common::Xoshiro256 rng(29);
  std::vector<stream::Tuple> r_tuples, s_tuples, all;
  double ts = 0.0;
  for (std::uint64_t i = 0; i < 3000; ++i) {
    const std::uint64_t roll = rng.next() % 64;
    ts += roll == 0 ? 10.0 : 0.5 * static_cast<double>(roll % 3);
    auto t = make_tuple(i, rng.next_in(1, 6), ts,
                        rng.next_bool(0.5) ? stream::StreamSide::kR
                                           : stream::StreamSide::kS);
    (t.side == stream::StreamSide::kR ? r_tuples : s_tuples).push_back(t);
    all.push_back(t);
  }
  for (const double half : {0.5, 1.0, 2.5}) {
    const auto expected =
        stream::reference_join(r_tuples, s_tuples, half).size();
    ExactJoinOracle oracle(half);
    for (const auto& t : all) oracle.observe(t);
    EXPECT_EQ(oracle.total_pairs(), expected) << "half_width=" << half;
  }
}

TEST(ExactJoinOracle, EvictionDoesNotLoseLivePairs) {
  // Long stream with internal eviction; equal tuples recur far apart.
  ExactJoinOracle oracle(1.0);
  double ts = 0.0;
  std::uint64_t expected = 0;
  for (std::uint64_t i = 0; i < 5000; ++i) {
    ts += 0.6;
    oracle.observe(make_tuple(2 * i, 1, ts, stream::StreamSide::kR));
    oracle.observe(make_tuple(2 * i + 1, 1, ts + 0.5, stream::StreamSide::kS));
    // Each R pairs with this S (dt 0.5) and the previous S (dt 0.1... no:
    // previous S is 0.6-0.5 = 0.1 earlier); each S pairs with this R and
    // the next R (dt 0.1). Verified against the closed form below.
  }
  // Closed form: R_i at t=0.6i, S_i at 0.6i+0.5. Pairs (R_i, S_i): dt=0.5.
  // (R_{i+1}, S_i): dt=0.1. (R_{i+2}, S_i): dt=0.7. (R_i, S_{i+1}): dt=1.1, out.
  expected = 5000 + 4999 + 4998;
  EXPECT_EQ(oracle.total_pairs(), expected);
}

}  // namespace
}  // namespace dsjoin::core
