#include "dsjoin/core/schedule.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <unordered_map>

namespace dsjoin::core {
namespace {

core::SystemConfig small_config() {
  core::SystemConfig config;
  config.nodes = 4;
  config.seed = 7;
  config.workload = "ZIPF";
  config.tuples_per_node = 64;
  config.arrivals_per_second = 50.0;
  config.queries.front().join_half_width_s = 2.0;
  return config;
}

// Brute-force |Psi| over the full cross product — O(n^2) ground truth the
// schedule's oracle-based exact_pairs() must match.
std::uint64_t brute_force_pairs(const ArrivalSchedule& schedule,
                                double half_width) {
  std::uint64_t count = 0;
  for (const auto& r : schedule.tuples) {
    if (r.side != stream::StreamSide::kR) continue;
    for (const auto& s : schedule.tuples) {
      if (s.side != stream::StreamSide::kS) continue;
      if (r.key == s.key &&
          std::abs(r.timestamp - s.timestamp) <= half_width) {
        ++count;
      }
    }
  }
  return count;
}

TEST(ArrivalSchedule, BuildIsDeterministic) {
  const auto config = small_config();
  const auto a = ArrivalSchedule::build(config);
  const auto b = ArrivalSchedule::build(config);
  ASSERT_EQ(a.tuples.size(), b.tuples.size());
  EXPECT_DOUBLE_EQ(a.makespan_s, b.makespan_s);
  for (std::size_t i = 0; i < a.tuples.size(); ++i) {
    EXPECT_EQ(a.tuples[i].id, b.tuples[i].id);
    EXPECT_EQ(a.tuples[i].key, b.tuples[i].key);
    EXPECT_DOUBLE_EQ(a.tuples[i].timestamp, b.tuples[i].timestamp);
    EXPECT_EQ(a.tuples[i].origin, b.tuples[i].origin);
    EXPECT_EQ(a.tuples[i].side, b.tuples[i].side);
  }
}

TEST(ArrivalSchedule, SeedChangesTheSchedule) {
  auto config = small_config();
  const auto a = ArrivalSchedule::build(config);
  config.seed = 8;
  const auto b = ArrivalSchedule::build(config);
  ASSERT_EQ(a.tuples.size(), b.tuples.size());
  bool any_difference = false;
  for (std::size_t i = 0; i < a.tuples.size() && !any_difference; ++i) {
    any_difference = a.tuples[i].key != b.tuples[i].key ||
                     a.tuples[i].timestamp != b.tuples[i].timestamp;
  }
  EXPECT_TRUE(any_difference);
}

TEST(ArrivalSchedule, HasExpectedShape) {
  const auto config = small_config();
  const auto schedule = ArrivalSchedule::build(config);
  // Every node contributes tuples_per_node arrivals per stream side.
  ASSERT_EQ(schedule.tuples.size(),
            std::size_t{2} * config.nodes * config.tuples_per_node);

  // Timestamps nondecreasing, ids dense from 1 in merge order.
  std::uint64_t expected_id = 1;
  double last_ts = 0.0;
  for (const auto& tuple : schedule.tuples) {
    EXPECT_EQ(tuple.id, expected_id++);
    EXPECT_GE(tuple.timestamp, last_ts);
    last_ts = tuple.timestamp;
    EXPECT_LT(tuple.origin, config.nodes);
  }
  EXPECT_DOUBLE_EQ(schedule.makespan_s, last_ts);
}

TEST(ArrivalSchedule, ForNodePartitionsTheSchedule) {
  const auto config = small_config();
  const auto schedule = ArrivalSchedule::build(config);
  std::set<std::uint64_t> seen;
  for (net::NodeId node = 0; node < config.nodes; ++node) {
    const auto slice = schedule.for_node(node);
    EXPECT_EQ(slice.size(), std::size_t{2} * config.tuples_per_node);
    double last_ts = 0.0;
    for (const auto& tuple : slice) {
      EXPECT_EQ(tuple.origin, node);
      EXPECT_GE(tuple.timestamp, last_ts);
      last_ts = tuple.timestamp;
      EXPECT_TRUE(seen.insert(tuple.id).second)
          << "tuple " << tuple.id << " appears in two slices";
    }
  }
  EXPECT_EQ(seen.size(), schedule.tuples.size());
}

TEST(ArrivalSchedule, ExactPairsMatchesBruteForce) {
  const auto config = small_config();
  const auto schedule = ArrivalSchedule::build(config);
  const double w = config.queries.front().join_half_width_s;
  const auto exact = exact_pairs(schedule, w);
  EXPECT_EQ(exact, brute_force_pairs(schedule, w));
  EXPECT_GT(exact, 0u) << "degenerate workload: no joining pairs at all";
}

TEST(ArrivalSchedule, CountFalsePairsPassesGenuineResults) {
  const auto config = small_config();
  const auto schedule = ArrivalSchedule::build(config);
  const double w = config.queries.front().join_half_width_s;
  // Collect every genuine pair; none of them may be flagged.
  std::vector<stream::ResultPair> genuine;
  for (const auto& r : schedule.tuples) {
    if (r.side != stream::StreamSide::kR) continue;
    for (const auto& s : schedule.tuples) {
      if (s.side == stream::StreamSide::kS && r.key == s.key &&
          std::abs(r.timestamp - s.timestamp) <= w) {
        genuine.push_back({r.id, s.id});
      }
    }
  }
  ASSERT_FALSE(genuine.empty());
  EXPECT_EQ(count_false_pairs(schedule, w, genuine), 0u);
}

TEST(ArrivalSchedule, CountFalsePairsFlagsFabrications) {
  const auto config = small_config();
  const auto schedule = ArrivalSchedule::build(config);
  const double w = config.queries.front().join_half_width_s;

  // Index tuples by side for targeted fabrication.
  std::unordered_map<std::uint64_t, stream::Tuple> by_id;
  std::uint64_t some_r = 0, some_s = 0;
  for (const auto& t : schedule.tuples) {
    by_id[t.id] = t;
    if (t.side == stream::StreamSide::kR && some_r == 0) some_r = t.id;
    if (t.side == stream::StreamSide::kS && some_s == 0) some_s = t.id;
  }
  ASSERT_NE(some_r, 0u);
  ASSERT_NE(some_s, 0u);

  // An R tuple paired with an R tuple (wrong side).
  std::uint64_t second_r = 0;
  for (const auto& t : schedule.tuples) {
    if (t.side == stream::StreamSide::kR && t.id != some_r) {
      second_r = t.id;
      break;
    }
  }
  // An (r, s) with mismatched keys.
  std::uint64_t mismatched_s = 0;
  for (const auto& t : schedule.tuples) {
    if (t.side == stream::StreamSide::kS &&
        t.key != by_id[some_r].key) {
      mismatched_s = t.id;
      break;
    }
  }
  // An (r, s) with equal keys but outside the window.
  stream::ResultPair out_of_window{0, 0};
  for (const auto& r : schedule.tuples) {
    if (r.side != stream::StreamSide::kR) continue;
    for (const auto& s : schedule.tuples) {
      if (s.side == stream::StreamSide::kS && r.key == s.key &&
          std::abs(r.timestamp - s.timestamp) > w) {
        out_of_window = {r.id, s.id};
        break;
      }
    }
    if (out_of_window.r_id != 0) break;
  }

  std::vector<stream::ResultPair> fabricated;
  fabricated.push_back({some_r, second_r});            // R joined with R
  fabricated.push_back({some_s, some_r});              // sides swapped
  fabricated.push_back({some_r, mismatched_s});        // keys differ
  fabricated.push_back({schedule.tuples.size() + 99,   // ids that never existed
                        schedule.tuples.size() + 100});
  if (out_of_window.r_id != 0) fabricated.push_back(out_of_window);

  EXPECT_EQ(count_false_pairs(schedule, w, fabricated), fabricated.size());
}

TEST(ArrivalSchedule, UniformWorkloadAlsoBuilds) {
  auto config = small_config();
  config.workload = "UNI";
  const auto schedule = ArrivalSchedule::build(config);
  EXPECT_EQ(schedule.tuples.size(),
            std::size_t{2} * config.nodes * config.tuples_per_node);
}

TEST(ArrivalSchedule, CountFalsePairsNeedsEachIdAtItsDenseSlot) {
  const auto config = small_config();
  const auto schedule = ArrivalSchedule::build(config);
  const double w = config.queries.front().join_half_width_s;
  stream::Tuple r;
  stream::Tuple s;
  for (const auto& a : schedule.tuples) {
    for (const auto& b : schedule.tuples) {
      if (a.side == stream::StreamSide::kR && b.side == stream::StreamSide::kS &&
          a.key == b.key && std::abs(a.timestamp - b.timestamp) <= w) {
        r = a;
        s = b;
      }
    }
  }
  ASSERT_NE(r.id, 0u) << "degenerate workload: no joining pairs at all";
  const std::vector<stream::ResultPair> genuine = {{r.id, s.id}};
  ASSERT_EQ(count_false_pairs(schedule, w, genuine), 0u);

  const std::uint64_t past_end = schedule.tuples.size() + 1;
  const std::vector<stream::ResultPair> no_slot = {
      {0, s.id},         // id 0: ids start at 1
      {r.id, 0},
      {past_end, s.id},  // one past the last slot
      {r.id, past_end},
      {~std::uint64_t{0}, s.id},
  };
  EXPECT_EQ(count_false_pairs(schedule, w, no_slot), no_slot.size());

  // A hand-built schedule holding a genuine pair's tuples away from their
  // dense slots: R tuple id 2 sits at index 0 and S tuple id 1 at index 1.
  // Both the genuine pair (2, 1) and the slot-wise pair (1, 2) count as
  // false; read by index alone, (1, 2) would pass as an R-S match.
  r.id = 2;
  s.id = 1;
  ArrivalSchedule misplaced;
  misplaced.tuples = {r, s};
  const std::vector<stream::ResultPair> by_id_and_by_slot = {{2, 1}, {1, 2}};
  EXPECT_EQ(count_false_pairs(misplaced, w, by_id_and_by_slot), 2u);
  misplaced.tuples = {s, r};  // the same two tuples, each at its slot
  const std::vector<stream::ResultPair> by_id = {{2, 1}};
  EXPECT_EQ(count_false_pairs(misplaced, w, by_id), 0u);
}

}  // namespace
}  // namespace dsjoin::core
