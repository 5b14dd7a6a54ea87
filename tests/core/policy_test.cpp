#include "dsjoin/core/policy.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <numeric>
#include <optional>
#include <set>

#include "dsjoin/core/substrate.hpp"
#include "dsjoin/core/summary_state.hpp"
#include "dsjoin/sketch/agms.hpp"
#include "dsjoin/sketch/bloom.hpp"

namespace dsjoin::core {
namespace {

SystemConfig config_for(PolicyKind kind, std::uint32_t nodes = 6) {
  SystemConfig config;
  config.queries.front().policy = kind;
  config.nodes = nodes;
  config.seed = 99;
  return config;
}

// What a Node holds for one query: its summary substrate, which the test
// drives as the node does (observe_local, maintenance, piggyback_for,
// on_summary), and the query's routing policy over it.
struct QueryNode {
  QueryNode(const SystemConfig& config, net::NodeId self)
      : substrate(config, self),
        policy(config, config.queries.front(), self, substrate) {}
  SummarySubstrate substrate;
  RoutingPolicy policy;
};

std::unique_ptr<QueryNode> make_node(const SystemConfig& config,
                                     net::NodeId self) {
  return std::make_unique<QueryNode>(config, self);
}

// The destinations RoutingPolicy::route writes for one tuple.
std::vector<net::NodeId> route(RoutingPolicy& policy,
                               const stream::Tuple& tuple) {
  std::vector<net::NodeId> out;
  policy.route(tuple, out);
  return out;
}

stream::Tuple tuple_with(std::int64_t key, stream::StreamSide side,
                         double ts = 1.0) {
  stream::Tuple t;
  t.id = 1;
  t.key = key;
  t.side = side;
  t.timestamp = ts;
  return t;
}

TEST(ThrottleToBudget, EndpointsAndMonotonicity) {
  EXPECT_DOUBLE_EQ(throttle_to_budget(0.0, 10), 1.0);
  EXPECT_DOUBLE_EQ(throttle_to_budget(1.0, 10), 9.0);
  EXPECT_DOUBLE_EQ(throttle_to_budget(0.5, 10), 3.0);  // sqrt(9)
  double prev = 0.0;
  for (double t = 0.0; t <= 1.0; t += 0.1) {
    const double budget = throttle_to_budget(t, 10);
    EXPECT_GE(budget, prev);
    prev = budget;
  }
  // Degenerate cluster sizes.
  EXPECT_DOUBLE_EQ(throttle_to_budget(0.5, 1), 0.0);
  EXPECT_DOUBLE_EQ(throttle_to_budget(0.5, 2), 1.0);
}

TEST(AllocateFlowProbabilities, ZeroScoresGetFloorOnly) {
  std::vector<double> scores(5, 0.0);
  std::vector<double> probs;
  allocate_flow_probabilities(scores, 3.0, 0.1, probs);
  for (double p : probs) EXPECT_DOUBLE_EQ(p, 0.1);
}

TEST(AllocateFlowProbabilities, SpendsBudgetProportionally) {
  std::vector<double> scores{1.0, 3.0};
  std::vector<double> probs;
  allocate_flow_probabilities(scores, 0.8, 0.0, probs);
  EXPECT_NEAR(probs[0] + probs[1], 0.8, 1e-9);
  EXPECT_NEAR(probs[1] / probs[0], 3.0, 1e-9);
}

TEST(AllocateFlowProbabilities, SaturatesAtOne) {
  std::vector<double> scores{100.0, 1.0, 1.0};
  std::vector<double> probs;
  allocate_flow_probabilities(scores, 2.0, 0.0, probs);
  EXPECT_DOUBLE_EQ(probs[0], 1.0);
  EXPECT_NEAR(probs[0] + probs[1] + probs[2], 2.0, 1e-9);
  EXPECT_NEAR(probs[1], probs[2], 1e-12);
}

TEST(AllocateFlowProbabilities, FullBudgetBroadcasts) {
  std::vector<double> scores{5.0, 0.1, 2.0, 0.4};
  std::vector<double> probs;
  allocate_flow_probabilities(scores, 4.0, 0.0, probs);
  for (double p : probs) EXPECT_NEAR(p, 1.0, 1e-9);
}

TEST(AllocateFlowProbabilities, FloorIsRespected) {
  std::vector<double> scores{10.0, 0.0, 0.0};
  std::vector<double> probs;
  allocate_flow_probabilities(scores, 1.5, 0.2, probs);
  EXPECT_GE(probs[1], 0.2 - 1e-12);
  EXPECT_GE(probs[2], 0.2 - 1e-12);
  EXPECT_DOUBLE_EQ(probs[0], 1.0);
  // Budget left over once every scored peer saturates is deliberately NOT
  // dumped on zero-score peers (they stay at the exploration floor).
  EXPECT_NEAR(std::accumulate(probs.begin(), probs.end(), 0.0), 1.4, 1e-9);
}

TEST(AllocateFlowProbabilities, EmptyAndClamps) {
  std::vector<double> probs{0.5};
  allocate_flow_probabilities({}, 3.0, 0.1, probs);
  EXPECT_TRUE(probs.empty());
  std::vector<double> scores{1.0};
  allocate_flow_probabilities(scores, 100.0, 0.0, probs);
  EXPECT_DOUBLE_EQ(probs[0], 1.0);  // budget clamped to n
}

TEST(PolicyFactory, CreatesEveryKind) {
  for (auto kind : {PolicyKind::kBase, PolicyKind::kRoundRobin, PolicyKind::kDft,
                    PolicyKind::kDftt, PolicyKind::kBloom, PolicyKind::kSketch,
                    PolicyKind::kSpectrum, PolicyKind::kSample}) {
    const auto node = make_node(config_for(kind), 0);
    EXPECT_STREQ(node->policy.name(), to_string(kind));
  }
}

TEST(PolicyNames, RoundTripThroughStrings) {
  for (auto kind : {PolicyKind::kBase, PolicyKind::kRoundRobin, PolicyKind::kDft,
                    PolicyKind::kDftt, PolicyKind::kBloom, PolicyKind::kSketch,
                    PolicyKind::kSpectrum, PolicyKind::kSample}) {
    EXPECT_EQ(policy_from_string(to_string(kind)), kind);
  }
  EXPECT_THROW(policy_from_string("NOPE"), std::invalid_argument);
}

TEST(PolicyNames, RegistryCoversEveryKindOnce) {
  const auto registry = policy_names();
  EXPECT_EQ(registry.size(), 8u);
  std::set<std::string> unique;
  const auto csv = policy_names_csv();
  for (const auto& entry : registry) {
    unique.insert(entry.name);
    EXPECT_STREQ(to_string(entry.kind), entry.name);
    EXPECT_EQ(policy_from_string(entry.name), entry.kind);
    EXPECT_NE(csv.find(entry.name), std::string::npos) << entry.name;
  }
  EXPECT_EQ(unique.size(), registry.size());
}

TEST(BasePolicy, BroadcastsToAllPeers) {
  const auto node = make_node(config_for(PolicyKind::kBase, 5), 2);
  const auto dests = route(node->policy, tuple_with(1, stream::StreamSide::kR));
  EXPECT_EQ(dests.size(), 4u);
  std::set<net::NodeId> unique(dests.begin(), dests.end());
  EXPECT_EQ(unique.size(), 4u);
  EXPECT_EQ(unique.count(2), 0u);  // never self
  EXPECT_TRUE(node->substrate.piggyback_for(0).empty());
  EXPECT_TRUE(node->substrate.maintenance(0.0).empty());
}

TEST(RoundRobinPolicy, CyclesThroughPeersEvenly) {
  auto config = config_for(PolicyKind::kRoundRobin, 4);
  config.queries.front().throttle = 0.0;  // T = 1
  const auto node = make_node(config, 1);
  std::map<net::NodeId, int> counts;
  for (int i = 0; i < 300; ++i) {
    const auto dests = route(node->policy, tuple_with(1, stream::StreamSide::kR));
    ASSERT_EQ(dests.size(), 1u);
    EXPECT_NE(dests[0], 1u);
    ++counts[dests[0]];
  }
  EXPECT_EQ(counts.size(), 3u);
  for (const auto& [peer, count] : counts) EXPECT_EQ(count, 100) << peer;
}

TEST(RoundRobinPolicy, ThrottleWidensFanout) {
  auto config = config_for(PolicyKind::kRoundRobin, 6);
  config.queries.front().throttle = 1.0;  // T = 5
  const auto node = make_node(config, 0);
  const auto dests = route(node->policy, tuple_with(1, stream::StreamSide::kR));
  EXPECT_EQ(dests.size(), 5u);
}

// Membership policies route towards a peer whose summary contains the key.
class MembershipPolicyTest : public ::testing::TestWithParam<PolicyKind> {};

TEST_P(MembershipPolicyTest, LearnsFromSummariesAndRoutesToOwners) {
  auto config = config_for(GetParam(), 3);
  config.dft_window = 256;
  config.kappa = 16.0;  // 16 coefficients
  config.summary_epoch_tuples = 32;
  // Stingiest budget: the scores must decide.
  config.queries.front().throttle = 0.0;
  config.membership_tolerance = 8;

  // Three policies: node 0 (router under test), node 1 (whose stream sits
  // at key ~5000 — the owner of the matches) and node 2 (far away at
  // ~90000, so its summaries never contain the probed key).
  const auto router = make_node(config, 0);
  const auto owner = make_node(config, 1);
  const auto stranger = make_node(config, 2);

  double now = 0.0;
  std::uint64_t id = 1;
  for (int i = 0; i < 512; ++i) {
    now += 0.02;
    stream::Tuple t = tuple_with(5000 + (i % 3), stream::StreamSide::kS, now);
    t.id = id++;
    t.origin = 1;
    owner->substrate.observe_local(t);
    // R-side values too, so both sides' summaries exist.
    stream::Tuple r = tuple_with(5000 + (i % 3), stream::StreamSide::kR, now);
    r.id = id++;
    r.origin = 1;
    owner->substrate.observe_local(r);
    (void)route(owner->policy, t);
    for (auto& summary : owner->substrate.maintenance(now)) {
      if (summary.peer == 0) {
        ASSERT_TRUE(router->substrate.on_summary(1, summary.block).is_ok());
      }
    }
    const auto piggy = owner->substrate.piggyback_for(0);
    if (!piggy.empty()) {
      ASSERT_TRUE(router->substrate.on_summary(1, piggy).is_ok());
    }

    stream::Tuple far_s = tuple_with(90000 + (i % 3), stream::StreamSide::kS, now);
    far_s.id = id++;
    far_s.origin = 2;
    stranger->substrate.observe_local(far_s);
    stream::Tuple far_r = tuple_with(90000 + (i % 3), stream::StreamSide::kR, now);
    far_r.id = id++;
    far_r.origin = 2;
    stranger->substrate.observe_local(far_r);
    for (auto& summary : stranger->substrate.maintenance(now)) {
      if (summary.peer == 0) {
        ASSERT_TRUE(router->substrate.on_summary(2, summary.block).is_ok());
      }
    }
    const auto piggy2 = stranger->substrate.piggyback_for(0);
    if (!piggy2.empty()) {
      ASSERT_TRUE(router->substrate.on_summary(2, piggy2).is_ok());
    }
  }

  // Router's own stream also near 5000 so its local spectra are sane.
  for (int i = 0; i < 512; ++i) {
    now += 0.02;
    stream::Tuple t = tuple_with(5001, stream::StreamSide::kR, now);
    t.id = id++;
    router->substrate.observe_local(t);
  }

  int to_owner = 0, to_silent = 0, total = 0;
  for (int i = 0; i < 200; ++i) {
    now += 0.02;
    const auto dests = route(router->policy, tuple_with(5001, stream::StreamSide::kR, now));
    for (auto d : dests) {
      ++total;
      if (d == 1) ++to_owner;
      if (d == 2) ++to_silent;
    }
  }
  EXPECT_GT(to_owner, 150);  // the owner's summary matches the key
  EXPECT_LT(to_silent, to_owner / 3);  // the stranger's summary does not
  EXPECT_GT(total, 0);
}

INSTANTIATE_TEST_SUITE_P(Kinds, MembershipPolicyTest,
                         ::testing::Values(PolicyKind::kDftt, PolicyKind::kBloom));

TEST(DftPolicy, PiggybackCarriesCoefficientDeltas) {
  auto config = config_for(PolicyKind::kDft, 3);
  config.dft_window = 128;
  config.kappa = 16.0;
  config.summary_epoch_tuples = 16;
  const auto node = make_node(config, 0);
  double now = 0.0;
  for (int i = 0; i < 64; ++i) {
    now += 0.1;
    stream::Tuple t = tuple_with(100 + i % 7, stream::StreamSide::kR, now);
    node->substrate.observe_local(t);
    (void)node->substrate.maintenance(now);
  }
  const auto block = node->substrate.piggyback_for(1);
  EXPECT_FALSE(block.empty());
  // Draining repeatedly (the per-frame cap spreads deltas over frames)
  // eventually syncs the peer; then piggybacks go empty until new changes.
  bool drained = false;
  for (int i = 0; i < 16; ++i) {
    if (node->substrate.piggyback_for(1).empty()) {
      drained = true;
      break;
    }
  }
  EXPECT_TRUE(drained);
}

TEST(DftPolicy, MaintenanceFlushesToSilentPeers) {
  auto config = config_for(PolicyKind::kDft, 3);
  config.dft_window = 128;
  config.kappa = 16.0;
  config.summary_epoch_tuples = 8;
  const auto node = make_node(config, 0);
  double now = 0.0;
  bool flushed_to_1 = false, flushed_to_2 = false;
  // A peer goes stale after eight epochs without a tuple frame.
  for (int i = 0; i < 8 * 9; ++i) {
    now += 0.1;
    node->substrate.observe_local(tuple_with(50, stream::StreamSide::kR, now));
    for (auto& s : node->substrate.maintenance(now)) {
      flushed_to_1 |= s.peer == 1;
      flushed_to_2 |= s.peer == 2;
      EXPECT_FALSE(s.block.empty());
    }
  }
  EXPECT_TRUE(flushed_to_1);
  EXPECT_TRUE(flushed_to_2);
}

TEST(SpectrumPolicy, BroadcastsSpectraEveryEpochAndLearns) {
  auto config = config_for(PolicyKind::kSpectrum, 3);
  config.summary_epoch_tuples = 16;
  config.dft_window = 256;
  config.kappa = 16.0;
  const auto sender = make_node(config, 1);
  const auto receiver = make_node(config, 0);
  double now = 0.0;
  int broadcasts = 0;
  for (int i = 0; i < 200; ++i) {
    now += 0.1;
    sender->substrate.observe_local(tuple_with(7000 + i % 4, stream::StreamSide::kS, now));
    sender->substrate.observe_local(tuple_with(7000 + i % 4, stream::StreamSide::kR, now));
    for (auto& s : sender->substrate.maintenance(now)) {
      ++broadcasts;
      if (s.peer == 0) {
        ASSERT_TRUE(receiver->substrate.on_summary(1, s.block).is_ok());
      }
    }
  }
  EXPECT_GT(broadcasts, 10);
  // Receiver's own stream near the same keys: peer 1 should attract a high
  // flow probability (key-independent join-size estimate).
  for (int i = 0; i < 300; ++i) {
    now += 0.1;
    receiver->substrate.observe_local(tuple_with(7001, stream::StreamSide::kR, now));
  }
  (void)route(receiver->policy, tuple_with(7001, stream::StreamSide::kR, now));
  const auto probs = receiver->policy.flow_probabilities();
  ASSERT_EQ(probs.size(), 3u);
  EXPECT_GT(probs[1], probs[2]);  // summarized matching peer beats silent one
}

TEST(SketchPolicy, BroadcastsSketchesEveryEpoch) {
  auto config = config_for(PolicyKind::kSketch, 4);
  config.summary_epoch_tuples = 10;
  const auto node = make_node(config, 0);
  double now = 0.0;
  int broadcasts = 0;
  for (int i = 0; i < 35; ++i) {
    now += 0.1;
    node->substrate.observe_local(tuple_with(5, stream::StreamSide::kR, now));
    broadcasts += static_cast<int>(node->substrate.maintenance(now).size());
  }
  // 3 epochs x 3 peers.
  EXPECT_EQ(broadcasts, 9);
}

TEST(SketchPolicy, IgnoresSketchOfAnotherShapeOrSeed) {
  auto config = config_for(PolicyKind::kSketch, 3);
  const auto node = make_node(config, 0);
  for (int i = 0; i < 20; ++i) {
    node->substrate.observe_local(tuple_with(5, stream::StreamSide::kR, 0.1 * i));
  }
  // A 1x1 sketch (fewer counters than the local grid) and one of the local
  // shape built from another seed (another hash family).
  const sketch::AgmsSketch small(sketch::AgmsShape{1, 1}, 7);
  const sketch::AgmsSketch reseeded(sketch::AgmsShape::for_budget(
                                        config.summary_budget_bytes() / 4),
                                    config.seed);
  for (const sketch::AgmsSketch* foreign : {&small, &reseeded}) {
    sketch::AgmsSketch remote = *foreign;
    remote.update(5, 3);
    common::BufferWriter writer;
    summary_codec::encode_sketch(writer, stream::StreamSide::kS, remote);
    ASSERT_TRUE(node->substrate.on_summary(1, SummaryBlock{std::move(writer).take()})
                    .is_ok());
    auto& engine = node->substrate.sketch();
    EXPECT_FALSE(engine.remote_seeded(1, 1));
    EXPECT_EQ(engine.refreshed_estimate(1, 0), 0.0);
  }
}

TEST(SamplePolicy, BroadcastsSamplesEveryEpoch) {
  auto config = config_for(PolicyKind::kSample, 4);
  config.summary_epoch_tuples = 10;
  const auto node = make_node(config, 0);
  double now = 0.0;
  int broadcasts = 0;
  for (int i = 0; i < 35; ++i) {
    now += 0.1;
    node->substrate.observe_local(tuple_with(5, stream::StreamSide::kR, now));
    for (auto& s : node->substrate.maintenance(now)) {
      ++broadcasts;
      EXPECT_FALSE(s.block.empty());
    }
  }
  // 3 epochs x 3 peers.
  EXPECT_EQ(broadcasts, 9);
}

TEST(SamplePolicy, LearnsMatchingPeerFromSampleSummaries) {
  auto config = config_for(PolicyKind::kSample, 3);
  config.summary_epoch_tuples = 16;
  config.sample_capacity = 256;  // exact samples at this scale
  // Budget sqrt(2) < n-1: the ranking must show.
  config.queries.front().throttle = 0.5;
  const auto sender = make_node(config, 1);
  const auto receiver = make_node(config, 0);
  double now = 0.0;
  int broadcasts = 0;
  for (int i = 0; i < 200; ++i) {
    now += 0.1;
    sender->substrate.observe_local(tuple_with(4200 + i % 4, stream::StreamSide::kS, now));
    sender->substrate.observe_local(tuple_with(4200 + i % 4, stream::StreamSide::kR, now));
    for (auto& s : sender->substrate.maintenance(now)) {
      ++broadcasts;
      if (s.peer == 0) {
        ASSERT_TRUE(receiver->substrate.on_summary(1, s.block).is_ok());
      }
    }
  }
  EXPECT_GT(broadcasts, 10);
  for (int i = 0; i < 100; ++i) {
    now += 0.1;
    receiver->substrate.observe_local(tuple_with(4201, stream::StreamSide::kR, now));
  }
  (void)route(receiver->policy, tuple_with(4201, stream::StreamSide::kR, now));
  const auto probs = receiver->policy.flow_probabilities();
  ASSERT_EQ(probs.size(), 3u);
  EXPECT_DOUBLE_EQ(probs[0], 0.0);  // self
  EXPECT_GT(probs[1], probs[2]);    // sampled matching peer beats silent one
}

TEST(SamplePolicy, AccumulatesEpsilonBoundTerms) {
  auto config = config_for(PolicyKind::kSample, 4);
  config.summary_epoch_tuples = 16;
  config.sample_capacity = 64;
  config.queries.front().throttle = 0.5;
  const auto node = make_node(config, 0);
  EXPECT_DOUBLE_EQ(node->policy.epsilon_bound_terms().total_mass, 0.0);
  double now = 0.0;
  for (int i = 0; i < 50; ++i) {
    now += 0.1;
    node->substrate.observe_local(tuple_with(7, stream::StreamSide::kS, now));
    (void)route(node->policy, tuple_with(7, stream::StreamSide::kR, now));
    (void)node->substrate.maintenance(now);
  }
  const auto terms = node->policy.epsilon_bound_terms();
  // Unseeded peers charge the bound at least one missed tuple per routed
  // tuple at partial throttle, and the self-term seeds the denominator.
  EXPECT_GT(terms.total_mass, 0.0);
  EXPECT_GT(terms.missed_mass, 0.0);
  EXPECT_TRUE(std::isfinite(terms.missed_mass));
  EXPECT_TRUE(std::isfinite(terms.total_mass));
}

TEST(DftFamilyPolicy, FlowProbabilitiesExposeSelfAsZero) {
  auto config = config_for(PolicyKind::kDft, 4);
  const auto node = make_node(config, 2);
  (void)route(node->policy, tuple_with(1, stream::StreamSide::kR));
  const auto probs = node->policy.flow_probabilities();
  ASSERT_EQ(probs.size(), 4u);
  EXPECT_DOUBLE_EQ(probs[2], 0.0);
}

// BLOOM's engine applies each key's insert before the erase of the key that
// insert evicted. The order shows only at the counters' 16-bit clamp: with
// one counter per key (k = 1 at W = 65534, kappa = 256), the 65,535th copy
// of key 1 arrives at a full window. Inserting first saturates the counter,
// which then stays pinned; erasing first would hold it at 65,534 and let
// the copies of key 2 drain it to zero.
TEST(BloomPolicy, InsertBeforeEvictPinsSaturatedCounter) {
  auto config = config_for(PolicyKind::kBloom, 2);
  config.dft_window = 65534;
  config.kappa = 256.0;
  SummarySubstrate substrate(config, 0);
  substrate.subscribe(SummaryFamily::kBloom, 0);
  SummaryBlock last;
  const auto feed = [&](std::int64_t key, int copies) {
    for (int i = 0; i < copies; ++i) {
      substrate.observe_local(tuple_with(key, stream::StreamSide::kR));
      for (auto& summary : substrate.maintenance(0.0)) {
        last = std::move(summary.block);
      }
    }
  };
  feed(1, 65535);
  feed(2, 65534 + 256);  // evicts every copy of key 1, then broadcasts

  std::optional<sketch::BloomFilter> snapshot;
  summary_codec::Visitor visitor;
  visitor.on_bloom = [&](stream::StreamSide side, sketch::BloomFilter filter) {
    if (side == stream::StreamSide::kR) snapshot = std::move(filter);
  };
  ASSERT_TRUE(summary_codec::decode_blocks(last, visitor).is_ok());
  ASSERT_TRUE(snapshot.has_value());
  ASSERT_EQ(snapshot->hash_count(), 1u);
  EXPECT_TRUE(snapshot->contains(2));
  EXPECT_TRUE(snapshot->contains(1));  // its counter stayed at the clamp
}

}  // namespace
}  // namespace dsjoin::core
