#include "dsjoin/core/system.hpp"

#include <gtest/gtest.h>

namespace dsjoin::core {
namespace {

SystemConfig small_config(PolicyKind kind, const std::string& workload = "ZIPF") {
  SystemConfig config;
  config.queries.front().policy = kind;
  config.workload = workload;
  config.nodes = 4;
  config.tuples_per_node = 600;
  config.seed = 7;
  return config;
}

TEST(DspSystem, RejectsSingleNode) {
  SystemConfig config;
  config.nodes = 1;
  EXPECT_THROW(DspSystem system(config), std::invalid_argument);
}

TEST(DspSystem, BaseIsExact) {
  // The headline sanity property: BASE broadcasts everything, so every
  // oracle pair is reported (epsilon == 0 within this retention budget).
  const auto result = run_experiment(small_config(PolicyKind::kBase));
  EXPECT_GT(result.exact_pairs, 100u);
  EXPECT_EQ(result.reported_pairs, result.exact_pairs);
  EXPECT_DOUBLE_EQ(result.epsilon, 0.0);
  EXPECT_EQ(result.decode_failures, 0u);
}

TEST(DspSystem, BaseSendsNMinusOneTupleFrames) {
  const auto config = small_config(PolicyKind::kBase);
  const auto result = run_experiment(config);
  const std::uint64_t arrivals = result.total_arrivals;
  EXPECT_EQ(result.traffic.frames(net::FrameKind::kTuple),
            arrivals * (config.nodes - 1));
}

TEST(DspSystem, RunsAreDeterministic) {
  const auto a = run_experiment(small_config(PolicyKind::kDftt));
  const auto b = run_experiment(small_config(PolicyKind::kDftt));
  EXPECT_EQ(a.exact_pairs, b.exact_pairs);
  EXPECT_EQ(a.reported_pairs, b.reported_pairs);
  EXPECT_EQ(a.traffic.total_frames(), b.traffic.total_frames());
  EXPECT_DOUBLE_EQ(a.makespan_s, b.makespan_s);
}

TEST(DspSystem, SeedsChangeOutcomes) {
  auto config = small_config(PolicyKind::kDftt);
  const auto a = run_experiment(config);
  config.seed = 8;
  const auto b = run_experiment(config);
  EXPECT_NE(a.exact_pairs, b.exact_pairs);
}

// Every approximate policy must beat BASE on tuple traffic while keeping
// epsilon bounded away from 1 on the skewed workload.
class ApproximatePolicyTest : public ::testing::TestWithParam<PolicyKind> {};

TEST_P(ApproximatePolicyTest, TradesAccuracyForTraffic) {
  auto config = small_config(GetParam());
  config.queries.front().throttle = 0.5;
  const auto result = run_experiment(config);
  const auto base = run_experiment(small_config(PolicyKind::kBase));
  EXPECT_LT(result.traffic.frames(net::FrameKind::kTuple),
            base.traffic.frames(net::FrameKind::kTuple));
  EXPECT_GE(result.epsilon, 0.0);
  EXPECT_LT(result.epsilon, 0.7);
  EXPECT_EQ(result.decode_failures, 0u);
  EXPECT_GT(result.reported_pairs, 0u);
}

INSTANTIATE_TEST_SUITE_P(Policies, ApproximatePolicyTest,
                         ::testing::Values(PolicyKind::kRoundRobin,
                                           PolicyKind::kDft, PolicyKind::kDftt,
                                           PolicyKind::kBloom,
                                           PolicyKind::kSketch));

TEST(DspSystem, ThrottleOneApproachesBase) {
  auto config = small_config(PolicyKind::kDftt);
  config.queries.front().throttle = 1.0;
  const auto result = run_experiment(config);
  EXPECT_LT(result.epsilon, 0.02);
}

TEST(DspSystem, ThrottleMonotonicityInEpsilon) {
  auto config = small_config(PolicyKind::kDftt);
  config.tuples_per_node = 1000;
  config.queries.front().throttle = 0.1;
  const double eps_low = run_experiment(config).epsilon;
  config.queries.front().throttle = 0.9;
  const double eps_high = run_experiment(config).epsilon;
  EXPECT_GT(eps_low, eps_high);
}

TEST(DspSystem, UniformWorkloadTriggersFallback) {
  auto config = small_config(PolicyKind::kDft, "UNI");
  config.tuples_per_node = 1500;
  const auto result = run_experiment(config);
  EXPECT_TRUE(result.fallback_engaged);
}

TEST(DspSystem, SkewedWorkloadDoesNotFallBack) {
  auto config = small_config(PolicyKind::kDft, "ZIPF");
  config.tuples_per_node = 1500;
  const auto result = run_experiment(config);
  EXPECT_FALSE(result.fallback_engaged);
}

TEST(DspSystem, DftPoliciesAccountSummaryBytes) {
  const auto result = run_experiment(small_config(PolicyKind::kDftt));
  EXPECT_GT(result.summary_byte_fraction, 0.0);
  EXPECT_LT(result.summary_byte_fraction, 0.5);
}

TEST(DspSystem, BaseHasNoSummaryTraffic) {
  const auto result = run_experiment(small_config(PolicyKind::kBase));
  EXPECT_DOUBLE_EQ(result.summary_byte_fraction, 0.0);
  EXPECT_EQ(result.traffic.frames(net::FrameKind::kSummary), 0u);
}

TEST(DspSystem, ResultFramesShipDiscoveredPairs) {
  const auto result = run_experiment(small_config(PolicyKind::kBase));
  EXPECT_GT(result.traffic.frames(net::FrameKind::kResult), 0u);
}

TEST(DspSystem, AllWorkloadsRunAllPolicies) {
  for (const char* workload : {"UNI", "ZIPF", "FIN", "NWRK"}) {
    for (auto kind : {PolicyKind::kBase, PolicyKind::kDftt, PolicyKind::kBloom,
                      PolicyKind::kSketch}) {
      auto config = small_config(kind, workload);
      config.tuples_per_node = 250;
      const auto result = run_experiment(config);
      EXPECT_EQ(result.decode_failures, 0u)
          << workload << "/" << to_string(kind);
      EXPECT_GT(result.total_arrivals, 0u);
    }
  }
}

TEST(DspSystem, BackpressureStretchesBaseMakespan) {
  // At 10 nodes, BASE's O(N^2) traffic exceeds the per-node 90 kbps budget
  // and ingestion stalls; an approximate policy at the same scale does not.
  SystemConfig config;
  config.nodes = 10;
  config.tuples_per_node = 400;
  config.queries.front().policy = PolicyKind::kBase;
  const auto base = run_experiment(config);
  config.queries.front().policy = PolicyKind::kDftt;
  config.queries.front().throttle = 0.3;
  const auto dftt = run_experiment(config);
  EXPECT_GT(base.makespan_s, 1.3 * dftt.makespan_s);
  EXPECT_GT(dftt.results_per_second, base.results_per_second);
}

TEST(DspSystem, NodeAccessorsExposeCounters) {
  DspSystem system(small_config(PolicyKind::kDftt));
  const auto result = system.run();
  std::uint64_t local_total = 0;
  for (net::NodeId id = 0; id < 4; ++id) {
    local_total += system.node(id).local_tuples();
  }
  EXPECT_EQ(local_total, result.total_arrivals);
  EXPECT_EQ(system.metrics().distinct_pairs(), result.reported_pairs);
  EXPECT_EQ(system.oracle().total_pairs(), result.exact_pairs);
}

}  // namespace
}  // namespace dsjoin::core
