// Statistical contract of the SMPL predicted-epsilon bound (DESIGN.md §14):
// the run-level upper bound assembled from Horvitz–Thompson confidence
// intervals plus the rule-of-three unseen-key term must cover the oracle
// epsilon in at least 95% of seeded runs. Twenty independent seeds with one
// allowed miss gives a cheap, deterministic proxy for that statement.
#include <gtest/gtest.h>

#include "dsjoin/core/system.hpp"

namespace dsjoin::core {
namespace {

SystemConfig bound_config(std::uint64_t seed) {
  SystemConfig config;
  config.queries.front().policy = PolicyKind::kSample;
  config.workload = "ZIPF";
  config.nodes = 4;
  config.tuples_per_node = 300;
  config.queries.front().throttle = 0.5;
  config.sample_capacity = 256;
  config.summary_epoch_tuples = 64;
  config.seed = seed;
  return config;
}

TEST(SampleBound, CoversOracleEpsilonAcrossSeeds) {
  const int kRuns = 20;
  int covered = 0;
  for (int seed = 1; seed <= kRuns; ++seed) {
    const auto result = run_experiment(bound_config(seed));
    ASSERT_TRUE(result.clean) << result.error;
    ASSERT_GE(result.predicted_epsilon_bound, 0.0) << "seed " << seed;
    ASSERT_LE(result.predicted_epsilon_bound, 1.0) << "seed " << seed;
    if (result.predicted_epsilon_bound >= result.epsilon) ++covered;
  }
  EXPECT_GE(covered, kRuns - 1) << covered << "/" << kRuns << " covered";
}

TEST(SampleBound, TightensAsThrottleRises) {
  // More budget -> fewer tuples skipped -> the accumulated missed-mass
  // numerator (and so the bound) must not grow with throttle.
  auto open = bound_config(5);
  open.queries.front().throttle = 1.0;  // full broadcast
  auto tight = bound_config(5);
  tight.queries.front().throttle = 0.0;  // budget 1 of n-1 = 3
  const auto open_result = run_experiment(open);
  const auto tight_result = run_experiment(tight);
  ASSERT_TRUE(open_result.clean) << open_result.error;
  ASSERT_TRUE(tight_result.clean) << tight_result.error;
  EXPECT_LE(open_result.predicted_epsilon_bound,
            tight_result.predicted_epsilon_bound);
  EXPECT_LE(open_result.epsilon, 0.05);  // full broadcast is near-exact
}

TEST(SampleBound, NonSamplePoliciesReportNoBound) {
  auto config = bound_config(3);
  config.queries.front().policy = PolicyKind::kBase;
  config.sample_capacity = 0;
  const auto result = run_experiment(config);
  ASSERT_TRUE(result.clean) << result.error;
  EXPECT_DOUBLE_EQ(result.predicted_epsilon_bound, -1.0);
}

}  // namespace
}  // namespace dsjoin::core
