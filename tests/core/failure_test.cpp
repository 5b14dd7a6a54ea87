// Failure injection: the system must degrade gracefully — never crash,
// never report false pairs — when the network drops or corrupts frames.
#include <gtest/gtest.h>

#include "dsjoin/core/system.hpp"

namespace dsjoin::core {
namespace {

SystemConfig lossy_config(double drop, double corrupt,
                          PolicyKind kind = PolicyKind::kBase) {
  SystemConfig config;
  config.queries.front().policy = kind;
  config.nodes = 4;
  config.tuples_per_node = 600;
  config.seed = 13;
  config.wan.drop_probability = drop;
  config.wan.corrupt_probability = corrupt;
  return config;
}

TEST(FailureInjection, DropsDegradeBaseGracefully) {
  const auto clean = run_experiment(lossy_config(0.0, 0.0));
  const auto lossy = run_experiment(lossy_config(0.5, 0.0));
  EXPECT_DOUBLE_EQ(clean.epsilon, 0.0);
  // Coverage is two-path (either direction's forward finds a pair), so a
  // drop rate d costs ~d^2 of the remote pairs.
  EXPECT_GT(lossy.epsilon, 0.05);
  EXPECT_LT(lossy.epsilon, 0.6);  // local + surviving remote pairs remain
  EXPECT_GT(lossy.reported_pairs, 0u);
}

TEST(FailureInjection, EpsilonMonotoneInDropRate) {
  double prev = -1.0;
  for (double drop : {0.0, 0.2, 0.5, 0.8}) {
    const auto result = run_experiment(lossy_config(drop, 0.0));
    EXPECT_GE(result.epsilon, prev - 0.02) << drop;  // small noise slack
    prev = result.epsilon;
  }
}

TEST(FailureInjection, CorruptionIsDetectedNotTrusted) {
  const auto result = run_experiment(lossy_config(0.0, 0.2));
  // Corrupted frames are rejected by the decoders (counted), or — when the
  // flip lands in a numeric field that still parses — produce at worst a
  // wrong-keyed tuple that joins nothing. Reported pairs must be a subset
  // of the oracle's.
  EXPECT_GT(result.decode_failures, 0u);
  EXPECT_LE(result.reported_pairs, result.exact_pairs);
}

TEST(FailureInjection, ApproximatePoliciesSurviveLossySummaries) {
  for (auto kind : {PolicyKind::kDftt, PolicyKind::kBloom, PolicyKind::kSketch}) {
    const auto result = run_experiment(lossy_config(0.15, 0.1, kind));
    EXPECT_GT(result.reported_pairs, 0u) << to_string(kind);
    EXPECT_LE(result.reported_pairs, result.exact_pairs) << to_string(kind);
  }
}

}  // namespace
}  // namespace dsjoin::core
