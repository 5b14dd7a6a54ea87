// Crash-and-restart recovery: replacing a node mid-run loses its windows
// and summary state; the system must keep running, peers must re-seed the
// fresh node, and only the lost window's pairs may be missed.
#include <gtest/gtest.h>

#include "dsjoin/core/system.hpp"

namespace dsjoin::core {
namespace {

SystemConfig restart_config(PolicyKind kind) {
  SystemConfig config;
  config.queries.front().policy = kind;
  config.nodes = 4;
  config.tuples_per_node = 1500;
  config.seed = 17;
  return config;
}

TEST(NodeRestart, BaseRecoversWithBoundedLoss) {
  DspSystem system(restart_config(PolicyKind::kBase));
  system.schedule_restart(1, 15.0);
  const auto result = system.run();
  EXPECT_EQ(system.restarts_executed(), 1u);
  // Only pairs against node 1's lost window can be missed; the system keeps
  // finding everything else.
  EXPECT_GT(result.epsilon, 0.0);
  EXPECT_LT(result.epsilon, 0.25);
  EXPECT_EQ(result.decode_failures, 0u);
}

TEST(NodeRestart, NoRestartMeansNoLoss) {
  DspSystem with(restart_config(PolicyKind::kBase));
  const auto result = with.run();
  EXPECT_DOUBLE_EQ(result.epsilon, 0.0);
  EXPECT_EQ(with.restarts_executed(), 0u);
}

TEST(NodeRestart, SummaryPoliciesReseedTheFreshNode) {
  for (auto kind : {PolicyKind::kDftt, PolicyKind::kBloom, PolicyKind::kSketch}) {
    DspSystem system(restart_config(kind));
    system.schedule_restart(2, 12.0);
    const auto result = system.run();
    EXPECT_EQ(system.restarts_executed(), 1u) << to_string(kind);
    EXPECT_GT(result.reported_pairs, 0u) << to_string(kind);
    EXPECT_LT(result.epsilon, 0.6) << to_string(kind);
    EXPECT_EQ(result.decode_failures, 0u) << to_string(kind);
  }
}

TEST(NodeRestart, MultipleRestartsSurvive) {
  DspSystem system(restart_config(PolicyKind::kDftt));
  system.schedule_restart(0, 10.0);
  system.schedule_restart(3, 20.0);
  system.schedule_restart(0, 30.0);
  const auto result = system.run();
  EXPECT_EQ(system.restarts_executed(), 3u);
  EXPECT_GT(result.reported_pairs, 0u);
}

}  // namespace
}  // namespace dsjoin::core
