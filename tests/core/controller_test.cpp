// Online epsilon controller (extension; see config.hpp). The controller's
// audit estimate is conservative — it over-counts misses slightly — so the
// convergence guarantee tested here is one-sided: the measured epsilon ends
// at or below (target + slack), and traffic stays well under broadcast.
#include <gtest/gtest.h>

#include "dsjoin/core/system.hpp"

namespace dsjoin::core {
namespace {

SystemConfig controlled_config(double start_throttle, double target) {
  SystemConfig config;
  config.queries.front().policy = PolicyKind::kDftt;
  config.nodes = 6;
  config.regions = 3;
  config.tuples_per_node = 2500;
  config.seed = 31;
  config.queries.front().throttle = start_throttle;
  config.online_target_eps = target;
  return config;
}

TEST(OnlineController, ConvergesFromStingyStart) {
  const auto result = run_experiment(controlled_config(0.05, 0.15));
  SystemConfig frozen = controlled_config(0.05, -1.0);
  const auto baseline = run_experiment(frozen);
  // The controller must end no less accurate than the frozen-stingy run and
  // within the (conservative) target band.
  EXPECT_LE(result.epsilon, baseline.epsilon + 0.02);
  EXPECT_LT(result.epsilon, 0.18);
}

TEST(OnlineController, BacksOffFromWastefulStart) {
  const auto controlled = run_experiment(controlled_config(1.0, 0.15));
  SystemConfig frozen = controlled_config(1.0, -1.0);
  const auto broadcast = run_experiment(frozen);
  // The controller must shed a meaningful share of broadcast traffic while
  // keeping epsilon at or below the (conservatively estimated) target.
  EXPECT_LT(controlled.traffic.frames(net::FrameKind::kTuple),
            0.9 * broadcast.traffic.frames(net::FrameKind::kTuple));
  EXPECT_LT(controlled.epsilon, 0.18);
}

TEST(OnlineController, NodesExposeDiagnostics) {
  DspSystem system(controlled_config(0.5, 0.15));
  (void)system.run();
  int with_estimates = 0;
  for (net::NodeId id = 0; id < 6; ++id) {
    const auto& node = system.node(id);
    EXPECT_GE(node.current_throttle(), 0.0);
    EXPECT_LE(node.current_throttle(), 1.0);
    if (node.epsilon_estimate() >= 0.0) ++with_estimates;
  }
  EXPECT_GE(with_estimates, 4);  // nearly all nodes formed an estimate
}

TEST(OnlineController, DisabledMeansFrozenThrottle) {
  SystemConfig config = controlled_config(0.4, -1.0);
  DspSystem system(config);
  (void)system.run();
  for (net::NodeId id = 0; id < 6; ++id) {
    EXPECT_DOUBLE_EQ(system.node(id).current_throttle(), 0.4);
    EXPECT_LT(system.node(id).epsilon_estimate(), 0.0);
  }
}

TEST(OnlineController, AuditTrafficIsBounded) {
  const auto controlled = run_experiment(controlled_config(0.3, 0.15));
  // Audits are 5% broadcasts: tuple traffic must stay far below BASE's
  // arrivals * (N-1).
  EXPECT_LT(controlled.traffic.frames(net::FrameKind::kTuple),
            controlled.total_arrivals * 5 / 2);
}

}  // namespace
}  // namespace dsjoin::core
