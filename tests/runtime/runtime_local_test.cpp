// End-to-end runtime tests: the full coordinator/daemon protocol with
// daemons on threads (run_local) measured against the in-process
// TcpTransport baseline (run_inprocess_tcp). The discovered-pair set is
// order-insensitive for deterministic routing with full drain, so the two
// modes must agree exactly — pair count, epsilon, and zero false pairs.
#include "dsjoin/runtime/local.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <stdexcept>
#include <string>

namespace dsjoin::runtime {
namespace {

core::SystemConfig test_config(core::PolicyKind policy) {
  core::SystemConfig config;
  config.nodes = 3;
  config.seed = 7;
  config.workload = "ZIPF";
  config.queries.front().policy = policy;
  config.tuples_per_node = 100;
  config.arrivals_per_second = 50.0;
  config.queries.front().join_half_width_s = 2.0;
  config.dft_window = 256;
  config.kappa = 32.0;
  config.summary_epoch_tuples = 64;
  return config;
}

TEST(RuntimeLocal, RoundRobinMatchesInProcessBaseline) {
  const auto config = test_config(core::PolicyKind::kRoundRobin);
  const RunReport baseline = run_inprocess_tcp(config);
  ASSERT_TRUE(baseline.clean) << baseline.error;
  EXPECT_EQ(baseline.false_pairs, 0u);
  EXPECT_GT(baseline.exact_pairs, 0u);

  const RunReport distributed = run_local(config);
  ASSERT_TRUE(distributed.clean) << distributed.error;
  EXPECT_EQ(distributed.nodes_admitted, config.nodes);
  EXPECT_EQ(distributed.nodes_failed, 0u);
  EXPECT_EQ(distributed.total_arrivals,
            std::uint64_t{2} * config.nodes * config.tuples_per_node);
  EXPECT_EQ(distributed.false_pairs, 0u);

  // The acceptance criterion: the distributed protocol reproduces the
  // in-process transport's result exactly.
  EXPECT_EQ(distributed.exact_pairs, baseline.exact_pairs);
  EXPECT_EQ(distributed.reported_pairs, baseline.reported_pairs);
  EXPECT_DOUBLE_EQ(distributed.epsilon, baseline.epsilon);
}

TEST(RuntimeLocal, BroadcastPolicyIsExact) {
  // BASE broadcasts every tuple to every peer: nothing can be missed, so
  // the distributed run must report epsilon exactly zero.
  const auto config = test_config(core::PolicyKind::kBase);
  const RunReport report = run_local(config);
  ASSERT_TRUE(report.clean) << report.error;
  EXPECT_EQ(report.nodes_failed, 0u);
  EXPECT_EQ(report.false_pairs, 0u);
  EXPECT_EQ(report.reported_pairs, report.exact_pairs);
  EXPECT_DOUBLE_EQ(report.epsilon, 0.0);
}

TEST(RuntimeLocal, RunLocalIsRepeatable) {
  // Two runs of the same config agree with each other (determinism of the
  // schedule + order-insensitivity of the pair set across real-socket
  // timing variation).
  const auto config = test_config(core::PolicyKind::kRoundRobin);
  const RunReport a = run_local(config);
  const RunReport b = run_local(config);
  ASSERT_TRUE(a.clean) << a.error;
  ASSERT_TRUE(b.clean) << b.error;
  EXPECT_EQ(a.reported_pairs, b.reported_pairs);
  EXPECT_EQ(a.exact_pairs, b.exact_pairs);
  EXPECT_DOUBLE_EQ(a.epsilon, b.epsilon);
}

TEST(RuntimeLocal, VerifyOffSkipsOracle) {
  auto config = test_config(core::PolicyKind::kRoundRobin);
  LocalOptions options;
  options.verify = false;
  const RunReport report = run_local(config, options);
  ASSERT_TRUE(report.clean) << report.error;
  EXPECT_GT(report.reported_pairs, 0u);  // dedup still runs
  EXPECT_EQ(report.exact_pairs, 0u);     // oracle skipped
  EXPECT_EQ(report.false_pairs, 0u);
  EXPECT_DOUBLE_EQ(report.epsilon, 0.0);
}

TEST(RuntimeLocal, TwoNodeMinimumWorks) {
  auto config = test_config(core::PolicyKind::kRoundRobin);
  config.nodes = 2;
  const RunReport report = run_local(config);
  ASSERT_TRUE(report.clean) << report.error;
  EXPECT_EQ(report.nodes_admitted, 2u);
  EXPECT_EQ(report.false_pairs, 0u);
}

TEST(RuntimeLocal, RejectsInvalidConfigBeforeStartingDaemons) {
  // A rate of 0 fails validate_config. run_local must name the violation
  // up front instead of starting daemons whose CONFIG decoder rejects it,
  // so it returns at once, long before the 5 s heartbeat timeout, the
  // shortest the coordinator waits on.
  auto config = test_config(core::PolicyKind::kRoundRobin);
  config.arrivals_per_second = 0.0;
  const auto start = std::chrono::steady_clock::now();
  const RunReport report = run_local(config);
  const double elapsed_s = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
  EXPECT_FALSE(report.clean);
  EXPECT_NE(report.error.find("rate"), std::string::npos) << report.error;
  EXPECT_EQ(report.nodes_admitted, 0u);
  EXPECT_LT(elapsed_s, 2.0);

  CoordinatorOptions options;
  options.port = 0;
  options.config = config;
  EXPECT_THROW(Coordinator{options}, std::invalid_argument);

  // The Coordinator has no node checks of its own: 256 nodes pass the gate
  // and construct (which only binds the listener), 257 fail with the
  // gate's message.
  options.config = test_config(core::PolicyKind::kRoundRobin);
  options.config.nodes = core::kMaxNodes;
  EXPECT_NO_THROW(Coordinator{options});
  options.config.nodes = core::kMaxNodes + 1;
  try {
    Coordinator coordinator{options};
    ADD_FAILURE() << "a 257-node Coordinator constructed";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("nodes must be <= 256"),
              std::string::npos)
        << error.what();
  }
}

}  // namespace
}  // namespace dsjoin::runtime
