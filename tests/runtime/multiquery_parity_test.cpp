// Multi-query serving parity (DESIGN.md §15).
//
// Two contracts pinned here:
//
//   1. N identical registered queries behave like N copies of the
//      single-query baseline: each query's globally deduplicated pair set,
//      reported/exact counts and epsilon equal the baseline run's, on
//      every backend. This is the load-bearing consequence of per-query
//      routing RNG seeds NOT mixing in the query id — registering the same
//      query twice must not perturb either copy.
//
//   2. Per-query counters sum to the run aggregates. Frame attribution is
//      exclusive by construction (every tuple/result/summary frame is
//      attributed to exactly one query), so the sums are exact, not
//      approximate.
//
// MultiQueryBackendParity forks the multiprocess backend and is excluded
// from the TSan job (like BackendParityMatrix); MultiQuerySim is
// simulator-only and runs everywhere.
#include <gtest/gtest.h>

#include <vector>

#include "dsjoin/core/config.hpp"
#include "dsjoin/core/experiment.hpp"
#include "dsjoin/core/system.hpp"
#include "dsjoin/runtime/engine.hpp"

namespace dsjoin {
namespace {

core::SystemConfig baseline_config() {
  core::SystemConfig config;
  config.nodes = 3;
  config.seed = 7;
  config.workload = "ZIPF";
  config.queries.front().policy = core::PolicyKind::kDftt;
  config.tuples_per_node = 100;
  config.arrivals_per_second = 50.0;
  config.queries.front().join_half_width_s = 2.0;
  config.dft_window = 256;
  config.kappa = 32.0;
  config.summary_epoch_tuples = 64;
  config.max_backlog_s = 0.0;  // keep streamed == materialized arrivals
  return config;
}

/// The baseline config with `count` identical copies of its query
/// registered explicitly.
core::SystemConfig replicated_config(std::size_t count) {
  auto config = baseline_config();
  const core::QuerySpec baseline = config.queries.front();
  config.queries.clear();
  for (std::size_t i = 0; i < count; ++i) {
    core::QuerySpec spec;
    spec.id = static_cast<std::uint32_t>(i);
    spec.policy = baseline.policy;
    spec.throttle = baseline.throttle;
    spec.join_half_width_s = baseline.join_half_width_s;
    config.queries.push_back(spec);
  }
  return config;
}

core::ExperimentResult run_backend(const core::SystemConfig& config,
                                   core::Backend backend) {
  runtime::EngineOptions options;
  options.backend = backend;
  return runtime::run_experiment(config, options);
}

void expect_matches_baseline(const core::ExperimentResult& multi,
                             const core::ExperimentResult& baseline,
                             std::size_t count) {
  ASSERT_EQ(multi.per_query.size(), count);
  ASSERT_EQ(baseline.per_query.size(), 1u);
  for (std::size_t q = 0; q < count; ++q) {
    const auto& query = multi.per_query[q];
    EXPECT_EQ(query.query_id, q);
    EXPECT_EQ(query.reported_pairs, baseline.reported_pairs) << "query " << q;
    EXPECT_EQ(query.exact_pairs, baseline.exact_pairs) << "query " << q;
    EXPECT_EQ(query.epsilon, baseline.epsilon) << "query " << q;
    EXPECT_EQ(query.pairs, baseline.pairs) << "query " << q;
  }
  // Aggregates are sums over queries; pairs stay the cross-query union,
  // which for identical queries is the baseline set.
  EXPECT_EQ(multi.reported_pairs, count * baseline.reported_pairs);
  EXPECT_EQ(multi.exact_pairs, count * baseline.exact_pairs);
  EXPECT_EQ(multi.pairs, baseline.pairs);
  EXPECT_EQ(multi.epsilon, baseline.epsilon);
  std::uint64_t reported_sum = 0;
  std::uint64_t exact_sum = 0;
  for (const auto& query : multi.per_query) {
    reported_sum += query.reported_pairs;
    exact_sum += query.exact_pairs;
  }
  EXPECT_EQ(reported_sum, multi.reported_pairs);
  EXPECT_EQ(exact_sum, multi.exact_pairs);
}

TEST(MultiQuerySim, IdenticalQueriesMatchSingleQueryBaseline) {
  const auto baseline = run_backend(baseline_config(), core::Backend::kSim);
  ASSERT_TRUE(baseline.clean) << baseline.error;
  ASSERT_GT(baseline.reported_pairs, 0u);
  const auto multi = run_backend(replicated_config(3), core::Backend::kSim);
  ASSERT_TRUE(multi.clean) << multi.error;
  expect_matches_baseline(multi, baseline, 3);
}

TEST(MultiQuerySim, PerQueryCountersSumToNodeAggregates) {
  core::DspSystem system(replicated_config(3));
  (void)system.run();
  for (net::NodeId id = 0; id < 3; ++id) {
    auto& node = system.node(id);
    ASSERT_EQ(node.query_count(), 3u);
    std::uint64_t received = 0;
    for (std::size_t q = 0; q < node.query_count(); ++q) {
      received += node.query_counters(q).received_tuples;
    }
    EXPECT_EQ(received, node.received_tuples()) << "node " << id;
  }
}

TEST(MultiQueryBackendParity, IdenticalQueriesMatchBaselineOnAllBackends) {
  const std::size_t count = 2;
  for (const auto backend :
       {core::Backend::kSim, core::Backend::kTcpInprocess,
        core::Backend::kMultiprocess}) {
    SCOPED_TRACE(core::to_string(backend));
    const auto baseline = run_backend(baseline_config(), backend);
    ASSERT_TRUE(baseline.clean) << baseline.error;
    const auto multi = run_backend(replicated_config(count), backend);
    ASSERT_TRUE(multi.clean) << multi.error;
    EXPECT_EQ(multi.false_pairs, 0u);
    expect_matches_baseline(multi, baseline, count);
  }
}

}  // namespace
}  // namespace dsjoin
