// Mixed-policy multi-query matrix (DESIGN.md §15).
//
// One run serves four heterogeneous queries — {BASE, RR, DFTT, SMPL} with
// distinct window half-widths and throttles — and the per-query outcomes
// are pinned across the three backends and both coalescing settings:
//
//   * every query's globally deduplicated pair set is element-wise
//     identical on sim, tcp-inprocess and multiprocess;
//   * per-query reported/exact counts sum to the run aggregates;
//   * no query reports a false pair against its own window.
//
// This is the multi-query extension of BackendParityMatrix: the stamped
// summary plane, the query-scope wire wrappers and the per-tuple query
// masks must all survive coalesced socket transport byte-exactly, or a
// query's routing state diverges and the pair sets differ.
//
// The suite forks the multiprocess backend, so it is excluded from the
// TSan job (which cannot follow forks), like BackendParityMatrix.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "dsjoin/core/config.hpp"
#include "dsjoin/core/experiment.hpp"
#include "dsjoin/runtime/engine.hpp"

namespace dsjoin {
namespace {

core::SystemConfig mixed_config(std::uint32_t coalesce_frames) {
  core::SystemConfig config;
  config.nodes = 3;
  config.seed = 11;
  config.workload = "ZIPF";
  config.tuples_per_node = 100;
  config.arrivals_per_second = 50.0;
  config.dft_window = 256;
  config.kappa = 32.0;
  config.summary_epoch_tuples = 64;
  config.max_backlog_s = 0.0;
  config.coalesce_frames = coalesce_frames;

  const struct {
    core::PolicyKind policy;
    double throttle;
    double half_width_s;
  } kQueries[] = {
      {core::PolicyKind::kBase, 0.0, 1.0},
      {core::PolicyKind::kRoundRobin, 0.5, 2.0},
      {core::PolicyKind::kDftt, 0.5, 3.0},
      {core::PolicyKind::kSample, 0.7, 1.5},
  };
  config.queries.clear();
  std::uint32_t id = 0;
  for (const auto& q : kQueries) {
    core::QuerySpec spec;
    spec.id = id++;
    spec.policy = q.policy;
    spec.throttle = q.throttle;
    spec.join_half_width_s = q.half_width_s;
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

class MultiQueryBackendMatrix : public ::testing::TestWithParam<std::uint32_t> {
};

TEST_P(MultiQueryBackendMatrix, MixedPoliciesPinnedAcrossBackends) {
  const auto config = mixed_config(GetParam());
  const auto sim = run_backend(config, core::Backend::kSim);
  const auto tcp = run_backend(config, core::Backend::kTcpInprocess);
  const auto multi = run_backend(config, core::Backend::kMultiprocess);

  for (const auto* result : {&sim, &tcp, &multi}) {
    ASSERT_TRUE(result->clean) << result->error;
    EXPECT_EQ(result->nodes_failed, 0u);
    EXPECT_EQ(result->decode_failures, 0u);
    EXPECT_EQ(result->late_summaries, 0u);
    EXPECT_EQ(result->false_pairs, 0u);
    ASSERT_EQ(result->per_query.size(), config.queries.size());
    std::uint64_t reported_sum = 0;
    std::uint64_t exact_sum = 0;
    for (const auto& query : result->per_query) {
      EXPECT_EQ(query.false_pairs, 0u) << "query " << query.query_id;
      EXPECT_GE(query.epsilon, 0.0) << "query " << query.query_id;
      EXPECT_LE(query.epsilon, 1.0) << "query " << query.query_id;
      reported_sum += query.reported_pairs;
      exact_sum += query.exact_pairs;
    }
    EXPECT_EQ(reported_sum, result->reported_pairs);
    EXPECT_EQ(exact_sum, result->exact_pairs);
  }

  // BASE (query 0) is the exact corner: no misses against its own window.
  for (const auto* result : {&sim, &tcp, &multi}) {
    EXPECT_EQ(result->per_query[0].epsilon, 0.0);
    EXPECT_GT(result->per_query[0].reported_pairs, 0u);
  }

  // The cross-backend pin: element-wise identical per-query pair sets.
  for (std::size_t q = 0; q < config.queries.size(); ++q) {
    EXPECT_EQ(sim.per_query[q].pairs, tcp.per_query[q].pairs)
        << "query " << q << " sim vs tcp";
    EXPECT_EQ(sim.per_query[q].pairs, multi.per_query[q].pairs)
        << "query " << q << " sim vs multiprocess";
    EXPECT_EQ(sim.per_query[q].exact_pairs, tcp.per_query[q].exact_pairs);
    EXPECT_EQ(sim.per_query[q].exact_pairs, multi.per_query[q].exact_pairs);
    EXPECT_EQ(sim.per_query[q].epsilon, tcp.per_query[q].epsilon);
    EXPECT_EQ(sim.per_query[q].epsilon, multi.per_query[q].epsilon);
  }
  EXPECT_EQ(sim.pairs, tcp.pairs);
  EXPECT_EQ(sim.pairs, multi.pairs);
}

INSTANTIATE_TEST_SUITE_P(Coalescing, MultiQueryBackendMatrix,
                         ::testing::Values(1u, 32u),
                         [](const ::testing::TestParamInfo<std::uint32_t>& i) {
                           return i.param == 1 ? "PerFrame" : "Coalesced32";
                         });

}  // namespace
}  // namespace dsjoin
