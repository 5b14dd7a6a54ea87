// The parallel driver contract: worker_threads >= 1 is bit-identical to the
// serial driver — same |Psi-hat|, same per-node/per-link message counts,
// same RNG-driven traffic, same virtual clock — for every policy and seed.
#include <gtest/gtest.h>

#include <string>

#include "dsjoin/core/system.hpp"

namespace dsjoin::core {
namespace {

SystemConfig base_config(PolicyKind kind, std::uint64_t seed) {
  SystemConfig config;
  config.queries.front().policy = kind;
  config.workload = "ZIPF";
  config.nodes = 4;
  config.tuples_per_node = 350;
  config.seed = seed;
  return config;
}

struct RunSnapshot {
  ExperimentResult result;
  std::vector<std::uint64_t> per_node_discoveries;
  std::uint64_t total_reports = 0;
  double last_report_time = 0.0;
  std::vector<net::TrafficCounters> links;  // (from, to) row-major
  std::uint64_t dropped = 0;
  std::uint64_t corrupted = 0;
};

RunSnapshot run(SystemConfig config, std::uint32_t workers) {
  config.worker_threads = workers;
  DspSystem system(config);
  RunSnapshot snap;
  snap.result = system.run();
  snap.per_node_discoveries = system.metrics().per_node_discoveries();
  snap.total_reports = system.metrics().total_reports();
  snap.last_report_time = system.metrics().last_report_time();
  for (net::NodeId from = 0; from < config.nodes; ++from) {
    for (net::NodeId to = 0; to < config.nodes; ++to) {
      if (from == to) continue;
      snap.links.push_back(system.transport().link_stats(from, to));
    }
  }
  snap.dropped = system.transport().dropped_frames();
  snap.corrupted = system.transport().corrupted_frames();
  return snap;
}

void expect_counters_equal(const net::TrafficCounters& a,
                           const net::TrafficCounters& b) {
  EXPECT_EQ(a.frames_by_kind, b.frames_by_kind);
  EXPECT_EQ(a.bytes_by_kind, b.bytes_by_kind);
  EXPECT_EQ(a.piggyback_bytes, b.piggyback_bytes);
}

// Exact equality throughout — including doubles. The parallel driver claims
// bit-identity, not statistical equivalence.
void expect_identical(const RunSnapshot& serial, const RunSnapshot& parallel) {
  EXPECT_EQ(serial.result.exact_pairs, parallel.result.exact_pairs);
  EXPECT_EQ(serial.result.reported_pairs, parallel.result.reported_pairs);
  EXPECT_EQ(serial.result.total_arrivals, parallel.result.total_arrivals);
  EXPECT_EQ(serial.result.decode_failures, parallel.result.decode_failures);
  EXPECT_EQ(serial.result.fallback_engaged, parallel.result.fallback_engaged);
  EXPECT_EQ(serial.result.epsilon, parallel.result.epsilon);
  EXPECT_EQ(serial.result.messages_per_result,
            parallel.result.messages_per_result);
  EXPECT_EQ(serial.result.results_per_second,
            parallel.result.results_per_second);
  EXPECT_EQ(serial.result.ingest_per_second, parallel.result.ingest_per_second);
  EXPECT_EQ(serial.result.makespan_s, parallel.result.makespan_s);
  EXPECT_EQ(serial.result.summary_byte_fraction,
            parallel.result.summary_byte_fraction);
  expect_counters_equal(serial.result.traffic, parallel.result.traffic);

  EXPECT_EQ(serial.per_node_discoveries, parallel.per_node_discoveries);
  EXPECT_EQ(serial.total_reports, parallel.total_reports);
  EXPECT_EQ(serial.last_report_time, parallel.last_report_time);
  EXPECT_EQ(serial.dropped, parallel.dropped);
  EXPECT_EQ(serial.corrupted, parallel.corrupted);

  ASSERT_EQ(serial.links.size(), parallel.links.size());
  for (std::size_t i = 0; i < serial.links.size(); ++i) {
    SCOPED_TRACE("link " + std::to_string(i));
    expect_counters_equal(serial.links[i], parallel.links[i]);
  }
}

class ParallelDeterminism
    : public ::testing::TestWithParam<std::tuple<PolicyKind, std::uint64_t>> {};

TEST_P(ParallelDeterminism, MatchesSerialBitForBit) {
  const auto [kind, seed] = GetParam();
  const auto config = base_config(kind, seed);
  const auto serial = run(config, 0);
  const auto parallel = run(config, 3);
  expect_identical(serial, parallel);
}

INSTANTIATE_TEST_SUITE_P(
    AllPoliciesAllSeeds, ParallelDeterminism,
    ::testing::Combine(::testing::Values(PolicyKind::kRoundRobin,
                                         PolicyKind::kDft, PolicyKind::kDftt,
                                         PolicyKind::kBloom,
                                         PolicyKind::kSketch,
                                         PolicyKind::kSpectrum),
                       ::testing::Values(7ull, 42ull, 1234ull)),
    [](const auto& info) {
      return std::string(to_string(std::get<0>(info.param))) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

TEST(ParallelDeterminism, WorkerCountDoesNotMatter) {
  // 1 strand (all node work on the caller, but through the epoch machinery)
  // through more strands than nodes — identical results throughout.
  const auto config = base_config(PolicyKind::kDftt, 42);
  const auto serial = run(config, 0);
  for (std::uint32_t workers : {1u, 2u, 8u}) {
    SCOPED_TRACE(workers);
    expect_identical(serial, run(config, workers));
  }
}

TEST(ParallelDeterminism, HoldsUnderDropsAndCorruption) {
  // Loss and corruption consume per-link RNG draws; the sender-owned-state
  // rule must keep those draw sequences aligned with the serial schedule.
  auto config = base_config(PolicyKind::kDftt, 42);
  config.wan.drop_probability = 0.05;
  config.wan.corrupt_probability = 0.05;
  const auto serial = run(config, 0);
  EXPECT_GT(serial.dropped, 0u);
  EXPECT_GT(serial.corrupted, 0u);
  expect_identical(serial, run(config, 4));
}

TEST(ParallelDeterminism, HoldsUnderZeroLatencyProfile) {
  // With the ideal profile the lookahead window is zero-width and epochs
  // degenerate to exact-timestamp ties — the other driver regime.
  auto config = base_config(PolicyKind::kBloom, 7);
  config.wan = net::WanProfile::ideal();
  expect_identical(run(config, 0), run(config, 3));
}

TEST(ParallelDeterminism, HoldsAcrossNodeRestarts) {
  // Restarts are barrier events: the epoch in flight must quiesce before a
  // node object is replaced, and the replacement must land identically.
  auto config = base_config(PolicyKind::kDftt, 42);
  RunSnapshot serial, parallel;
  {
    DspSystem system(config);
    system.schedule_restart(1, 4.0);
    system.schedule_restart(2, 7.5);
    serial.result = system.run();
    EXPECT_EQ(system.restarts_executed(), 2u);
    serial.per_node_discoveries = system.metrics().per_node_discoveries();
    serial.total_reports = system.metrics().total_reports();
  }
  {
    auto pconfig = config;
    pconfig.worker_threads = 4;
    DspSystem system(pconfig);
    system.schedule_restart(1, 4.0);
    system.schedule_restart(2, 7.5);
    parallel.result = system.run();
    EXPECT_EQ(system.restarts_executed(), 2u);
    parallel.per_node_discoveries = system.metrics().per_node_discoveries();
    parallel.total_reports = system.metrics().total_reports();
  }
  EXPECT_EQ(serial.result.reported_pairs, parallel.result.reported_pairs);
  EXPECT_EQ(serial.result.makespan_s, parallel.result.makespan_s);
  expect_counters_equal(serial.result.traffic, parallel.result.traffic);
  EXPECT_EQ(serial.per_node_discoveries, parallel.per_node_discoveries);
  EXPECT_EQ(serial.total_reports, parallel.total_reports);
}

TEST(ParallelDeterminism, HoldsUnderOverloadWithBackpressureOff) {
  // The one documented divergence caveat is *backpressure engaging
  // mid-epoch* (a dispatch-time backlog read cannot see sends buffered in
  // the same window). With backpressure disabled, an overloaded network —
  // bandwidth shaping active, busy links, arrival rate far beyond the 90
  // kbps budget — must still be bit-identical: link busy-until state is
  // sender-owned and advances in dispatch order on the owning strand.
  auto config = base_config(PolicyKind::kDftt, 7);
  config.arrivals_per_second = 120.0;
  config.tuples_per_node = 150;
  config.max_backlog_s = 0.0;  // disable backpressure
  expect_identical(run(config, 0), run(config, 4));
}

TEST(ParallelDeterminism, OracleOffStillDeterministic) {
  // The scaling bench disables the oracle; the driver must stay identical
  // (epsilon degenerates, traffic and |Psi-hat| must not).
  auto config = base_config(PolicyKind::kSketch, 1234);
  config.oracle_enabled = false;
  expect_identical(run(config, 0), run(config, 6));
}

}  // namespace
}  // namespace dsjoin::core
