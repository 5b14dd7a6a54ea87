// Cross-backend parity: the same SystemConfig run through the simulator,
// the in-process TCP harness, and the fork-based multiprocess driver must
// produce the identical experiment result.
//
// This is the contract the engine refactor exists to keep: the three
// backplanes share one NodeHost lifecycle, one ArrivalSource arrival truth
// and one result-assembly path. Since summary exchanges became virtual-time
// stamped (DESIGN.md §12), the contract covers EVERY policy — summary-driven
// routing included — because a summary's application point is a pure
// function of (stamp, config), not of transport latency. The matrix below
// pins it: {BASE, DFT, DFTT, BLOOM, SKCH, SMPL} × {sim, tcp-inprocess,
// multiprocess} × coalescing {off, on}, asserting identical pair sets,
// epsilon and logical traffic counters everywhere.
//
// Suites and sanitizer jobs: BackendParity and BackendParityMatrix cover
// all three backends and therefore fork() — they are filtered out of the
// TSan job next to Multiprocess.*. SummarySyncParity runs the same matrix,
// and EvictingSyncParity the evicting rows, over the two in-process
// backends only, so the watermark handshake, the pending-summary store and
// the per-node data planes do get TSan coverage (the suite names
// deliberately do not start with "BackendParity": gtest filters treat '.'
// as a wildcard).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "dsjoin/core/experiment.hpp"
#include "dsjoin/core/system.hpp"
#include "dsjoin/net/frame.hpp"
#include "dsjoin/runtime/engine.hpp"

namespace dsjoin {
namespace {

core::SystemConfig parity_config(core::PolicyKind policy) {
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
  // With backpressure off, the simulator's streamed arrivals equal the
  // materialized ArrivalSchedule the socket backends ingest (PR 1 pins
  // this bit-identically), so all backends see the same tuple sequence.
  config.max_backlog_s = 0.0;
  return config;
}

core::ExperimentResult run_backend(const core::SystemConfig& config,
                                   core::Backend backend) {
  runtime::EngineOptions options;
  options.backend = backend;
  return runtime::run_experiment(config, options);
}

// tcp-rr's shape: 200 s of arrivals per node and side against a 2w = 20 s
// eviction horizon, so every backend's nodes evict throughout the run and
// an unpaced socket receiver may lag its peers by more than a horizon.
core::SystemConfig evicting_config(core::PolicyKind policy) {
  core::SystemConfig config;
  config.nodes = 4;
  config.queries.front().policy = policy;
  config.tuples_per_node = 5000;
  config.arrivals_per_second = 25.0;
  config.queries.front().join_half_width_s = 10.0;
  config.max_backlog_s = 0.0;
  return config;
}

/// Runs `config` on each of `backends` (the simulator first) and requires
/// every run to match the simulator's exactly.
void expect_parity(const core::SystemConfig& config,
                   const std::vector<core::Backend>& backends = {
                       core::Backend::kSim, core::Backend::kTcpInprocess,
                       core::Backend::kMultiprocess}) {
  std::vector<core::ExperimentResult> results;
  for (const auto backend : backends) {
    results.push_back(run_backend(config, backend));
  }
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& result = results[i];
    EXPECT_TRUE(result.clean) << result.error;
    EXPECT_EQ(result.error, "");
    EXPECT_EQ(result.nodes_admitted, config.nodes);
    EXPECT_EQ(result.nodes_failed, 0u);
    EXPECT_EQ(result.decode_failures, 0u);
    EXPECT_EQ(result.false_pairs, 0u);
    EXPECT_EQ(result.total_arrivals, 2 * config.nodes * config.tuples_per_node);
    EXPECT_EQ(result.backend, backends[i]);
  }

  // The headline numbers must agree exactly, not approximately.
  const auto& sim = results.front();
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(sim.exact_pairs, results[i].exact_pairs);
    EXPECT_EQ(sim.reported_pairs, results[i].reported_pairs);
    EXPECT_EQ(sim.epsilon, results[i].epsilon);
  }
  EXPECT_GT(sim.reported_pairs, 0u);
}

TEST(BackendParity, RoundRobinIdenticalAcrossBackends) {
  expect_parity(parity_config(core::PolicyKind::kRoundRobin));
}

TEST(BackendParity, BaseIdenticalAcrossBackends) {
  expect_parity(parity_config(core::PolicyKind::kBase));
}

TEST(BackendParity, RoundRobinIdenticalWhileEvicting) {
  expect_parity(evicting_config(core::PolicyKind::kRoundRobin));
}

TEST(BackendParity, BaseIdenticalWhileEvicting) {
  expect_parity(evicting_config(core::PolicyKind::kBase));
}

TEST(BackendParity, DfttIdenticalWhileEvicting) {
  expect_parity(evicting_config(core::PolicyKind::kDftt));
}

// The evicting shape on the two in-process backends only: no fork, so the
// TSan job runs the socket backend's free-running per-node loops while
// every node evicts. RR has no summary sync, so its loops drift furthest
// apart; DFTT's wait on each other's watermarks.
TEST(EvictingSyncParity, RoundRobinSimAndInprocessTcpAgree) {
  expect_parity(evicting_config(core::PolicyKind::kRoundRobin),
                {core::Backend::kSim, core::Backend::kTcpInprocess});
}

TEST(EvictingSyncParity, DfttSimAndInprocessTcpAgree) {
  expect_parity(evicting_config(core::PolicyKind::kDftt),
                {core::Backend::kSim, core::Backend::kTcpInprocess});
}

// ---------------------------------------------------------------------------
// The full parity matrix.

struct MatrixCase {
  core::PolicyKind policy;
  std::uint32_t coalesce_frames;  ///< 1 = per-frame wire records, >1 = batched
  bool summary_driven;            ///< expects summary traffic on the wire
  std::uint32_t quant_bits = 0;   ///< summary_quant_bits (0 = f64 coefficients)
  std::uint32_t sample_capacity = 0;  ///< SMPL reservoir capacity (0 = auto)
};

constexpr MatrixCase kMatrix[] = {
    {core::PolicyKind::kBase, 1, false},
    {core::PolicyKind::kBase, 32, false},
    {core::PolicyKind::kDft, 1, true},
    {core::PolicyKind::kDft, 32, true},
    {core::PolicyKind::kDft, 32, true, 8},
    {core::PolicyKind::kDft, 32, true, 16},
    {core::PolicyKind::kDftt, 1, true},
    {core::PolicyKind::kDftt, 32, true},
    {core::PolicyKind::kDftt, 32, true, 16},
    {core::PolicyKind::kBloom, 1, true},
    {core::PolicyKind::kBloom, 32, true},
    {core::PolicyKind::kSketch, 1, true},
    {core::PolicyKind::kSketch, 32, true},
    {core::PolicyKind::kSample, 1, true},
    {core::PolicyKind::kSample, 32, true},
    {core::PolicyKind::kSample, 32, true, 0, 128},
};

std::string matrix_case_name(const ::testing::TestParamInfo<MatrixCase>& info) {
  std::string name = std::string(core::to_string(info.param.policy)) +
                     (info.param.coalesce_frames > 1 ? "_Coalesced" : "_PerFrame");
  if (info.param.quant_bits != 0) {
    name += "_Quant" + std::to_string(info.param.quant_bits);
  }
  if (info.param.sample_capacity != 0) {
    name += "_Cap" + std::to_string(info.param.sample_capacity);
  }
  return name;
}

core::SystemConfig matrix_config(const MatrixCase& matrix_case) {
  auto config = parity_config(matrix_case.policy);
  config.coalesce_frames = matrix_case.coalesce_frames;
  config.summary_quant_bits = matrix_case.quant_bits;
  config.sample_capacity = matrix_case.sample_capacity;
  return config;
}

void expect_same_logical_traffic(const core::ExperimentResult& a,
                                 const core::ExperimentResult& b,
                                 bool compare_control) {
  using net::FrameKind;
  for (const auto kind : {FrameKind::kTuple, FrameKind::kSummary}) {
    EXPECT_EQ(a.traffic.frames(kind), b.traffic.frames(kind))
        << "frame kind " << static_cast<int>(kind);
    EXPECT_EQ(a.traffic.bytes(kind), b.traffic.bytes(kind))
        << "frame kind " << static_cast<int>(kind);
  }
  EXPECT_EQ(a.traffic.piggyback_bytes, b.traffic.piggyback_bytes);
  if (compare_control) {
    // Watermark announcements are quantized to the visibility grid, so
    // their count is chunking-invariant and must agree across the socket
    // backends exactly (the simulator sends no control frames at all).
    EXPECT_EQ(a.traffic.frames(FrameKind::kControl),
              b.traffic.frames(FrameKind::kControl));
  }
}

/// Runs one matrix cell over `backends` and checks every backend against
/// the simulator run element-wise. kResult frames are excluded throughout:
/// remote matches are grouped into result frames per delivery slice, so
/// their count (not their content) is interleaving-dependent.
void expect_matrix_parity(const MatrixCase& matrix_case,
                          const std::vector<core::Backend>& backends) {
  const auto config = matrix_config(matrix_case);
  std::vector<core::ExperimentResult> results;
  results.reserve(backends.size());
  for (const auto backend : backends) {
    results.push_back(run_backend(config, backend));
  }

  for (const auto& result : results) {
    ASSERT_TRUE(result.clean) << result.error;
    EXPECT_EQ(result.nodes_failed, 0u);
    EXPECT_EQ(result.decode_failures, 0u);
    EXPECT_EQ(result.false_pairs, 0u);
    // The virtual-time plane buffers early summaries; a late one would mean
    // a watermark cover was violated (or timed out) somewhere.
    EXPECT_EQ(result.late_summaries, 0u)
        << core::to_string(result.backend);
    EXPECT_EQ(result.total_arrivals,
              2 * config.nodes * config.tuples_per_node);
    if (matrix_case.summary_driven) {
      // The cell must actually exercise the summary plane, or the parity
      // assertions below are vacuous.
      EXPECT_GT(result.traffic.bytes(net::FrameKind::kSummary) +
                    result.traffic.piggyback_bytes,
                0u)
          << core::to_string(result.backend);
    } else {
      // No summaries -> no stamps, no watermark sync, no new wire bytes:
      // the BASE/RR hot path stays byte-identical to the pre-stamp format.
      // (Socket backends still send kControl FIN frames during drain; the
      // cross-backend count equality below pins that no *additional*
      // watermark frames appeared.)
      EXPECT_EQ(result.traffic.frames(net::FrameKind::kSummary), 0u);
      EXPECT_EQ(result.traffic.piggyback_bytes, 0u);
    }
  }

  const auto& reference = results.front();  // the simulator run
  for (std::size_t i = 1; i < results.size(); ++i) {
    const auto& result = results[i];
    EXPECT_EQ(result.pairs, reference.pairs)
        << core::to_string(result.backend);
    EXPECT_EQ(result.reported_pairs, reference.reported_pairs);
    EXPECT_EQ(result.exact_pairs, reference.exact_pairs);
    EXPECT_EQ(result.epsilon, reference.epsilon)
        << core::to_string(result.backend);
    expect_same_logical_traffic(result, reference, /*compare_control=*/false);
  }
  // kControl parity holds among the socket backends (FIN handshake plus,
  // for summary policies, the quantized watermark announcements).
  for (std::size_t i = 2; i < results.size(); ++i) {
    expect_same_logical_traffic(results[i], results[1],
                                /*compare_control=*/true);
  }
  EXPECT_GT(reference.reported_pairs, 0u);

  if (matrix_case.coalesce_frames > 1) {
    // Physical counters are where coalescing must show: the logical parity
    // above is only meaningful if batching actually happened.
    for (std::size_t i = 1; i < results.size(); ++i) {
      EXPECT_GT(results[i].traffic.header_bytes_saved, 0u)
          << core::to_string(results[i].backend);
      EXPECT_LT(results[i].traffic.wire_records,
                results[i].traffic.total_frames())
          << core::to_string(results[i].backend);
    }
  }
}

/// All three backends; fork()s, so TSan filters this suite out.
class BackendParityMatrix : public ::testing::TestWithParam<MatrixCase> {};

TEST_P(BackendParityMatrix, IdenticalAcrossAllBackends) {
  expect_matrix_parity(GetParam(),
                       {core::Backend::kSim, core::Backend::kTcpInprocess,
                        core::Backend::kMultiprocess});
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, BackendParityMatrix,
                         ::testing::ValuesIn(kMatrix), matrix_case_name);

/// Simulator + in-process TCP only: no fork, safe under TSan, and the
/// pair that actually exercises the cross-thread watermark handshake.
class SummarySyncParity : public ::testing::TestWithParam<MatrixCase> {};

TEST_P(SummarySyncParity, SimAndInprocessTcpAgree) {
  expect_matrix_parity(GetParam(),
                       {core::Backend::kSim, core::Backend::kTcpInprocess});
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, SummarySyncParity,
                         ::testing::ValuesIn(kMatrix), matrix_case_name);

TEST(BackendParity, SocketBackendsMeasureWallClockMakespan) {
  const auto config = parity_config(core::PolicyKind::kRoundRobin);
  const auto tcp = run_backend(config, core::Backend::kTcpInprocess);
  ASSERT_TRUE(tcp.clean) << tcp.error;
  // Wall-clock makespan: positive, and far below the ~4 s virtual-time
  // span of the schedule (50 tuples/s, 100 tuples, loopback runs fast).
  EXPECT_GT(tcp.makespan_s, 0.0);
  EXPECT_GT(tcp.results_per_second, 0.0);
}

TEST(BackendParity, BackendNamesRoundTrip) {
  for (const auto backend :
       {core::Backend::kSim, core::Backend::kTcpInprocess,
        core::Backend::kMultiprocess}) {
    const auto parsed = core::backend_from_string(core::to_string(backend));
    ASSERT_TRUE(parsed.is_ok());
    EXPECT_EQ(parsed.value(), backend);
  }
  const auto bogus = core::backend_from_string("quantum");
  ASSERT_FALSE(bogus.is_ok());
  EXPECT_EQ(bogus.status().code(), common::ErrorCode::kInvalidArgument);
}

}  // namespace
}  // namespace dsjoin
