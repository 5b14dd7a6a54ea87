// Batching-transparency parity: coalescing wire frames must change syscall
// counts and header bytes only — never which pairs a run reports, its
// epsilon, or its *logical* traffic accounting. The same config runs with
// coalescing off (coalesce_frames = 1) and on (32) across the simulator,
// the in-process TCP harness, and the fork-based multiprocess driver, and
// every observable except the physical wire-record counters must match
// element-wise.
//
// Policies under test: RR (deterministic routing by construction) and DFTT
// with live summary exchange. Coefficients publish and apply at stamped
// virtual-time epoch boundaries (DESIGN.md §12), so a summary-driven
// policy's pair set is a pure function of the arrival schedule and config —
// comparable exactly across backends and batching modes. (This retires the
// old "bootstrap-deterministic" restriction that suppressed every summary
// epoch to keep routing comparable; the full policy × backend × coalescing
// matrix lives in backend_parity_test.cpp.)
//
// What is compared: the pair set (element-wise), epsilon, kTuple/kSummary
// logical frame+byte counters, and kControl counters among the socket
// backends (the simulator sends no FIN frames). kResult frame counts are
// excluded: remote matches are grouped into result frames per delivery
// slice, so their *count* (not their content) is interleaving-dependent.
// These tests fork() via the multiprocess backend, so they are filtered
// out of the TSan job next to Multiprocess.* / BackendParity.*.
#include <gtest/gtest.h>

#include <vector>

#include "dsjoin/core/experiment.hpp"
#include "dsjoin/core/system.hpp"
#include "dsjoin/runtime/engine.hpp"

namespace dsjoin {
namespace {

core::SystemConfig batched_parity_config(core::PolicyKind policy,
                                         std::uint32_t coalesce_frames) {
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
  config.summary_epoch_tuples = 64;  // summaries live: epochs do complete
  config.max_backlog_s = 0.0;  // keep sim arrivals == materialized schedule
  config.coalesce_frames = coalesce_frames;
  return config;
}

core::ExperimentResult run_backend(const core::SystemConfig& config,
                                   core::Backend backend) {
  runtime::EngineOptions options;
  options.backend = backend;
  return runtime::run_experiment(config, options);
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
    EXPECT_EQ(a.traffic.frames(FrameKind::kControl),
              b.traffic.frames(FrameKind::kControl));
  }
}

void expect_batching_transparent(core::PolicyKind policy,
                                 bool expect_summary_traffic) {
  const core::Backend backends[] = {core::Backend::kSim,
                                    core::Backend::kTcpInprocess,
                                    core::Backend::kMultiprocess};
  std::vector<core::ExperimentResult> off, on;
  for (const auto backend : backends) {
    off.push_back(run_backend(batched_parity_config(policy, 1), backend));
    on.push_back(run_backend(batched_parity_config(policy, 32), backend));
  }

  for (std::size_t i = 0; i < off.size(); ++i) {
    for (const auto* result : {&off[i], &on[i]}) {
      ASSERT_TRUE(result->clean) << result->error;
      EXPECT_EQ(result->decode_failures, 0u);
      EXPECT_EQ(result->late_summaries, 0u);
      EXPECT_EQ(result->false_pairs, 0u);
      EXPECT_GT(result->reported_pairs, 0u);
      const auto summary_bytes =
          result->traffic.bytes(net::FrameKind::kSummary) +
          result->traffic.piggyback_bytes;
      if (expect_summary_traffic) {
        // Live summary plane: batching transparency is only meaningful if
        // coefficients actually crossed the wire.
        EXPECT_GT(summary_bytes, 0u);
      } else {
        EXPECT_EQ(summary_bytes, 0u);
      }
    }
  }

  // Reference observables: the coalescing-off simulator run.
  const auto& reference = off[0];
  for (std::size_t i = 0; i < off.size(); ++i) {
    for (const auto* result : {&off[i], &on[i]}) {
      EXPECT_EQ(result->pairs, reference.pairs)
          << "backend " << core::to_string(result->backend);
      EXPECT_EQ(result->epsilon, reference.epsilon);
      EXPECT_EQ(result->reported_pairs, reference.reported_pairs);
      EXPECT_EQ(result->exact_pairs, reference.exact_pairs);
      const bool socket_pair = result->backend != core::Backend::kSim;
      expect_same_logical_traffic(*result, reference,
                                  /*compare_control=*/false);
      if (socket_pair) {
        // Control counts — FIN handshake plus quantized watermark
        // announcements — agree among the socket backends (the simulator
        // needs neither).
        expect_same_logical_traffic(*result, off[1], /*compare_control=*/true);
      }
    }
  }

  // The physical layer is where batching is allowed — required, even — to
  // differ: coalesced socket runs must actually share headers.
  for (std::size_t i = 1; i < std::size(backends); ++i) {
    EXPECT_EQ(off[i].traffic.header_bytes_saved, 0u)
        << core::to_string(backends[i]);
    EXPECT_EQ(off[i].traffic.wire_records, off[i].traffic.total_frames())
        << core::to_string(backends[i]);
    EXPECT_GT(on[i].traffic.header_bytes_saved, 0u)
        << core::to_string(backends[i]);
    EXPECT_LT(on[i].traffic.wire_records, on[i].traffic.total_frames())
        << core::to_string(backends[i]);
  }
}

TEST(BatchedWireParity, RoundRobinTransparentAcrossBackends) {
  expect_batching_transparent(core::PolicyKind::kRoundRobin,
                              /*expect_summary_traffic=*/false);
}

TEST(BatchedWireParity, SummaryActiveDfttTransparentAcrossBackends) {
  expect_batching_transparent(core::PolicyKind::kDftt,
                              /*expect_summary_traffic=*/true);
}

}  // namespace
}  // namespace dsjoin
