// The benchmark's workloads and the configs they run.
//
// Each workload loads a different layer, so a gain in one layer shows on
// one workload and the prediction on the others is no change:
//
//   * tcp-rr   — the socket data plane (TcpTransport sends, SendBuffer
//                coalescing, receiver threads, the coarse node lock), the
//                partitioned TupleStore and post-drain accounting; no
//                summaries and no watermark sync.
//   * tcp-dftt — the same transport and host used the paper's way: DFTT
//                routing (sliding DFT, reconstruction-based membership),
//                piggybacked coefficients, watermark frames and ingest
//                chunks cut at every visibility epoch.
//   * sim-mq8  — the serial simulator at Fig. 11 scale with all four
//                summary families live (eight queries): substrate,
//                policies, summary codecs, event queue and oracle; no
//                sockets and no threads.
//
// A config is built only from nodes, regions, tuples_per_node, seed and a
// core::parse_queries string; every other SystemConfig field keeps its
// default, so the benchmark follows the defaults the program ships.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dsjoin/core/config.hpp"
#include "dsjoin/core/experiment.hpp"

namespace perfbench {

struct Workload {
  const char* name;
  dsjoin::core::Backend backend;
  std::uint32_t nodes;
  const char* queries;  ///< core::parse_queries spelling
  std::uint64_t tuples_per_node;  ///< per node and stream side
  /// Distinct arrival schedules one run cycles through. Pooling several
  /// keeps the deterministic metrics (epsilon, bytes and frames per
  /// result) from following the quirks of one schedule; DFTT's epsilon
  /// varies most between schedules, so tcp-dftt pools the most.
  std::size_t schedules;
};

/// Every workload, in the order BENCHMARK.json lists them.
const std::vector<Workload>& workloads();

/// The workload called `name`, or nullptr.
const Workload* find_workload(const std::string& name);

/// Distinct configs one run cycles through. Pooling a few arrival
/// schedules keeps the deterministic metrics (epsilon, bytes and frames
/// per result) from following the quirks of a single schedule.
inline constexpr std::size_t kSchedulesPerRun = 3;

/// Seed of schedule `index` in a run started with `seed`; schedule 0 uses
/// the seed itself.
std::uint64_t schedule_seed(std::uint64_t seed, std::size_t index);

/// The config for one schedule of `workload`. Throws std::invalid_argument
/// when the query spelling or the assembled config is rejected.
dsjoin::core::SystemConfig make_config(const Workload& workload,
                                       std::uint64_t seed);

}  // namespace perfbench
