// One run of one schedule, untraced or traced.
//
// Untraced runs go through the production entry points: on sockets
// runtime::run_experiment, on the simulator the core::DspSystem
// constructor then run() (what run_experiment does for kSim). Traced runs
// drive the same layers from the benchmark's own code, making the public
// calls runtime::run_inprocess_tcp and DspSystem make, each wrapped in a
// span, with every Transport::send timed through a decorator. The traced
// drivers must reproduce the untraced deterministic outputs exactly; the
// caller checks that (see checks.hpp), so a driver that has drifted from
// the program fails instead of tracing a different program.
#pragma once

#include <cstdint>
#include <vector>

#include "dsjoin/core/config.hpp"
#include "dsjoin/core/experiment.hpp"
#include "dsjoin/stream/tuple.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

/// Wall-clock split of one run: `window_s` is the ingest window whose
/// arrivals/s the benchmark reports, `setup_s` is everything else the run
/// spent, so work moved out of the window shows up in setup_s.
struct RunTiming {
  double setup_s = 0.0;
  double window_s = 0.0;
};

/// Socket backends: the window is the engine's makespan_s (first ingest to
/// drain complete) and setup is the rest of the run_experiment call:
/// schedule, mesh and hosts before it; reports, pair dedup and
/// verification after it.
RunTiming socket_timing(double call_s, double makespan_s);

/// Simulator: setup is the DspSystem constructor and the window is run().
RunTiming sim_timing(Clock::time_point before_construct,
                     Clock::time_point after_construct,
                     Clock::time_point after_run);

/// Counts a traced run reads from the layers' public accessors.
struct LayerCounts {
  std::uint64_t substrate_ingest_ops = 0;  ///< summed over nodes
  std::uint64_t wire_records = 0;          ///< sockets: records written
  std::uint64_t logical_frames = 0;        ///< sockets: frames in them
  std::uint64_t deliveries = 0;            ///< sockets: batch-handler calls
  std::uint64_t delivered_frames = 0;      ///< frames handed to NodeHost::deliver
  std::uint64_t send_failures = 0;         ///< non-OK Transport::send
  std::uint64_t sim_events = 0;            ///< simulator: events run
};

struct RunOutcome {
  dsjoin::core::ExperimentResult result;
  RunTiming timing;
  std::vector<Span> spans;  ///< traced runs only
  LayerCounts counts;       ///< traced runs only
  /// Traced simulator runs: every arrival in emission order, for the
  /// false-pair check (backpressure moves them off the ArrivalSchedule).
  std::vector<dsjoin::stream::Tuple> arrivals;
};

/// The workload's production path, untraced.
RunOutcome run_untraced(const Workload& workload,
                        const dsjoin::core::SystemConfig& config);

/// The same run driven by the benchmark with every layer call traced.
/// Throws std::runtime_error for a config the traced drivers do not cover
/// (they replicate the batched socket path and the serial simulator).
RunOutcome run_traced(const Workload& workload,
                      const dsjoin::core::SystemConfig& config);

/// Wall time of constructing (and not running) one DspSystem — extra
/// setup_s samples for the simulator, whose constructor is short.
double sim_setup_sample(const dsjoin::core::SystemConfig& config);

/// The config on the serial simulator: the parity reference and the
/// single-threaded baseline for the socket workloads.
RunOutcome run_sim_baseline(const dsjoin::core::SystemConfig& config);

}  // namespace perfbench
