// The experiment engine's backend seam.
//
// run_experiment(config, options) executes one experiment on the chosen
// backplane and returns the unified core::ExperimentResult:
//
//   * Backend::kSim — the deterministic WAN simulator (core::DspSystem):
//     virtual time, modeled links, bit-identical runs. What every figure
//     uses by default.
//   * Backend::kTcpInprocess — every node in this process, each a
//     DataPlane (the daemon's data plane) over a loopback mesh, drained
//     by the shared two-phase FIN state machine. Real sockets, one
//     address space, no lock shared between nodes.
//   * Backend::kMultiprocess — one forked child process per node, each
//     running the full NodeDaemon lifecycle against an in-process
//     Coordinator: the complete control plane, mesh, drain and wire-level
//     metrics path, launched from a single call.
//
// All three produce their numbers through the same core helpers
// (aggregate_node_reports / verify_against_schedule /
// finalize_derived_metrics), so a figure's epsilon means the same thing
// whichever backplane computed it.
#pragma once

#include "dsjoin/core/config.hpp"
#include "dsjoin/core/experiment.hpp"

namespace dsjoin::runtime {

struct EngineOptions {
  core::Backend backend = core::Backend::kSim;
  /// Recompute the arrival schedule and oracle for epsilon / false-pair
  /// accounting on the socket backends (the simulator's in-run oracle is
  /// governed by config.oracle_enabled).
  bool verify = true;
};

/// Runs one experiment on the chosen backend. Superset of
/// core::run_experiment(config), which is the kSim case.
core::ExperimentResult run_experiment(const core::SystemConfig& config,
                                      const EngineOptions& options = {});

}  // namespace dsjoin::runtime
