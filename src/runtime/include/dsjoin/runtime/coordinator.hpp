// Coordinator: admits node daemons, distributes the experiment config,
// starts the run, watches liveness, drives the drain, and aggregates the
// wire-shipped metrics into one experiment report.
//
// The coordinator is the distributed runtime's analogue of DspSystem's
// driver loop: it owns the global views a single process got for free —
// the exact-join oracle (recomputed from the deterministic arrival
// schedule) and the globally deduplicated pair set (each daemon ships the
// pairs it discovered; a pair found at both owners must count once).
//
// Failure model: a daemon that closes its control socket, errors it, or
// goes silent past the heartbeat timeout is dead. Deaths after START
// degrade the run (survivors drain around the hole, coverage is partial,
// epsilon honest) — they do not fail it. Deaths before START fail the run,
// because the mesh cannot form without every member.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "dsjoin/core/config.hpp"
#include "dsjoin/core/experiment.hpp"
#include "dsjoin/net/channel.hpp"
#include "dsjoin/net/stats.hpp"
#include "dsjoin/runtime/control.hpp"

namespace dsjoin::runtime {

struct CoordinatorOptions {
  /// Control listener port; 0 binds ephemeral (read back via port()).
  std::uint16_t port = 0;
  core::SystemConfig config;
  /// Budget for all config.nodes daemons to dial in and HELLO.
  double admit_timeout_s = 30.0;
  /// Budget for the mesh to form (each daemon's dial/accept window, and
  /// the coordinator's wait for every MESHED heartbeat).
  double mesh_timeout_s = 20.0;
  double heartbeat_period_s = 0.2;
  /// A live daemon silent for this long is declared dead. Generous versus
  /// the period: a busy loopback box schedules threads unevenly.
  double heartbeat_timeout_s = 5.0;
  /// Hard ceiling on the whole ingest phase (START -> all DONE).
  double run_timeout_s = 120.0;
  /// Budget for the FIN drain plus metrics reports.
  double drain_timeout_s = 30.0;
  /// Recompute the arrival schedule and oracle for epsilon/false-pair
  /// accounting (skippable for pure smoke runs).
  bool verify = true;
};

/// Outcome of one distributed run — the engine's unified result struct
/// (the coordinator's REPORT line and DspSystem::run() are the same fields
/// computed by the same core helpers). `clean` means the protocol ran to
/// completion, possibly degraded (nodes_failed > 0); false means a
/// setup-phase failure, see `error`. exact_pairs / false_pairs / epsilon
/// are filled only when CoordinatorOptions::verify is set.
using RunReport = core::ExperimentResult;

class Coordinator {
 public:
  /// Binds the control listener (throws std::runtime_error on failure —
  /// setup is not a recoverable path, as for net::form_local_mesh).
  explicit Coordinator(CoordinatorOptions options);

  /// The control port daemons should dial.
  std::uint16_t port() const noexcept { return port_; }

  /// Drives one complete run. Blocks until the report is final; never
  /// throws for daemon misbehavior or death.
  RunReport run();

 private:
  struct Member {
    net::MsgSocket control;
    net::Endpoint data_endpoint;
    DaemonState state = DaemonState::kJoining;
    std::chrono::steady_clock::time_point last_heard;
    bool alive = true;
    bool reported = false;
    MetricsReportMsg report;
  };

  /// Accepts and HELLOs config.nodes daemons. Empty return = error text.
  std::string admit(std::vector<Member>* members);
  /// Polls every live member once; updates states, declares deaths.
  /// Heartbeat-silence deaths are only enforced when asked: daemons
  /// legitimately go quiet while blocked in the FIN drain.
  void poll_members(std::vector<Member>* members, bool enforce_heartbeat);
  void finalize(const std::vector<Member>& members, RunReport* report);

  CoordinatorOptions options_;
  net::UniqueFd listener_;
  std::uint16_t port_ = 0;
};

}  // namespace dsjoin::runtime
