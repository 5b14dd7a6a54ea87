// Single-process entry points to the distributed runtime.
//
// run_local() runs the complete coordinator/daemon protocol — real
// loopback sockets, real control plane, real mesh — with every daemon on a
// thread of the calling process instead of its own process. It is the
// runtime's in-proc mode: what the examples use, and what lets unit tests
// cover the protocol without fork/exec.
//
// run_inprocess_tcp() is the baseline the acceptance criterion measures
// against: the same nodes in one process, each a runtime::DataPlane (the
// daemon's data plane) over an in-process loopback mesh, fed from the same
// deterministic arrival schedule. Each node keeps its own metrics; the
// pairs merge after the drain. The discovered-pair set is order-insensitive
// (a pair is found iff some node holds both tuples, routing is
// deterministic for the summary-free policies, eviction never drops a
// tuple a later frame could still match — DESIGN.md §21 — and both modes
// drain fully), so a distributed run must reproduce its pair count and
// epsilon exactly.
#pragma once

#include "dsjoin/core/config.hpp"
#include "dsjoin/runtime/coordinator.hpp"

namespace dsjoin::runtime {

struct LocalOptions {
  /// Replay arrivals in real time (see DaemonOptions::pace).
  bool pace = false;
  /// Forwarded to CoordinatorOptions::verify.
  bool verify = true;
};

/// Coordinator + config.nodes daemon threads over loopback TCP.
RunReport run_local(const core::SystemConfig& config, LocalOptions options = {});

/// Baseline: the same experiment with N data planes in this process, one
/// thread per node, sharing nothing but the arrival schedule.
RunReport run_inprocess_tcp(const core::SystemConfig& config);

}  // namespace dsjoin::runtime
