// Node daemon: one process hosting one core::Node of the distributed join.
//
// Lifecycle (driven by the coordinator over the control socket):
//
//   bind data listener (ephemeral) -> dial coordinator (retry) -> HELLO
//   -> CONFIG (learn node id, experiment config, peer endpoints)
//   -> form the data mesh -> heartbeat MESHED -> START
//   -> ingest this node's slice of the deterministic arrival schedule
//   -> heartbeat DONE -> DRAIN -> FIN handshake -> METRICS_REPORT -> BYE
//
// The per-node lifecycle itself — frame dispatch, arrival ingestion, the
// two-phase FIN drain and the final NodeReport — lives in core::NodeHost,
// and the thread that runs it in runtime::DataPlane, both shared with the
// in-process backend. What remains here is what only a real daemon needs:
// the control-plane conversation.
//
// Threading. Two threads share the node:
//   * the data plane's one thread owns the node: it reads every peer
//     socket, delivers each wire record, ingests this node's slice of the
//     arrival schedule, and writes without ever blocking, so a peer
//     blasting at us can never deadlock against our own sends (the
//     classic TCP full-mesh buffer deadlock);
//   * the main thread runs the control loop (coordinator messages and
//     heartbeats) and, at DRAIN, the FIN handshake, whose calls into the
//     host are internally synchronized.
#pragma once

#include <cstdint>
#include <memory>

#include "dsjoin/common/status.hpp"
#include "dsjoin/core/schedule.hpp"
#include "dsjoin/net/channel.hpp"
#include "dsjoin/runtime/control.hpp"
#include "dsjoin/runtime/data_plane.hpp"

namespace dsjoin::runtime {

struct DaemonOptions {
  net::Endpoint coordinator;
  /// Budget for dialing the coordinator (capped-backoff retry) and for
  /// waiting on CONFIG / START.
  double connect_timeout_s = 20.0;
  /// Replay arrivals in real time (sleep to each tuple's virtual
  /// timestamp) instead of as fast as possible. Keeps a run open long
  /// enough for mid-stream fault injection.
  bool pace = false;
  /// Guard on the FIN handshake; on expiry the daemon reports whatever
  /// results it holds instead of hanging.
  double drain_timeout_s = 20.0;
};

/// Runs one node's full daemon lifecycle. Single-run, like DspSystem.
class NodeDaemon {
 public:
  explicit NodeDaemon(DaemonOptions options) : options_(std::move(options)) {}

  /// Blocks until the run completes (BYE) or fails. A dead *peer* is not a
  /// failure — the daemon degrades and still reports; a dead coordinator
  /// or an unformable mesh is.
  common::Status run();

  net::NodeId node_id() const noexcept { return node_id_; }

 private:
  common::Status handshake(net::MsgSocket& control, ConfigMsg* out);
  void send_heartbeat(net::MsgSocket& control, DaemonState state);

  DaemonOptions options_;
  net::NodeId node_id_ = 0;
  std::uint32_t nodes_ = 0;
  core::SystemConfig config_;
  double heartbeat_period_s_ = 0.2;

  core::ArrivalSchedule schedule_;
  std::unique_ptr<DataPlane> plane_;  // stopped at DRAIN
};

}  // namespace dsjoin::runtime
