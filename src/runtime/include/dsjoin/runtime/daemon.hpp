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
// shared with the other engine backends. What remains here is what only a
// real daemon needs: the control-plane conversation and the threading.
//
// Threading. Four threads share the node:
//   * the mesh's one receiver thread (inside net::MeshTransport, polling
//     every peer socket) only *enqueues* incoming frames — it never
//     touches the node, so a peer blasting at us can never deadlock
//     against our own blocked sends (the classic TCP full-mesh buffer
//     deadlock);
//   * a dispatcher thread drains that queue into host.deliver under the
//     node mutex;
//   * an arrival thread feeds the local schedule via host.ingest under the
//     same mutex;
//   * the main thread runs the control loop (coordinator messages +
//     heartbeats).
#pragma once

#include <atomic>
#include <cstdint>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "dsjoin/common/status.hpp"
#include "dsjoin/core/node_host.hpp"
#include "dsjoin/net/channel.hpp"
#include "dsjoin/net/mesh_transport.hpp"
#include "dsjoin/runtime/control.hpp"

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
  ~NodeDaemon();

  /// Blocks until the run completes (BYE) or fails. A dead *peer* is not a
  /// failure — the daemon degrades and still reports; a dead coordinator
  /// or an unformable mesh is.
  common::Status run();

  net::NodeId node_id() const noexcept { return node_id_; }

 private:
  /// One ordered unit of data-plane input: every logical frame of one
  /// decoded wire record (in send order), or a peer-death marker queued by
  /// the mesh after the peer's last frame. Enqueuing whole records keeps
  /// queue traffic and dispatcher lock acquisitions per record, not per
  /// frame.
  struct QueueItem {
    bool peer_down = false;
    net::NodeId peer = 0;
    std::vector<net::Frame> frames;
  };

  common::Status handshake(net::MsgSocket& control, ConfigMsg* out);
  void dispatcher_loop();
  void arrival_loop();
  void enqueue(QueueItem item);
  void send_heartbeat(net::MsgSocket& control, DaemonState state);
  void stop_threads();

  DaemonOptions options_;
  net::NodeId node_id_ = 0;
  std::uint32_t nodes_ = 0;
  core::SystemConfig config_;
  double heartbeat_period_s_ = 0.2;

  std::unique_ptr<net::MeshTransport> mesh_;
  std::unique_ptr<core::NodeHost> host_;

  // Serializes node access between the arrival and dispatcher threads.
  std::mutex node_mutex_;

  // Frame queue (mesh receiver -> dispatcher).
  std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::deque<QueueItem> queue_;
  bool queue_stopped_ = false;

  std::atomic<bool> arrivals_done_{false};
  std::atomic<bool> stop_{false};
  std::thread dispatcher_;
  std::thread arrival_;
};

}  // namespace dsjoin::runtime
