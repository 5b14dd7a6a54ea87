// One node's end of the full TCP mesh.
//
// MeshTransport owns node `self`'s listener and its N-1 peer sockets. It is
// the one socket data plane: a node daemon holds one (each peer in another
// process, possibly on another machine), and TcpTransport holds N of them
// in one process. Frames use the shared wire codec (channel.hpp).
//
// Formation: node i dials every higher-numbered peer (with capped-backoff
// retry, since daemons start in arbitrary order) and accepts from every
// lower-numbered one; the dialer identifies itself with a u32 node id.
//
// Threading: one receiver thread polls all of the node's peer sockets with
// poll(2) and invokes the delivery handler inline, so handlers must be
// internally synchronized or single-node-owned. It reads one wire record
// at a time and blocks until the whole record has arrived, so a peer that
// stops mid-record holds the node's other links until it resumes or
// closes.
//
// Peer death is a first-class event here, not an error: a SIGKILLed peer
// shows up as EOF on its socket. The link leaves the poll set, sends to the
// peer return kUnavailable, and the peer-down callback fires after the
// link's last delivered frame (preserving per-link FIFO even across the
// death) — the graceful-degradation contract of the distributed runtime.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "dsjoin/net/channel.hpp"
#include "dsjoin/net/transport.hpp"

namespace dsjoin::net {

struct MeshOptions {
  /// Per-peer budget for mesh formation (dial retries / accept waits).
  double connect_timeout_s = 20.0;
  double dial_base_delay_s = 0.05;
  double dial_max_delay_s = 1.0;
  /// Per-peer SendBuffer flush budgets; the default (max_frames = 1)
  /// writes one wire record per frame.
  CoalesceOptions coalesce;
};

/// One node's end of a full TCP mesh.
class MeshTransport final : public Transport {
 public:
  /// Takes ownership of the already-bound data listener (bind-before-HELLO
  /// is what lets the daemon advertise a real ephemeral port). Peer sockets
  /// are not opened until connect_mesh().
  ///
  /// @param peers  endpoint per node id, self's entry ignored.
  MeshTransport(NodeId self, std::size_t nodes, UniqueFd listener,
                std::vector<Endpoint> peers, MeshOptions options = {});
  ~MeshTransport() override;

  /// Invoked (from the receiver thread) when a peer's data socket hits EOF
  /// or a corrupt record outside shutdown. Set before connect_mesh();
  /// called at most once per peer.
  void set_peer_down(std::function<void(NodeId)> callback) {
    peer_down_ = std::move(callback);
  }

  /// Forms the mesh: dials higher-numbered peers (retrying while they come
  /// up), accepts lower-numbered ones, then starts the receiver thread.
  /// Everything stays down on failure; safe to destroy afterwards.
  common::Status connect_mesh();

  std::size_t node_count() const noexcept override { return nodes_; }

  /// Installs the per-frame handler for node `self` (other ids are not
  /// hosted here and are ignored). May be called while frames flow.
  void register_handler(NodeId node, DeliveryHandler handler) override;

  /// Installs a whole-record delivery handler, preferred over the
  /// per-frame one when both are set, so the receiving side can amortize
  /// its locking across a coalesced record. May be called while frames
  /// flow.
  void set_batch_handler(BatchDeliveryHandler handler);

  common::Status send(Frame&& frame) override;
  const TrafficCounters& stats() const noexcept override { return totals_; }

  /// Race-free copy of the counters for traffic sent by this node (stats()
  /// hands out the live object, which concurrent senders keep mutating).
  TrafficCounters stats_snapshot() const {
    std::lock_guard lock(totals_mutex_);
    return totals_;
  }
  double send_backlog_seconds(NodeId) const noexcept override { return 0.0; }

  bool peer_alive(NodeId peer) const noexcept {
    return peer < nodes_ && peer != self_ && alive_[peer].load();
  }

  /// Marks a peer dead without a socket event (e.g. the coordinator's
  /// DRAIN carried it in the dead list). Sends to it start failing. The
  /// peer-down callback is not invoked here, but the receiver may still
  /// fire it when the socket eventually EOFs — callers must treat peer
  /// death idempotently.
  void mark_peer_dead(NodeId peer) noexcept;

  /// Fails further sends and wakes the receiver without waiting for it.
  /// Stopping every mesh of a process before joining any lets their
  /// receivers wind down together. Safe to call twice.
  void stop() noexcept;

  /// stop(), then joins the receiver and closes every socket. Safe to call
  /// twice.
  void shutdown();

 private:
  void receiver_loop();

  NodeId self_;
  std::size_t nodes_;
  UniqueFd listener_;
  std::vector<Endpoint> peers_;
  MeshOptions options_;
  std::function<void(NodeId)> peer_down_;
  // Written by the handler setters while the receiver may already be
  // polling, so the receiver copies them out under the lock once per
  // record and invokes the copy unlocked.
  DeliveryHandler handler_;
  BatchDeliveryHandler batch_handler_;
  std::mutex handlers_mutex_;

  std::atomic<bool> running_{true};
  // By peer id. A socket is closed only under its send mutex, so a send
  // racing shutdown() never writes to a closed or reused descriptor.
  std::vector<UniqueFd> peer_fds_;
  std::vector<std::unique_ptr<std::mutex>> send_mutexes_;
  std::vector<SendBuffer> send_buffers_;  // guarded by send_mutexes_
  std::vector<std::atomic<bool>> alive_;
  TrafficCounters totals_;
  mutable std::mutex totals_mutex_;
  std::thread receiver_;
};

}  // namespace dsjoin::net
