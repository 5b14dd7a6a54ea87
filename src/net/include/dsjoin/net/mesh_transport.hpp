// One node's end of the full TCP mesh.
//
// MeshTransport owns node `self`'s listener and its N-1 peer sockets. It is
// the one socket data plane: a node daemon holds one (each peer in another
// process, possibly on another machine), and the in-process backend and
// TcpTransport hold N of them in one process (form_local_mesh). Frames use
// the shared wire codec (channel.hpp).
//
// Formation: node i dials every higher-numbered peer (with capped-backoff
// retry, since daemons start in arbitrary order) and accepts from every
// lower-numbered one; the dialer identifies itself with a u32 node id.
//
// Threading: the transport starts no thread; one thread at a time drives it
// with poll(), which runs the delivery handler inline. send() may be called
// from any thread and never blocks: the encoded record joins the link's
// one queue of unsent bytes (which keeps per-link FIFO order), the socket
// takes what it can and poll() writes the rest. A peer that stops reading
// grows that queue instead of stalling the sender.
//
// Peer death is a first-class event here, not an error: a SIGKILLed peer
// shows up as EOF on its socket. The link leaves the poll set, sends to the
// peer return kUnavailable, and the peer-down callback fires after the
// link's last delivered record (preserving per-link FIFO even across the
// death) — the graceful-degradation contract of the distributed runtime.
#pragma once

#include <poll.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
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

  /// Invoked from poll() when a peer's data socket hits EOF or a corrupt
  /// record outside shutdown, after the link's last valid record. Set
  /// before the first poll(); called at most once per peer.
  void set_peer_down(std::function<void(NodeId)> callback) {
    peer_down_ = std::move(callback);
  }

  /// Forms the mesh: dials higher-numbered peers (retrying while they come
  /// up) and accepts lower-numbered ones. Starts no thread. Everything
  /// stays down on failure; safe to destroy afterwards.
  common::Status connect_mesh();

  std::size_t node_count() const noexcept override { return nodes_; }
  NodeId self() const noexcept { return self_; }

  /// Installs a per-frame handler for node `self` (other ids are not
  /// hosted here and are ignored), replacing any handler set before. May
  /// be called while another thread polls.
  void register_handler(NodeId node, DeliveryHandler handler) override;

  /// Installs a whole-record delivery handler, replacing any handler set
  /// before, so the receiving side can amortize its work across a
  /// coalesced record. May be called while another thread polls.
  void set_batch_handler(BatchDeliveryHandler handler);

  /// Queues the frame on its link and writes what the socket accepts.
  /// Never blocks.
  common::Status send(Frame&& frame) override;
  const TrafficCounters& stats() const noexcept override { return totals_; }

  /// Race-free copy of the counters for traffic sent by this node (stats()
  /// hands out the live object, which concurrent senders keep mutating).
  TrafficCounters stats_snapshot() const {
    std::lock_guard lock(totals_mutex_);
    return totals_;
  }
  double send_backlog_seconds(NodeId) const noexcept override { return 0.0; }

  /// One turn of the data plane. Waits up to `timeout_s` (negative: no
  /// limit) until a link is readable, a link with unsent bytes is
  /// writable, or wake() or shutdown() is called; then reads what each
  /// readable link holds, delivers every complete record in link order,
  /// and writes what each writable socket accepts. Returns false once the
  /// transport is shut down. One thread polls at a time.
  bool poll(double timeout_s);

  /// Ends a poll() that is waiting, or the next one, early. Any thread.
  void wake() noexcept;

  /// The most bytes any live link holds that its socket has not taken.
  std::size_t max_unsent_bytes() const noexcept;

  bool peer_alive(NodeId peer) const noexcept {
    return peer < nodes_ && peer != self_ && links_[peer].alive.load();
  }

  /// Marks a peer dead without a socket event (e.g. the coordinator's
  /// DRAIN carried it in the dead list) and drops what is queued for it.
  /// Sends to it start failing. The peer-down callback is not invoked
  /// here, but poll() may still fire it when the socket eventually EOFs —
  /// callers must treat peer death idempotently.
  void mark_peer_dead(NodeId peer);

  /// Fails further sends, ends a poll() in progress (every later one
  /// returns false at once) and closes every socket. Safe to call twice,
  /// from any thread.
  void shutdown();

 private:
  struct Link {
    UniqueFd fd;
    std::atomic<bool> alive{false};
    // Send side, guarded by send_mutex. A socket is closed only under it,
    // so a send racing shutdown() never writes to a closed or reused
    // descriptor.
    std::mutex send_mutex;
    SendBuffer buffer;
    std::vector<std::uint8_t> unsent;  // encoded records not yet written
    std::size_t unsent_head = 0;       // bytes of `unsent` already written
    std::atomic<std::size_t> unsent_bytes{0};
    // Receive side, owned by the polling thread.
    WireDecoder decoder;
    bool open = false;  // still in the poll set
  };

  /// Writes what the socket accepts of the link's unsent bytes. False on
  /// a write error, after dropping the queue. Call with send_mutex held.
  bool write_unsent(Link& link);
  /// Reads what the link holds and delivers its complete records; a link
  /// that reads EOF or a corrupt record leaves the poll set.
  void receive(NodeId peer);

  NodeId self_;
  std::size_t nodes_;
  UniqueFd listener_;
  std::vector<Endpoint> peers_;
  MeshOptions options_;
  std::function<void(NodeId)> peer_down_;
  // Set while another thread may poll, so receive() copies it under the
  // lock and invokes the copy unlocked.
  BatchDeliveryHandler handler_;
  std::mutex handler_mutex_;

  std::atomic<bool> running_{true};
  UniqueFd wake_fd_;  // eventfd: wake() makes it readable
  std::vector<Link> links_;  // by peer id
  TrafficCounters totals_;
  mutable std::mutex totals_mutex_;

  // Held for the whole of each poll(), so shutdown() can wait one out.
  std::mutex poll_mutex_;
  std::vector<pollfd> polled_;
  std::vector<NodeId> polled_peers_;  // peer id behind polled_[i + 1]
  std::vector<Frame> frames_;         // one decoded record
};

/// Forms the full mesh of `nodes` nodes in this process on ephemeral
/// loopback listeners, exchanging the endpoints in memory. Each node's
/// dials wait in the higher-numbered peers' listen backlogs until each
/// accepts in its own turn, so the meshes form one after another on the
/// calling thread. Throws std::runtime_error on any socket failure.
std::vector<std::unique_ptr<MeshTransport>> form_local_mesh(
    std::size_t nodes, CoalesceOptions coalesce = {});

}  // namespace dsjoin::net
