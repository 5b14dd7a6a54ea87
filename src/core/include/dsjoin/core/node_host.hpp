// NodeHost: the per-node lifecycle every backend shares.
//
// A Node knows how to process tuples and frames; a *backend* knows how to
// move frames and when arrivals happen. Everything in between — feeding
// arrivals into the node, dispatching incoming frames, the two-phase FIN
// drain that decides when a node's result set is complete, and assembling
// the node's final NodeReport — used to be re-implemented per driver.
// NodeHost owns that middle layer once; the simulator, the in-process TCP
// backend, and the node daemon differ only in the transport they plug in
// and the threads they call from.
//
// Drain protocol (two-phase FIN over the data plane, FrameKind::kControl):
// begin_drain() sends FIN-1 to every live peer. Receiving FIN-1 from a
// peer means — per-link FIFO — every tuple frame that peer sent us has
// been processed, and symmetrically our FIN-1 tells the peer all our
// tuples are in. A host holding FIN-1 from everyone has also *sent* every
// result frame it will ever send, so it then emits FIN-2; once FIN-2 is in
// from every live peer, every result frame addressed to us is in and the
// pair set is complete. A dead peer counts as implicitly FINished, and the
// wait_drain timeout proceeds with whatever arrived — partial coverage,
// never a hang. (The simulator does not use the FIN machinery: its event
// queue running dry is an exact, zero-cost statement of the same fact.)
//
// Threading contract: ingest(), deliver(), node() and report() touch the
// node and must come from one thread at a time: the simulator's thread, or
// the one thread of the node's runtime::DataPlane on the socket backends.
// note_peer_dead(), begin_drain(), wait_drain(), drain_complete(), the
// watermark calls and await_summary_cover() are internally synchronized,
// so a control thread
// can drain while the owner keeps delivering; wait_drain() and a blocking
// await_summary_cover() must never run on the thread that delivers, or
// the frames they wait for are never read. FIN and watermark frames are
// sent under the host's internal locks, which is safe because no socket
// send blocks — never call back into the host from under them.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "dsjoin/core/experiment.hpp"
#include "dsjoin/core/metrics.hpp"
#include "dsjoin/core/node.hpp"

namespace dsjoin::core {

class NodeHost {
 public:
  /// Socket backends: the host owns one private MetricsCollector per
  /// registered query (this node's discoveries only; global dedup happens
  /// at aggregation). The node evaluates its queries on the calling
  /// thread.
  NodeHost(const SystemConfig& config, net::NodeId id, net::Transport& transport);

  /// Simulator: all hosts share the system-wide collectors — one per
  /// registered query, in canonical order — which perform the global dedup
  /// in place.
  NodeHost(const SystemConfig& config, net::NodeId id, net::Transport& transport,
           std::span<MetricsCollector* const> shared_query_metrics);

  NodeHost(const NodeHost&) = delete;
  NodeHost& operator=(const NodeHost&) = delete;

  Node& node() noexcept { return *node_; }
  net::NodeId id() const noexcept { return id_; }

  /// Feeds one local arrival and advances the host's virtual clock to its
  /// timestamp.
  void ingest(const stream::Tuple& tuple, double now);

  /// Feeds a run of local arrivals in order with one call, each at its own
  /// timestamp — exactly ingest(t, t.timestamp) per tuple. The socket
  /// backends hand it chunks of the node's slice of the materialized
  /// ArrivalSchedule.
  void ingest_batch(std::span<const stream::Tuple> tuples);

  /// Dispatches one incoming frame: FIN markers advance the drain state
  /// machine, everything else reaches the node at time `now`.
  void deliver(net::Frame&& frame, double now);

  /// Dispatches every logical frame of one decoded wire record in order at
  /// the host's virtual clock (latest local arrival) — what a wall-clock
  /// backend uses, where forwarded work is timestamped with the tuple era
  /// it belongs to. Same threading contract as deliver().
  void deliver_batch(std::vector<net::Frame>&& frames) {
    for (net::Frame& frame : frames) deliver(std::move(frame), virtual_now_);
  }

  /// Invoked (outside the FIN lock) when a peer is declared dead, before
  /// the drain stops waiting on it — the data plane points this at
  /// MeshTransport::mark_peer_dead so sends stop targeting the corpse.
  void set_peer_death_hook(std::function<void(net::NodeId)> hook) {
    peer_death_hook_ = std::move(hook);
  }

  /// Declares `peer` dead: runs the death hook and releases the drain from
  /// waiting on its FINs. Idempotent; callable from any thread. It leaves
  /// the node alone: the thread that owns the node releases the peer's
  /// eviction clock with Node::note_peer_dead.
  void note_peer_dead(net::NodeId peer);

  /// Starts the drain: marks `dead_peers` dead and sends FIN-1 to every
  /// live peer. Call once all local arrivals are ingested.
  void begin_drain(std::span<const net::NodeId> dead_peers);

  /// Blocks until the FIN handshake completes or `timeout_s` elapses.
  /// Returns whether the drain completed (false = partial results).
  bool wait_drain(double timeout_s);

  bool drain_complete() const;

  /// The node's final accounting. `traffic` is what this node sent — a
  /// backend with per-node links passes its snapshot; one with a shared
  /// transport passes {} and installs the union at aggregation instead.
  NodeReport report(net::TrafficCounters traffic) const;

  std::uint64_t arrivals_ingested() const noexcept { return arrivals_ingested_; }
  /// Distinct pairs across this host's collectors (heartbeat progress
  /// counter; queries are distinct joins, so the sum is the honest total).
  std::uint64_t pairs_discovered() const {
    std::uint64_t total = 0;
    for (const MetricsCollector* collector : metrics_) {
      total += collector->distinct_pairs();
    }
    return total;
  }

  /// FIN wire format, exposed for tests: an 8-byte magic + phase byte in a
  /// FrameKind::kControl payload (core::Node ignores kControl, so even a
  /// leaked FIN is harmless).
  static net::Frame make_fin(net::NodeId from, net::NodeId to,
                             std::uint8_t phase);
  static bool is_fin(const net::Frame& frame, std::uint8_t* phase);

  // --- Virtual-time summary watermarks (socket backends; DESIGN.md §12).
  //
  // The wall-clock backends cannot rely on transport latency to order
  // summary application, so each node announces how far its own virtual
  // clock (and therefore any future summary emission) has advanced, and a
  // driver about to ingest arrivals in visibility epoch k first waits until
  // every peer's announcement covers that epoch. Announcements are
  // quantized to the visibility grid so their count is a pure function of
  // the arrival schedule — identical across socket drivers, keeping
  // kControl frame counts comparable.

  /// Turns the watermark protocol on (summary-driven policies only; BASE
  /// and RR runs skip it entirely).
  void enable_summary_watermarks();

  /// Announces that every summary this node emits from now on has
  /// emit_time >= `own_watermark`: one threshold frame per newly covered
  /// grid point goes to every peer. Pass +infinity once the local arrival
  /// schedule is exhausted (sent once).
  void announce_summary_watermark(double own_watermark);

  /// Blocks until every live peer's announced watermark covers the
  /// visibility epoch containing `ts` — after which no summary that must
  /// apply before the epoch's end can still be in flight. Returns false on
  /// timeout (the run degrades to counted late summaries, never a hang).
  /// With timeout_s = 0 it only checks, which is how the data plane's
  /// thread asks without blocking its own deliveries; a blocking wait must
  /// run on another thread.
  bool await_summary_cover(double ts, double timeout_s);

  /// Watermark wire format, exposed for tests: 8-byte magic + f64 value in
  /// a FrameKind::kControl payload (distinct length from FIN frames).
  static net::Frame make_watermark(net::NodeId from, net::NodeId to,
                                   double value);
  static bool is_watermark(const net::Frame& frame, double* value);

 private:
  void handle_fin(net::NodeId peer, std::uint8_t phase);
  void handle_watermark(net::NodeId peer, double value);
  /// Sends FIN-2 once phase 1 completes; signals completion when phase 2
  /// does. Call with fin_mutex_ held.
  void advance_fin_locked();
  bool fin_phase_complete_locked(const std::vector<bool>& seen) const;
  void send_fin(std::uint8_t phase);

  net::NodeId id_;
  std::uint32_t nodes_;
  net::Transport* transport_;
  std::vector<std::unique_ptr<MetricsCollector>> owned_metrics_;  // empty when shared
  std::vector<MetricsCollector*> metrics_;  // one per query, canonical order
  std::unique_ptr<Node> node_;

  double virtual_now_ = 0.0;  // latest local arrival timestamp
  std::uint64_t arrivals_ingested_ = 0;

  std::function<void(net::NodeId)> peer_death_hook_;

  // FIN / drain state (internally synchronized).
  mutable std::mutex fin_mutex_;
  std::condition_variable fin_cv_;
  std::vector<bool> fin1_seen_;
  std::vector<bool> fin2_seen_;
  std::vector<bool> peer_dead_;
  bool fin1_sent_ = false;
  bool fin2_sent_ = false;
  bool drain_complete_ = false;

  // Summary watermark state (internally synchronized).
  mutable std::mutex wm_mutex_;
  std::condition_variable wm_cv_;
  bool wm_enabled_ = false;
  double wm_sync_epoch_s_;  // SystemConfig::summary_sync_epoch_s
  double wm_sync_lead_s_;   // wan.latency_min_s
  std::vector<double> wm_peer_;       // highest announcement per peer
  std::uint64_t wm_announced_k_ = 0;  // grid points already announced
  bool wm_final_sent_ = false;
};

}  // namespace dsjoin::core
