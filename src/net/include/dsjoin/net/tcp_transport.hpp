// In-process socket transport: every node of a run in one process.
//
// The experiments run on the deterministic WAN emulator, but the node logic
// is transport-agnostic; this transport runs the same frames over real TCP
// sockets (the paper's system ran on twenty physical workstations). It is
// the N meshes of form_local_mesh, so frames take exactly the socket path
// a node daemon's do, plus one thread per node that polls that node's mesh
// until shutdown and invokes its delivery handler inline; handlers must
// therefore be internally synchronized or single-node-owned. The engine's
// in-process backend drives the same meshes with runtime::DataPlane
// instead; this wrapper serves callers that drive the hosts themselves.
#pragma once

#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "dsjoin/net/mesh_transport.hpp"

namespace dsjoin::net {

/// Full-mesh loopback TCP transport for N in-process nodes.
class TcpTransport final : public Transport {
 public:
  /// Binds, connects the mesh, and starts the polling threads. Throws
  /// std::runtime_error if any socket operation fails (setup is not a
  /// recoverable path).
  ///
  /// @param base_port, link_rate_bytes_per_s  must be 0 (ephemeral
  ///                   listeners, no backlog model); anything else throws
  ///                   std::invalid_argument.
  /// @param coalesce   per-link SendBuffer flush budgets; the default
  ///                   (max_frames = 1) writes one wire record per frame.
  explicit TcpTransport(std::size_t nodes, std::uint16_t base_port = 0,
                        double link_rate_bytes_per_s = 0.0,
                        CoalesceOptions coalesce = {});
  ~TcpTransport() override;

  std::size_t node_count() const noexcept override { return meshes_.size(); }
  void register_handler(NodeId node, DeliveryHandler handler) override;

  /// Installs a whole-record delivery handler for a node, replacing its
  /// per-frame one, so a driver can amortize its delivery lock across
  /// every frame of a coalesced record.
  void register_batch_handler(NodeId node, BatchDeliveryHandler handler);

  /// Sends on the mesh of `frame.from`.
  common::Status send(Frame&& frame) override;

  /// The merged counters, rebuilt on every call into one object the next
  /// call overwrites; concurrent callers should use stats_snapshot().
  const TrafficCounters& stats() const noexcept override;

  /// Race-free merge of every node's counters.
  TrafficCounters stats_snapshot() const;

  /// Race-free copy of the counters for traffic *sent by* `node` — the
  /// per-node attribution run_inprocess_tcp feeds into NodeReports so the
  /// engine can aggregate with merge_traffic = true.
  TrafficCounters node_stats_snapshot(NodeId node) const {
    return meshes_[node]->stats_snapshot();
  }

  /// Always 0: loopback sockets model no link rate.
  double send_backlog_seconds(NodeId) const noexcept override { return 0.0; }

  /// Shuts every node's mesh down and joins the polling threads (also
  /// done by the destructor). Safe to call twice.
  void shutdown();

 private:
  std::vector<std::unique_ptr<MeshTransport>> meshes_;
  std::vector<std::thread> pollers_;
  mutable TrafficCounters merged_;  // what stats() last returned
};

}  // namespace dsjoin::net
