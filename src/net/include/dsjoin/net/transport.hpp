// Transport abstraction.
//
// Node logic is written against this interface so the same code runs over
// the deterministic WAN emulator (experiments) and real TCP sockets (the
// wan_tcp_demo example) — the reproduction analogue of the paper's
// prototype running on a shaped Ethernet cluster.
#pragma once

#include <functional>
#include <vector>

#include "dsjoin/common/status.hpp"
#include "dsjoin/net/frame.hpp"
#include "dsjoin/net/stats.hpp"

namespace dsjoin::net {

/// Invoked at the destination when a frame arrives.
using DeliveryHandler = std::function<void(Frame&&)>;

/// Invoked at the destination with every logical frame decoded from one
/// wire record, in send order, so the receiving side can amortize its work
/// across a coalesced batch. A socket transport holds one handler per
/// node: installing either kind replaces the other.
using BatchDeliveryHandler = std::function<void(std::vector<Frame>&&)>;

/// Point-to-point, ordered, reliable frame delivery between N nodes.
class Transport {
 public:
  virtual ~Transport() = default;

  Transport() = default;
  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  /// Number of addressable nodes.
  virtual std::size_t node_count() const noexcept = 0;

  /// Installs the delivery handler for a node. Must be called for every
  /// node before the first send to it.
  virtual void register_handler(NodeId node, DeliveryHandler handler) = 0;

  /// Queues a frame for delivery, taking ownership of its payload (the
  /// send path never copies it). Returns kInvalidArgument for bad
  /// addresses; transports never drop frames silently.
  virtual common::Status send(Frame&& frame) = 0;

  /// System-wide traffic counters (frames recorded when sent).
  virtual const TrafficCounters& stats() const noexcept = 0;

  /// Seconds of queued-but-untransmitted backlog on the busiest outgoing
  /// link of `node` — the backpressure signal throttling ingestion in the
  /// throughput experiments. Transports without shaping return 0.
  virtual double send_backlog_seconds(NodeId node) const noexcept = 0;
};

}  // namespace dsjoin::net
