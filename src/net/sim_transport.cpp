#include "dsjoin/net/sim_transport.hpp"

#include <cassert>
#include <utility>

#include "dsjoin/common/strformat.hpp"

namespace dsjoin::net {

namespace {
bool summary_bearing(const Frame& frame) noexcept {
  return frame.kind == FrameKind::kSummary ||
         (frame.kind == FrameKind::kTuple && frame.piggyback_bytes > 0);
}
}  // namespace

const char* to_string(FrameKind kind) noexcept {
  switch (kind) {
    case FrameKind::kTuple: return "tuple";
    case FrameKind::kSummary: return "summary";
    case FrameKind::kResult: return "result";
    case FrameKind::kControl: return "control";
  }
  return "?";
}

SimTransport::SimTransport(EventQueue& queue, std::size_t nodes,
                           const WanProfile& profile, std::uint64_t seed)
    : queue_(queue), profile_(profile), handlers_(nodes),
      links_(nodes * nodes), senders_(nodes) {
  common::Xoshiro256 root(seed);
  for (auto& l : links_) l.rng = root.fork();
}

void SimTransport::register_handler(NodeId node, DeliveryHandler handler) {
  assert(node < handlers_.size());
  handlers_[node] = std::move(handler);
}

common::Status SimTransport::send(Frame&& frame) {
  if (frame.from >= handlers_.size() || frame.to >= handlers_.size()) {
    return common::Status(common::ErrorCode::kInvalidArgument,
                          common::str_format("bad address %u -> %u", frame.from,
                                             frame.to));
  }
  if (frame.from == frame.to) {
    return common::Status(common::ErrorCode::kInvalidArgument,
                          "loopback frames never hit the network");
  }
  if (!handlers_[frame.to]) {
    return common::Status(common::ErrorCode::kFailedPrecondition,
                          common::str_format("node %u has no handler", frame.to));
  }

  Link& l = link(frame.from, frame.to);
  const SimTime now = queue_.now();
  l.counters.record(frame);
  totals_.record(frame);

  // Failure injection happens after accounting: the sender paid for the
  // frame whether or not the network delivers it faithfully.
  if (profile_.drop_probability > 0.0 &&
      l.rng.next_bool(profile_.drop_probability)) {
    ++dropped_;
    return common::Status::ok();
  }
  if (profile_.corrupt_probability > 0.0 && !frame.payload.empty() &&
      l.rng.next_bool(profile_.corrupt_probability)) {
    ++corrupted_;
    const auto at = l.rng.next_below(frame.payload.size());
    frame.payload[at] ^= 0xff;
  }

  const double bits = static_cast<double>(frame.wire_bytes()) * 8.0;

  // Serialization: the frame occupies the shaped resource (the sender's NIC
  // under per-node scope — the paper pauses the workstation — or the
  // directed link under per-link scope) after any queued frames.
  const bool per_node = profile_.scope == WanProfile::BandwidthScope::kPerNode;
  SimTime& busy_until = per_node ? senders_[frame.from].busy_until : l.busy_until;
  double& pause_acc =
      per_node ? senders_[frame.from].bits_since_pause : l.bits_since_pause;
  SimTime start = busy_until > now ? busy_until : now;
  SimTime transmit_done = start;
  if (!profile_.unlimited_bandwidth) {
    if (profile_.pause_burst_shaping) {
      // The paper's shaping: transmit at wire speed but insert a 1 s pause
      // after each 90 kilobits transmitted.
      pause_acc += bits;
      while (pause_acc >= profile_.bandwidth_bps) {
        pause_acc -= profile_.bandwidth_bps;
        transmit_done += 1.0;
      }
    } else {
      transmit_done = start + bits / profile_.bandwidth_bps;
    }
  }
  busy_until = transmit_done;
  if (per_node) l.busy_until = transmit_done;  // keep link stats coherent

  // Propagation: per-frame uniform latency; FIFO is enforced by flooring at
  // the previous arrival (TCP would not reorder).
  const double latency =
      profile_.latency_max_s > profile_.latency_min_s
          ? l.rng.next_double_in(profile_.latency_min_s, profile_.latency_max_s)
          : profile_.latency_min_s;
  SimTime arrival = transmit_done + latency;
  if (arrival <= l.last_arrival) arrival = l.last_arrival + 1e-9;
  l.last_arrival = arrival;

  // Delivery is committed: tee summary content to the virtual-time plane
  // (post-corruption, so a mangled block still fails its checksum there).
  if (summary_sink_ && summary_bearing(frame)) summary_sink_(frame);
  // The delivery points at the handler slot, not a copy of the handler:
  // a node re-registered by a restart receives the frames in flight.
  const DeliveryHandler* handler = &handlers_[frame.to];
  queue_.schedule_delivery_at(arrival, handler, std::move(frame));
  return common::Status::ok();
}

double SimTransport::send_backlog_seconds(NodeId node) const noexcept {
  const SimTime now = queue_.now();
  if (profile_.scope == WanProfile::BandwidthScope::kPerNode) {
    const double backlog = senders_[node].busy_until - now;
    return backlog > 0.0 ? backlog : 0.0;
  }
  double worst = 0.0;
  for (NodeId to = 0; to < handlers_.size(); ++to) {
    if (to == node) continue;
    const double backlog = link(node, to).busy_until - now;
    if (backlog > worst) worst = backlog;
  }
  return worst;
}

const TrafficCounters& SimTransport::link_stats(NodeId from, NodeId to) const {
  assert(from < handlers_.size() && to < handlers_.size());
  return link(from, to).counters;
}

}  // namespace dsjoin::net
