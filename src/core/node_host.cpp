#include "dsjoin/core/node_host.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>

#include "dsjoin/common/log.hpp"
#include "dsjoin/core/config.hpp"

namespace dsjoin::core {

namespace {
constexpr std::uint8_t kFinMagic[8] = {'D', 'S', 'J', 'N', '-', 'F', 'I', 'N'};
constexpr std::uint8_t kWatermarkMagic[8] = {'D', 'S', 'J', 'W',
                                             'M', 'A', 'R', 'K'};
}  // namespace

NodeHost::NodeHost(const SystemConfig& config, net::NodeId id,
                   net::Transport& transport)
    : id_(id),
      nodes_(config.nodes),
      transport_(&transport),
      wm_sync_epoch_s_(config.summary_sync_epoch_s),
      wm_sync_lead_s_(config.wan.latency_min_s) {
  const std::size_t query_count = config.queries.size();
  owned_metrics_.reserve(query_count);
  metrics_.reserve(query_count);
  for (std::size_t q = 0; q < query_count; ++q) {
    owned_metrics_.push_back(std::make_unique<MetricsCollector>());
    owned_metrics_.back()->set_node_count(nodes_);
    metrics_.push_back(owned_metrics_.back().get());
  }
  node_ = std::make_unique<Node>(
      config, id_, *transport_,
      std::span<MetricsCollector* const>(metrics_.data(), metrics_.size()));
  fin1_seen_.assign(nodes_, false);
  fin2_seen_.assign(nodes_, false);
  peer_dead_.assign(nodes_, false);
  // Emissions before virtual time -lead are impossible, so grid point 0
  // (threshold -lead) is pre-covered for every peer.
  wm_peer_.assign(nodes_, -wm_sync_lead_s_);
}

NodeHost::NodeHost(const SystemConfig& config, net::NodeId id,
                   net::Transport& transport,
                   std::span<MetricsCollector* const> shared_query_metrics)
    : id_(id),
      nodes_(config.nodes),
      transport_(&transport),
      metrics_(shared_query_metrics.begin(), shared_query_metrics.end()),
      wm_sync_epoch_s_(config.summary_sync_epoch_s),
      wm_sync_lead_s_(config.wan.latency_min_s) {
  node_ = std::make_unique<Node>(
      config, id_, *transport_,
      std::span<MetricsCollector* const>(metrics_.data(), metrics_.size()));
  fin1_seen_.assign(nodes_, false);
  fin2_seen_.assign(nodes_, false);
  peer_dead_.assign(nodes_, false);
  wm_peer_.assign(nodes_, -wm_sync_lead_s_);
}

void NodeHost::ingest(const stream::Tuple& tuple, double now) {
  virtual_now_ = now;
  node_->on_local_tuple(tuple, now);
  ++arrivals_ingested_;
}

void NodeHost::ingest_batch(std::span<const stream::Tuple> tuples) {
  for (const stream::Tuple& tuple : tuples) ingest(tuple, tuple.timestamp);
}

void NodeHost::deliver(net::Frame&& frame, double now) {
  double watermark = 0.0;
  if (is_watermark(frame, &watermark)) {
    handle_watermark(frame.from, watermark);
    return;
  }
  std::uint8_t phase = 0;
  if (is_fin(frame, &phase)) {
    handle_fin(frame.from, phase);
    return;
  }
  node_->on_frame(std::move(frame), now);
}

void NodeHost::note_peer_dead(net::NodeId peer) {
  if (peer >= nodes_ || peer == id_) return;
  if (peer_death_hook_) peer_death_hook_(peer);
  {
    // A dead peer emits nothing further: release any summary-cover wait.
    std::lock_guard lock(wm_mutex_);
    wm_peer_[peer] = std::numeric_limits<double>::infinity();
    wm_cv_.notify_all();
  }
  std::lock_guard lock(fin_mutex_);
  if (!peer_dead_[peer]) {
    DSJOIN_LOG_INFO("node %u: treating peer %u as dead", id_, peer);
    peer_dead_[peer] = true;
  }
  advance_fin_locked();
}

void NodeHost::begin_drain(std::span<const net::NodeId> dead_peers) {
  for (const auto dead : dead_peers) note_peer_dead(dead);
  {
    std::lock_guard lock(fin_mutex_);
    fin1_sent_ = true;
  }
  send_fin(1);
  std::lock_guard lock(fin_mutex_);
  advance_fin_locked();
}

bool NodeHost::wait_drain(double timeout_s) {
  std::unique_lock lock(fin_mutex_);
  return fin_cv_.wait_for(lock, std::chrono::duration<double>(timeout_s),
                          [this] { return drain_complete_; });
}

bool NodeHost::drain_complete() const {
  std::lock_guard lock(fin_mutex_);
  return drain_complete_;
}

NodeReport NodeHost::report(net::TrafficCounters traffic) const {
  NodeReport report;
  report.node_id = id_;
  report.local_tuples = node_->local_tuples();
  report.received_tuples = node_->received_tuples();
  report.decode_failures = node_->decode_failures();
  report.late_summaries = node_->late_summaries();
  report.traffic = traffic;
  report.queries.reserve(node_->query_count());
  for (std::size_t q = 0; q < node_->query_count(); ++q) {
    const QueryCounters counters = node_->query_counters(q);
    const auto bound = node_->query_policy(q).epsilon_bound_terms();
    QueryNodeReport& slice = report.queries.emplace_back();
    slice.query_id = counters.query_id;
    slice.received_tuples = counters.received_tuples;
    slice.forwarded_tuples = counters.forwarded_tuples;
    slice.result_frames = counters.result_frames;
    slice.summary_frames = counters.summary_frames;
    slice.predicted_missed_mass = bound.missed_mass;
    slice.predicted_total_mass = bound.total_mass;
    slice.pairs = metrics_[q]->pairs();
    // Aggregate = sum of the exclusive per-query attributions.
    report.predicted_missed_mass += bound.missed_mass;
    report.predicted_total_mass += bound.total_mass;
  }
  return report;
}

net::Frame NodeHost::make_fin(net::NodeId from, net::NodeId to,
                              std::uint8_t phase) {
  net::Frame frame;
  frame.from = from;
  frame.to = to;
  frame.kind = net::FrameKind::kControl;
  frame.payload.assign(std::begin(kFinMagic), std::end(kFinMagic));
  frame.payload.push_back(phase);
  return frame;
}

bool NodeHost::is_fin(const net::Frame& frame, std::uint8_t* phase) {
  if (frame.kind != net::FrameKind::kControl) return false;
  if (frame.payload.size() != sizeof(kFinMagic) + 1) return false;
  if (std::memcmp(frame.payload.data(), kFinMagic, sizeof(kFinMagic)) != 0) {
    return false;
  }
  *phase = frame.payload.back();
  return true;
}

void NodeHost::enable_summary_watermarks() {
  std::lock_guard lock(wm_mutex_);
  wm_enabled_ = true;
}

void NodeHost::announce_summary_watermark(double own_watermark) {
  const double grid = wm_sync_epoch_s_;
  const double lead = wm_sync_lead_s_;
  std::vector<double> values;
  {
    std::lock_guard lock(wm_mutex_);
    if (!wm_enabled_) return;
    if (std::isinf(own_watermark)) {
      if (wm_final_sent_) return;
      wm_final_sent_ = true;
      values.push_back(own_watermark);
    } else {
      // One frame per grid point k*grid - lead newly covered by the local
      // clock, so the announcement count depends only on the schedule.
      while (static_cast<double>(wm_announced_k_ + 1) * grid - lead <=
             own_watermark) {
        ++wm_announced_k_;
        values.push_back(static_cast<double>(wm_announced_k_) * grid - lead);
      }
    }
  }
  for (const double value : values) {
    for (net::NodeId peer = 0; peer < nodes_; ++peer) {
      if (peer == id_) continue;
      (void)transport_->send(make_watermark(id_, peer, value));
    }
  }
}

bool NodeHost::await_summary_cover(double ts, double timeout_s,
                                   const std::function<bool()>& cancelled) {
  const double grid = wm_sync_epoch_s_;
  const double lead = wm_sync_lead_s_;
  const double epoch = std::floor(ts / grid);
  if (epoch <= 0.0) return true;  // threshold <= -lead: pre-covered
  // Exactly the announcer's arithmetic, so the comparison is bit-exact.
  const double needed = epoch * grid - lead;
  std::unique_lock lock(wm_mutex_);
  if (!wm_enabled_) return true;
  const auto covered = [&] {
    for (net::NodeId peer = 0; peer < nodes_; ++peer) {
      if (peer != id_ && wm_peer_[peer] < needed) return false;
    }
    return true;
  };
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(timeout_s));
  while (!covered()) {
    if (cancelled && cancelled()) return false;
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) return false;
    wm_cv_.wait_until(lock,
                      std::min(deadline, now + std::chrono::milliseconds(100)));
  }
  return true;
}

net::Frame NodeHost::make_watermark(net::NodeId from, net::NodeId to,
                                    double value) {
  net::Frame frame;
  frame.from = from;
  frame.to = to;
  frame.kind = net::FrameKind::kControl;
  frame.payload.assign(std::begin(kWatermarkMagic), std::end(kWatermarkMagic));
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  for (int i = 0; i < 8; ++i) {
    frame.payload.push_back(static_cast<std::uint8_t>(bits >> (8 * i)));
  }
  return frame;
}

bool NodeHost::is_watermark(const net::Frame& frame, double* value) {
  if (frame.kind != net::FrameKind::kControl) return false;
  if (frame.payload.size() != sizeof(kWatermarkMagic) + 8) return false;
  if (std::memcmp(frame.payload.data(), kWatermarkMagic,
                  sizeof(kWatermarkMagic)) != 0) {
    return false;
  }
  std::uint64_t bits = 0;
  for (int i = 0; i < 8; ++i) {
    bits |= static_cast<std::uint64_t>(frame.payload[8 + i]) << (8 * i);
  }
  std::memcpy(value, &bits, sizeof(*value));
  return true;
}

void NodeHost::handle_watermark(net::NodeId peer, double value) {
  if (peer >= nodes_ || peer == id_) return;
  std::lock_guard lock(wm_mutex_);
  if (value > wm_peer_[peer]) wm_peer_[peer] = value;
  wm_cv_.notify_all();
}

void NodeHost::handle_fin(net::NodeId peer, std::uint8_t phase) {
  if (peer >= nodes_ || peer == id_) return;
  std::lock_guard lock(fin_mutex_);
  if (phase == 1) {
    fin1_seen_[peer] = true;
  } else if (phase == 2) {
    fin2_seen_[peer] = true;
  }
  advance_fin_locked();
}

bool NodeHost::fin_phase_complete_locked(const std::vector<bool>& seen) const {
  for (net::NodeId peer = 0; peer < nodes_; ++peer) {
    if (peer == id_) continue;
    if (!seen[peer] && !peer_dead_[peer]) return false;
  }
  return true;
}

void NodeHost::advance_fin_locked() {
  if (!fin1_sent_) return;
  if (!fin2_sent_ && fin_phase_complete_locked(fin1_seen_)) {
    fin2_sent_ = true;
    send_fin(2);
  }
  if (fin2_sent_ && !drain_complete_ && fin_phase_complete_locked(fin2_seen_)) {
    drain_complete_ = true;
    fin_cv_.notify_all();
  }
}

void NodeHost::send_fin(std::uint8_t phase) {
  for (net::NodeId peer = 0; peer < nodes_; ++peer) {
    if (peer == id_) continue;
    // A failed send means the peer just died; its EOF path marks it dead.
    (void)transport_->send(make_fin(id_, peer, phase));
  }
}

}  // namespace dsjoin::core
