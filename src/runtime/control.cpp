#include "dsjoin/runtime/control.hpp"

namespace dsjoin::runtime {

namespace {

void serialize_traffic(const net::TrafficCounters& traffic,
                       common::BufferWriter& out) {
  for (auto f : traffic.frames_by_kind) out.write_u64(f);
  for (auto b : traffic.bytes_by_kind) out.write_u64(b);
  out.write_u64(traffic.piggyback_bytes);
  out.write_u64(traffic.wire_records);
  out.write_u64(traffic.header_bytes_saved);
}

common::Result<net::TrafficCounters> deserialize_traffic(
    common::BufferReader& in) {
  net::TrafficCounters traffic;
  for (auto& f : traffic.frames_by_kind) {
    auto r = in.read_u64();
    if (!r) return r.status();
    f = r.value();
  }
  for (auto& b : traffic.bytes_by_kind) {
    auto r = in.read_u64();
    if (!r) return r.status();
    b = r.value();
  }
  auto piggyback = in.read_u64();
  if (!piggyback) return piggyback.status();
  traffic.piggyback_bytes = piggyback.value();
  auto records = in.read_u64();
  if (!records) return records.status();
  traffic.wire_records = records.value();
  auto saved = in.read_u64();
  if (!saved) return saved.status();
  traffic.header_bytes_saved = saved.value();
  return traffic;
}

}  // namespace

const char* to_string(ControlType type) noexcept {
  switch (type) {
    case ControlType::kHello: return "HELLO";
    case ControlType::kConfig: return "CONFIG";
    case ControlType::kStart: return "START";
    case ControlType::kHeartbeat: return "HEARTBEAT";
    case ControlType::kMetricsReport: return "METRICS_REPORT";
    case ControlType::kDrain: return "DRAIN";
    case ControlType::kBye: return "BYE";
  }
  return "UNKNOWN";
}

const char* to_string(DaemonState state) noexcept {
  switch (state) {
    case DaemonState::kJoining: return "JOINING";
    case DaemonState::kMeshed: return "MESHED";
    case DaemonState::kRunning: return "RUNNING";
    case DaemonState::kDone: return "DONE";
    case DaemonState::kDraining: return "DRAINING";
  }
  return "UNKNOWN";
}

void serialize_endpoint(const net::Endpoint& endpoint,
                        common::BufferWriter& out) {
  out.write_string(endpoint.host);
  out.write_u16(endpoint.port);
}

common::Result<net::Endpoint> deserialize_endpoint(common::BufferReader& in) {
  net::Endpoint endpoint;
  auto host = in.read_string();
  if (!host) return host.status();
  auto port = in.read_u16();
  if (!port) return port.status();
  endpoint.host = std::move(host).value();
  endpoint.port = port.value();
  return endpoint;
}

std::vector<std::uint8_t> HelloMsg::encode() const {
  common::BufferWriter out(32);
  out.write_u32(protocol);
  serialize_endpoint(data_endpoint, out);
  return std::move(out).take();
}

common::Result<HelloMsg> HelloMsg::decode(std::span<const std::uint8_t> bytes) {
  common::BufferReader in(bytes);
  HelloMsg msg;
  auto protocol = in.read_u32();
  if (!protocol) return protocol.status();
  msg.protocol = protocol.value();
  auto endpoint = deserialize_endpoint(in);
  if (!endpoint) return endpoint.status();
  msg.data_endpoint = std::move(endpoint).value();
  return msg;
}

std::vector<std::uint8_t> ConfigMsg::encode() const {
  common::BufferWriter out(512);
  out.write_u32(node_id);
  core::serialize_config(config, out);
  out.write_u32(static_cast<std::uint32_t>(peers.size()));
  for (const auto& peer : peers) serialize_endpoint(peer, out);
  out.write_f64(heartbeat_period_s);
  out.write_f64(mesh_timeout_s);
  return std::move(out).take();
}

common::Result<ConfigMsg> ConfigMsg::decode(
    std::span<const std::uint8_t> bytes) {
  common::BufferReader in(bytes);
  ConfigMsg msg;
  auto node_id = in.read_u32();
  if (!node_id) return node_id.status();
  msg.node_id = node_id.value();
  auto config = core::deserialize_config(in);
  if (!config) return config.status();
  msg.config = std::move(config).value();
  auto count = in.read_u32();
  if (!count) return count.status();
  if (count.value() > 1024) {
    return common::Status(common::ErrorCode::kDataLoss,
                          "implausible peer count");
  }
  msg.peers.reserve(count.value());
  for (std::uint32_t i = 0; i < count.value(); ++i) {
    auto endpoint = deserialize_endpoint(in);
    if (!endpoint) return endpoint.status();
    msg.peers.push_back(std::move(endpoint).value());
  }
  auto heartbeat = in.read_f64();
  if (!heartbeat) return heartbeat.status();
  msg.heartbeat_period_s = heartbeat.value();
  auto mesh_timeout = in.read_f64();
  if (!mesh_timeout) return mesh_timeout.status();
  msg.mesh_timeout_s = mesh_timeout.value();
  return msg;
}

std::vector<std::uint8_t> HeartbeatMsg::encode() const {
  common::BufferWriter out(24);
  out.write_u32(node_id);
  out.write_u8(static_cast<std::uint8_t>(state));
  out.write_u64(local_tuples);
  out.write_u64(pairs_discovered);
  return std::move(out).take();
}

common::Result<HeartbeatMsg> HeartbeatMsg::decode(
    std::span<const std::uint8_t> bytes) {
  common::BufferReader in(bytes);
  HeartbeatMsg msg;
  auto node_id = in.read_u32();
  if (!node_id) return node_id.status();
  msg.node_id = node_id.value();
  auto state = in.read_u8();
  if (!state) return state.status();
  if (state.value() > static_cast<std::uint8_t>(DaemonState::kDraining)) {
    return common::Status(common::ErrorCode::kDataLoss, "bad daemon state");
  }
  msg.state = static_cast<DaemonState>(state.value());
  auto local = in.read_u64();
  if (!local) return local.status();
  msg.local_tuples = local.value();
  auto pairs = in.read_u64();
  if (!pairs) return pairs.status();
  msg.pairs_discovered = pairs.value();
  return msg;
}

MetricsReportMsg MetricsReportMsg::from_node_report(core::NodeReport report) {
  MetricsReportMsg msg;
  msg.node_id = report.node_id;
  msg.local_tuples = report.local_tuples;
  msg.received_tuples = report.received_tuples;
  msg.decode_failures = report.decode_failures;
  msg.late_summaries = report.late_summaries;
  msg.partial_drains = report.partial_drains;
  msg.predicted_missed_mass = report.predicted_missed_mass;
  msg.predicted_total_mass = report.predicted_total_mass;
  msg.traffic = report.traffic;
  msg.queries = std::move(report.queries);
  return msg;
}

core::NodeReport MetricsReportMsg::to_node_report() const {
  core::NodeReport report;
  report.node_id = node_id;
  report.local_tuples = local_tuples;
  report.received_tuples = received_tuples;
  report.decode_failures = decode_failures;
  report.late_summaries = late_summaries;
  report.partial_drains = partial_drains;
  report.predicted_missed_mass = predicted_missed_mass;
  report.predicted_total_mass = predicted_total_mass;
  report.traffic = traffic;
  report.queries = queries;
  return report;
}

std::vector<std::uint8_t> MetricsReportMsg::encode() const {
  std::size_t pair_count = 0;
  for (const auto& query : queries) pair_count += query.pairs.size();
  common::BufferWriter out(128 + queries.size() * 64 + pair_count * 16);
  out.write_u32(node_id);
  out.write_u64(local_tuples);
  out.write_u64(received_tuples);
  out.write_u64(decode_failures);
  out.write_u64(late_summaries);
  out.write_u64(partial_drains);
  out.write_f64(predicted_missed_mass);
  out.write_f64(predicted_total_mass);
  serialize_traffic(traffic, out);
  out.write_u32(static_cast<std::uint32_t>(queries.size()));
  for (const auto& query : queries) {
    out.write_u32(query.query_id);
    out.write_u64(query.received_tuples);
    out.write_u64(query.forwarded_tuples);
    out.write_u64(query.result_frames);
    out.write_u64(query.summary_frames);
    out.write_f64(query.predicted_missed_mass);
    out.write_f64(query.predicted_total_mass);
    out.write_u64(query.pairs.size());
    for (const auto& pair : query.pairs) {
      out.write_u64(pair.r_id);
      out.write_u64(pair.s_id);
    }
  }
  return std::move(out).take();
}

common::Result<MetricsReportMsg> MetricsReportMsg::decode(
    std::span<const std::uint8_t> bytes) {
  common::BufferReader in(bytes);
  MetricsReportMsg msg;
  auto node_id = in.read_u32();
  if (!node_id) return node_id.status();
  msg.node_id = node_id.value();
  auto local = in.read_u64();
  if (!local) return local.status();
  msg.local_tuples = local.value();
  auto received = in.read_u64();
  if (!received) return received.status();
  msg.received_tuples = received.value();
  auto failures = in.read_u64();
  if (!failures) return failures.status();
  msg.decode_failures = failures.value();
  auto late = in.read_u64();
  if (!late) return late.status();
  msg.late_summaries = late.value();
  auto partial = in.read_u64();
  if (!partial) return partial.status();
  msg.partial_drains = partial.value();
  auto missed = in.read_f64();
  if (!missed) return missed.status();
  msg.predicted_missed_mass = missed.value();
  auto total = in.read_f64();
  if (!total) return total.status();
  msg.predicted_total_mass = total.value();
  auto traffic = deserialize_traffic(in);
  if (!traffic) return traffic.status();
  msg.traffic = traffic.value();
  auto query_count = in.read_u32();
  if (!query_count) return query_count.status();
  if (query_count.value() > core::kMaxQueries) {
    return common::Status(common::ErrorCode::kDataLoss,
                          "implausible query section count");
  }
  msg.queries.reserve(query_count.value());
  for (std::uint32_t q = 0; q < query_count.value(); ++q) {
    core::QueryNodeReport slice;
    auto query_id = in.read_u32();
    if (!query_id) return query_id.status();
    slice.query_id = query_id.value();
    auto q_received = in.read_u64();
    if (!q_received) return q_received.status();
    slice.received_tuples = q_received.value();
    auto q_forwarded = in.read_u64();
    if (!q_forwarded) return q_forwarded.status();
    slice.forwarded_tuples = q_forwarded.value();
    auto q_results = in.read_u64();
    if (!q_results) return q_results.status();
    slice.result_frames = q_results.value();
    auto q_summaries = in.read_u64();
    if (!q_summaries) return q_summaries.status();
    slice.summary_frames = q_summaries.value();
    auto q_missed = in.read_f64();
    if (!q_missed) return q_missed.status();
    slice.predicted_missed_mass = q_missed.value();
    auto q_total = in.read_f64();
    if (!q_total) return q_total.status();
    slice.predicted_total_mass = q_total.value();
    auto pair_count = in.read_u64();
    if (!pair_count) return pair_count.status();
    // Against remaining / 16, not count * 16: the product wraps for a
    // hostile count and would pass the check.
    if (pair_count.value() > in.remaining() / 16) {
      return common::Status(common::ErrorCode::kDataLoss,
                            "query pair count exceeds payload size");
    }
    slice.pairs.reserve(pair_count.value());
    for (std::uint64_t i = 0; i < pair_count.value(); ++i) {
      auto r_id = in.read_u64();
      if (!r_id) return r_id.status();
      auto s_id = in.read_u64();
      if (!s_id) return s_id.status();
      slice.pairs.push_back({r_id.value(), s_id.value()});
    }
    msg.queries.push_back(std::move(slice));
  }
  if (in.remaining() != 0) {
    return common::Status(common::ErrorCode::kDataLoss,
                          "trailing bytes after the query sections");
  }
  return msg;
}

std::vector<std::uint8_t> DrainMsg::encode() const {
  common::BufferWriter out(8 + dead_nodes.size() * 4);
  out.write_u32(static_cast<std::uint32_t>(dead_nodes.size()));
  for (auto node : dead_nodes) out.write_u32(node);
  return std::move(out).take();
}

common::Result<DrainMsg> DrainMsg::decode(std::span<const std::uint8_t> bytes) {
  common::BufferReader in(bytes);
  DrainMsg msg;
  auto count = in.read_u32();
  if (!count) return count.status();
  if (in.remaining() % 4 != 0 || count.value() != in.remaining() / 4) {
    return common::Status(common::ErrorCode::kDataLoss,
                          "dead-node count mismatches payload size");
  }
  msg.dead_nodes.reserve(count.value());
  for (std::uint32_t i = 0; i < count.value(); ++i) {
    auto node = in.read_u32();
    if (!node) return node.status();
    msg.dead_nodes.push_back(node.value());
  }
  return msg;
}

}  // namespace dsjoin::runtime
