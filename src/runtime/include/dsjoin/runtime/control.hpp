// Control-plane protocol between the coordinator and node daemons.
//
// The paper's prototype ran on twenty workstations; this runtime reproduces
// that deployment shape with one daemon process per node and a coordinator
// that owns membership, config distribution, run control and metrics
// aggregation. All of it flows over one TCP connection per daemon as typed
// length-prefixed messages (net::MsgSocket):
//
//   daemon -> coordinator: HELLO (advertise data endpoint)
//   coordinator -> daemon: CONFIG (node id, SystemConfig, peer endpoints)
//   daemon -> coordinator: HEARTBEAT (state kMeshed once the data mesh is up)
//   coordinator -> daemon: START
//   daemon -> coordinator: HEARTBEAT (kRunning ... kDone), periodic
//   coordinator -> daemon: DRAIN (with the dead-node list)
//   daemon -> coordinator: METRICS_REPORT (counters + per-query pairs)
//   coordinator -> daemon: BYE
//
// Messages are versioned as one unit: kProtocolVersion changes whenever any
// encoding here (or serialize_config) changes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dsjoin/common/serialize.hpp"
#include "dsjoin/core/config.hpp"
#include "dsjoin/core/experiment.hpp"
#include "dsjoin/net/channel.hpp"
#include "dsjoin/net/stats.hpp"
#include "dsjoin/stream/tuple.hpp"

namespace dsjoin::runtime {

// v3: SystemConfig grew summary_sync_epoch_s, summary frames carry a
// virtual-time stamp, and METRICS_REPORT carries late_summaries.
// v4: SystemConfig grew summary_quant_bits and summary blocks may carry
// quantized coefficient sub-blocks (tags 'd' and 'h').
// v5: SystemConfig grew sample_capacity/sample_strata, summary blocks may
// carry stratified-sample sub-blocks (tag 'S'), and METRICS_REPORT carries
// the predicted-epsilon bound masses.
// v6: SystemConfig grew the registered query list, tuple payloads may carry
// a query mask and result payloads a query id, summary blocks may carry
// query-scope wrappers (tag 'Q'), and METRICS_REPORT carries per-query
// sections.
// v7: the query list is the only description of the query set — CONFIG
// drops the scalar policy, throttle and half-width fields and carries at
// least one query — and METRICS_REPORT ends after its last query section
// (the node-level pair list is gone).
// v8: CONFIG drops six fields nothing set — piggyback_max_coeffs,
// coeff_delta_threshold, uniform_detection_cv, audit_probability,
// controller_gain and controller_interval_tuples are constants now.
// v9: CONFIG drops stale_flush_epochs (a constant now), and METRICS_REPORT
// carries the daemon's drain outcome (partial_drains).
// v10: CONFIG drops the eviction retention margin (nodes evict behind
// their peers' delivered clocks).
// v11: CONFIG drops the simulator's strand count (one serial driver).
inline constexpr std::uint32_t kProtocolVersion = 11;

enum class ControlType : std::uint8_t {
  kHello = 1,
  kConfig = 2,
  kStart = 3,
  kHeartbeat = 4,
  kMetricsReport = 5,
  kDrain = 6,
  kBye = 7,
};

const char* to_string(ControlType type) noexcept;

/// Daemon lifecycle states carried in heartbeats.
enum class DaemonState : std::uint8_t {
  kJoining = 0,   ///< connected, waiting for CONFIG / forming the mesh
  kMeshed = 1,    ///< data-plane mesh up, waiting for START
  kRunning = 2,   ///< ingesting its arrival schedule
  kDone = 3,      ///< all local arrivals ingested, waiting for DRAIN
  kDraining = 4,  ///< flushing in-flight frames (FIN handshake)
};

const char* to_string(DaemonState state) noexcept;

/// HELLO: a daemon asks to join, advertising where peers can dial its
/// data-plane listener.
struct HelloMsg {
  std::uint32_t protocol = kProtocolVersion;
  net::Endpoint data_endpoint;

  std::vector<std::uint8_t> encode() const;
  static common::Result<HelloMsg> decode(std::span<const std::uint8_t> bytes);
};

/// CONFIG: the coordinator admits a daemon, assigns its node id and ships
/// the full experiment config plus every node's data endpoint.
struct ConfigMsg {
  net::NodeId node_id = 0;
  core::SystemConfig config;
  std::vector<net::Endpoint> peers;  ///< indexed by node id (self included)
  double heartbeat_period_s = 0.2;
  double mesh_timeout_s = 20.0;

  std::vector<std::uint8_t> encode() const;
  static common::Result<ConfigMsg> decode(std::span<const std::uint8_t> bytes);
};

/// HEARTBEAT: periodic daemon -> coordinator liveness + progress.
struct HeartbeatMsg {
  net::NodeId node_id = 0;
  DaemonState state = DaemonState::kJoining;
  std::uint64_t local_tuples = 0;     ///< arrivals ingested so far
  std::uint64_t pairs_discovered = 0; ///< distinct pairs in the local collector

  std::vector<std::uint8_t> encode() const;
  static common::Result<HeartbeatMsg> decode(std::span<const std::uint8_t> bytes);
};

/// METRICS_REPORT: a daemon's final accounting — core::NodeReport in wire
/// form. Each query section's pair list is the wire-metrics contract:
/// every distinct (r_id, s_id) the node discovered for that query,
/// deduplicated locally and sorted by (r_id, s_id) so the encoding is
/// byte-identical across runs; the coordinator performs the *global* dedup
/// (a pair may be discovered at both owners) and computes epsilon against
/// the oracle. The message ends after its last query section; the decoder
/// rejects trailing bytes and any count the remaining payload cannot hold.
struct MetricsReportMsg {
  net::NodeId node_id = 0;
  std::uint64_t local_tuples = 0;
  std::uint64_t received_tuples = 0;
  std::uint64_t decode_failures = 0;
  std::uint64_t late_summaries = 0;
  /// 1 when the daemon's drain timed out before it reported.
  std::uint64_t partial_drains = 0;
  double predicted_missed_mass = 0.0;
  double predicted_total_mass = 0.0;
  net::TrafficCounters traffic;  ///< frames this daemon sent, by kind
  /// Per-query sections in config.queries order — the wire form of
  /// NodeReport::queries.
  std::vector<core::QueryNodeReport> queries;

  static MetricsReportMsg from_node_report(core::NodeReport report);
  core::NodeReport to_node_report() const;

  std::vector<std::uint8_t> encode() const;
  static common::Result<MetricsReportMsg> decode(std::span<const std::uint8_t> bytes);
};

/// DRAIN: all live daemons have reported kDone; flush in-flight frames.
/// Dead nodes are listed so daemons do not wait on FIN markers from them
/// (they also detect the deaths themselves via data-socket EOF; the list
/// covers daemons that never observed the dead peer's sockets closing).
struct DrainMsg {
  std::vector<net::NodeId> dead_nodes;

  std::vector<std::uint8_t> encode() const;
  static common::Result<DrainMsg> decode(std::span<const std::uint8_t> bytes);
};

// START and BYE carry no payload.

/// Endpoint wire helpers (shared by HELLO and CONFIG).
void serialize_endpoint(const net::Endpoint& endpoint, common::BufferWriter& out);
common::Result<net::Endpoint> deserialize_endpoint(common::BufferReader& in);

}  // namespace dsjoin::runtime
