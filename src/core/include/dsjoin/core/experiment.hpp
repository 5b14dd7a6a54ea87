// The transport-agnostic experiment engine's shared vocabulary.
//
// Three execution backplanes can drive one experiment — the deterministic
// WAN simulator (DspSystem), all nodes over the in-process loopback
// TcpTransport, and one OS process per node speaking the coordinator
// protocol. They differ only in how frames move and where nodes live;
// everything a figure reads from a run is defined here, once:
//
//   * Backend        — which backplane executed the run;
//   * NodeReport     — one node's final accounting (what a daemon ships
//                      home in METRICS_REPORT, and what the in-process
//                      backends assemble directly);
//   * ExperimentResult — the single result struct every backend returns,
//                      with the derived metrics (epsilon, messages per
//                      result, throughput) computed by the same code
//                      regardless of backplane.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "dsjoin/common/status.hpp"
#include "dsjoin/net/frame.hpp"
#include "dsjoin/net/stats.hpp"
#include "dsjoin/stream/tuple.hpp"

namespace dsjoin::core {

struct ArrivalSchedule;
struct SystemConfig;

/// Execution backplanes of the experiment engine.
enum class Backend : std::uint8_t {
  kSim = 0,           ///< deterministic WAN simulator (virtual time)
  kTcpInprocess = 1,  ///< all nodes in-process over loopback TcpTransport
  kMultiprocess = 2,  ///< one forked process per node + coordinator protocol
};

/// CLI spelling: "sim" | "tcp-inprocess" | "multiprocess".
const char* to_string(Backend backend) noexcept;

/// Parses a backend name; kInvalidArgument (listing the valid spellings)
/// for anything else. Every CLI site funnels --backend through this.
common::Result<Backend> backend_from_string(const std::string& name);

/// One registered query's slice of a node's final accounting. Frame
/// attribution is exclusive (see core::QueryCounters), so summing any
/// counter over a node's queries reproduces the node aggregate exactly.
struct QueryNodeReport {
  std::uint32_t query_id = 0;
  std::uint64_t received_tuples = 0;   ///< inbound tuple frames attributed
  std::uint64_t forwarded_tuples = 0;  ///< outbound tuple frames attributed
  std::uint64_t result_frames = 0;     ///< outbound result frames
  std::uint64_t summary_frames = 0;    ///< outbound standalone summaries
  double predicted_missed_mass = 0.0;
  double predicted_total_mass = 0.0;
  std::vector<stream::ResultPair> pairs;  ///< this node's, this query's
};

/// One node's final accounting — the per-node half of metrics assembly.
/// NodeHost::report() produces it identically on every backplane; the
/// multiprocess runtime ships it over the wire as METRICS_REPORT.
struct NodeReport {
  net::NodeId node_id = 0;
  std::uint64_t local_tuples = 0;     ///< arrivals ingested from own source
  std::uint64_t received_tuples = 0;  ///< forwarded tuples from peers
  std::uint64_t decode_failures = 0;  ///< should be 0
  /// Summaries applied after their virtual-time visibility boundary had
  /// already passed (should be 0; non-zero voids exact parity).
  std::uint64_t late_summaries = 0;
  /// Predicted-epsilon bound terms accumulated by the node's routing
  /// policy ({0, 0} for policies with no error model). Both travel in
  /// METRICS_REPORT so the multiprocess coordinator aggregates the same
  /// numbers the in-process backends do.
  double predicted_missed_mass = 0.0;
  double predicted_total_mass = 0.0;
  /// 1 when this node's drain timed out and it reported what it had (a
  /// daemon's outcome, carried in METRICS_REPORT); 0 otherwise.
  std::uint64_t partial_drains = 0;
  net::TrafficCounters traffic;       ///< frames this node sent
  /// Per-query breakdown in config.queries order, each with the node's
  /// locally discovered, deduplicated pairs. With one query it restates the
  /// aggregates above.
  std::vector<QueryNodeReport> queries;
};

/// One registered query's global outcome. Multi-query runs treat each query
/// as its own join: pairs are deduplicated per query, epsilon is computed
/// against that query's exact join (its own window half-width), and the
/// attributed frame counters sum to the run aggregates.
struct QueryResult {
  std::uint32_t query_id = 0;
  std::uint64_t exact_pairs = 0;     ///< 0 when verify/oracle is off
  std::uint64_t reported_pairs = 0;  ///< globally deduplicated, this query
  std::uint64_t false_pairs = 0;
  std::uint64_t received_tuples = 0;
  std::uint64_t forwarded_tuples = 0;
  std::uint64_t result_frames = 0;
  std::uint64_t summary_frames = 0;
  double predicted_missed_mass = 0.0;
  double predicted_total_mass = 0.0;
  double epsilon = 0.0;
  double predicted_epsilon_bound = -1.0;
  /// The query's globally deduplicated pair set, sorted by (r_id, s_id) —
  /// what the multi-query parity tests compare element-wise per query.
  std::vector<stream::ResultPair> pairs;
};

/// Everything a figure needs from one run, whichever backend produced it.
struct ExperimentResult {
  // Outcome. The simulator always completes; socket backends may fail
  // setup (clean = false, see error) or degrade (nodes_failed > 0).
  bool clean = false;
  std::string error;
  Backend backend = Backend::kSim;
  std::uint32_t nodes_admitted = 0;
  std::uint32_t nodes_failed = 0;     ///< died after the run started

  // Raw counts.
  std::uint64_t exact_pairs = 0;      ///< |Psi| (oracle; 0 when verify off)
  std::uint64_t reported_pairs = 0;   ///< |Psi-hat| (globally deduplicated)
  std::uint64_t false_pairs = 0;      ///< reported but not in Psi (socket verify)
  std::uint64_t total_arrivals = 0;
  std::uint64_t decode_failures = 0;  ///< should be 0
  /// Sum of per-node late summary applications (0 = routing state was a
  /// pure function of virtual time; cross-backend parity holds).
  std::uint64_t late_summaries = 0;
  /// Live nodes whose drain did not complete: a drain that timed out, or a
  /// daemon that never reported. Their pairs may be missing, so any makes
  /// the run unclean and `error` names the nodes.
  std::uint64_t partial_drains = 0;
  net::TrafficCounters traffic;       ///< frames/bytes by kind
  /// The globally deduplicated pair set, sorted by (r_id, s_id) — what
  /// verify_against_schedule audits and what the cross-backend parity
  /// tests compare element-wise.
  std::vector<stream::ResultPair> pairs;
  /// Simulator: virtual time to full drain. Socket backends: wall-clock
  /// seconds from run start to drain complete (real throughput).
  double makespan_s = 0.0;
  bool fallback_engaged = false;      ///< any node in round-robin fallback

  /// Summed predicted-epsilon bound terms (see NodeReport).
  double predicted_missed_mass = 0.0;
  double predicted_total_mass = 0.0;

  // Derived (finalize_derived_metrics).
  double epsilon = 0.0;               ///< Eq. 1: missed-result fraction
  /// Policy-reported upper confidence bound on epsilon, computed without
  /// the oracle (missed/total mass, clamped to [0, 1]); -1 when the policy
  /// has no error model (every policy but SMPL today). Acceptance target:
  /// covers the oracle epsilon in >= 95% of seeded runs (DESIGN.md §14).
  double predicted_epsilon_bound = -1.0;
  double messages_per_result = 0.0;   ///< total frames / |Psi-hat|
  double results_per_second = 0.0;    ///< |Psi-hat| / makespan
  double ingest_per_second = 0.0;     ///< arrivals / makespan
  double summary_byte_fraction = 0.0; ///< Figure 8's ratio

  /// Per-query outcomes in config.queries order. The run aggregates above
  /// are sums over this list (reported/exact pairs are summed per query,
  /// NOT the union — every query is its own join); `pairs` keeps the
  /// cross-query union, which with one query is that query's pair set.
  std::vector<QueryResult> per_query;
};

/// Folds per-node reports into `result`: sums arrivals, decode failures,
/// late summaries and partial drains, merges traffic, and merges the nodes' sorted pair lists per
/// query into result->per_query, then across queries into result->pairs
/// (sorted). Callers with a shared transport (one global counter, not
/// per-node) pass `merge_traffic = false` and install the union
/// themselves.
void aggregate_node_reports(std::span<const NodeReport> reports,
                            ExperimentResult* result,
                            bool merge_traffic = true);

/// Recomputes each query's exact join from the deterministic arrival
/// schedule under that query's window (config.queries) and fills the
/// per-query and run exact_pairs / false_pairs from result->per_query's
/// pair lists — how the socket backends (which have no in-run oracle)
/// account epsilon honestly. A result with fewer per-query entries than
/// config.queries (no node reported) gets one per query. `schedule` must
/// be ArrivalSchedule::build(config): a driver that already built it
/// passes its own.
void verify_against_schedule(const SystemConfig& config,
                             const ArrivalSchedule& schedule,
                             ExperimentResult* result);

/// The same, building the schedule from `config` — for callers that hold
/// none (the coordinator). `pairs` is not read: the audit checks the
/// per-query lists in `result`, whose union it is.
void verify_against_schedule(const SystemConfig& config,
                             std::span<const stream::ResultPair> pairs,
                             ExperimentResult* result);

/// Marks `result` unclean for the live nodes in `nodes`, whose drain did
/// not complete, naming them in `error`. Counting them in partial_drains
/// stays with the caller, which knows which ones a report already counted.
void mark_partial_drains(std::span<const net::NodeId> nodes,
                         ExperimentResult* result);

/// Computes every derived metric from the raw counts. All backends call
/// this — the coordinator's REPORT line and DspSystem::run() are the same
/// arithmetic by construction.
void finalize_derived_metrics(ExperimentResult* result);

}  // namespace dsjoin::core
