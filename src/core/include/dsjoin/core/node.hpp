// Processing node (Figure 1's N_i).
//
// A node holds its segments of both stream windows, runs the local join on
// every arriving tuple (local and forwarded), executes its routing policy,
// piggybacks/flushes summaries, and ships discovered result pairs back to
// the forwarded tuple's origin ("matching tuples must still be transmitted
// over the network in order to provide the complete result", Section 5.3).
//
// Multi-query serving (DESIGN.md §15): a node hosts every query of
// config.queries. The local stream windows and the summary substrate are
// ingested once per tuple; each registered query keeps its own routing
// policy, received-tuple stores, online controller and MetricsCollector.
// With one query the tuple and result frames carry no per-query fields.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "dsjoin/core/config.hpp"
#include "dsjoin/core/metrics.hpp"
#include "dsjoin/core/policy.hpp"
#include "dsjoin/core/substrate.hpp"
#include "dsjoin/net/transport.hpp"
#include "dsjoin/stream/tuple.hpp"
#include "dsjoin/stream/window.hpp"

namespace dsjoin::core {

/// Per-query attribution counters a node exposes for reporting. Every sent
/// or received frame is attributed to exactly one query (tuple frames to
/// the lowest-index query in their mask, standalone summaries to the
/// family's lowest subscriber), so per-query counts sum to the node
/// aggregates by construction.
struct QueryCounters {
  std::uint32_t query_id = 0;
  std::uint64_t received_tuples = 0;   ///< inbound tuple frames attributed
  std::uint64_t forwarded_tuples = 0;  ///< outbound tuple frames attributed
  std::uint64_t result_frames = 0;     ///< outbound result frames (owned)
  std::uint64_t summary_frames = 0;    ///< outbound standalone summaries
  double throttle = 0.0;
  double eps_estimate = -1.0;
};

class Node {
 public:
  /// One MetricsCollector per registered query, in config.queries order.
  /// The transport and every collector must outlive the node. The node
  /// registers no handler itself; the owner wires on_frame to the
  /// transport.
  Node(const SystemConfig& config, net::NodeId self, net::Transport& transport,
       std::span<MetricsCollector* const> query_metrics);

  /// Single-collector convenience (one-query configs only).
  Node(const SystemConfig& config, net::NodeId self, net::Transport& transport,
       MetricsCollector& metrics);

  net::NodeId id() const noexcept { return self_; }

  /// A tuple arrives from this node's own source at virtual time `now`
  /// (== tuple.timestamp).
  void on_local_tuple(const stream::Tuple& tuple, double now);

  /// A frame arrives from the network at virtual time `now`. A frame whose
  /// sender is not a peer, or a tuple frame whose origin is not its sender,
  /// is dropped and counted as a decode failure.
  void on_frame(net::Frame&& frame, double now);

  /// `peer` sends nothing more: it stops holding local-window eviction back
  /// (DESIGN.md §21). Call on the thread that owns the node, after the
  /// peer's last frame.
  void note_peer_dead(net::NodeId peer);

  /// When enabled, on_frame ignores summary content (piggyback blocks and
  /// kSummary frames): an external feed (the simulator's virtual-time tee)
  /// delivers summaries via queue_summary instead, exactly once, without
  /// transport latency deciding the application point.
  void set_external_summary_feed(bool enabled) noexcept {
    external_summary_feed_ = enabled;
  }

  /// Buffers a stamped summary from `from` until its visibility boundary
  /// (SystemConfig::summary_visible_time). A summary whose boundary already
  /// passed locally is applied immediately and counted late — the flag that
  /// cross-backend parity is no longer guaranteed.
  void queue_summary(net::NodeId from, const SummaryStamp& stamp,
                     SummaryBlock block);

  /// Query 0's policy — the whole story with one query, diagnostics only
  /// with several registered.
  RoutingPolicy& policy() noexcept { return *queries_.front().policy; }
  const RoutingPolicy& policy() const noexcept {
    return *queries_.front().policy;
  }

  // Per-query surface.
  std::size_t query_count() const noexcept { return queries_.size(); }
  const QuerySpec& query_spec(std::size_t index) const noexcept {
    return queries_[index].spec;
  }
  RoutingPolicy& query_policy(std::size_t index) noexcept {
    return *queries_[index].policy;
  }
  const RoutingPolicy& query_policy(std::size_t index) const noexcept {
    return *queries_[index].policy;
  }
  QueryCounters query_counters(std::size_t index) const noexcept;

  /// True when any registered query consumes summaries. Drivers use this to
  /// decide whether virtual-time summary synchronization (watermarks,
  /// visibility buffering) is needed at all; all-BASE/RR runs pay zero.
  bool uses_summaries() const noexcept { return substrate_.uses_summaries(); }

  SummarySubstrate& substrate() noexcept { return substrate_; }
  const SummarySubstrate& substrate() const noexcept { return substrate_; }

  /// Tuples this node ingested from its own source.
  std::uint64_t local_tuples() const noexcept {
    return substrate_.local_tuples();
  }
  /// Forwarded tuples received from peers.
  std::uint64_t received_tuples() const noexcept { return received_tuples_; }
  /// Frames that failed to decode, plus summary blocks the substrate
  /// rejected when applying them, due or late (should stay 0 in healthy
  /// runs).
  std::uint64_t decode_failures() const noexcept { return decode_failures_; }
  /// Summaries that arrived after their visibility boundary had already
  /// passed (should stay 0 when the driver's watermarks are working).
  std::uint64_t late_summaries() const noexcept { return late_summaries_; }

  /// Online controller diagnostics for query 0 (meaningful when
  /// online_target_eps >= 0); per-query values via query_counters().
  double current_throttle() const noexcept {
    return queries_.front().throttle;
  }
  /// Smoothed online estimate of the missed remote-match fraction; negative
  /// until the first audit window completes.
  double epsilon_estimate() const noexcept {
    return queries_.front().eps_estimate;
  }

 private:
  /// Everything one registered query owns: its routing policy (summary
  /// state shared via the substrate), the forwarded tuples routed to it,
  /// its online-controller state and its attribution counters.
  struct QueryRuntime {
    QuerySpec spec;
    std::unique_ptr<RoutingPolicy> policy;
    MetricsCollector* metrics = nullptr;
    std::array<stream::TupleStore, 2> received;  // forwarded tuples, by side

    // Online controller state (per query; identical cadence, own evidence).
    common::Xoshiro256 audit_rng;
    double throttle = 0.0;
    double eps_estimate = -1.0;
    std::unordered_map<std::uint64_t, bool> sent_class;  // id -> audited?
    std::deque<std::uint64_t> sent_order;                // FIFO cap
    std::uint64_t audit_sent = 0;
    std::uint64_t regular_sent = 0;
    double audit_matches = 0.0;
    double regular_matches = 0.0;
    /// Pairs already credited once — a pair covered via both directions
    /// (our forward and the partner's) must not count twice, or the
    /// estimate's numerator and denominator inflate asymmetrically.
    std::unordered_set<std::uint64_t> credited_pairs;
    std::deque<std::uint64_t> credited_order;

    // Frame attribution (see QueryCounters).
    std::uint64_t received_tuples = 0;
    std::uint64_t forwarded_tuples = 0;
    std::uint64_t result_frames = 0;
    std::uint64_t summary_frames = 0;

    QueryRuntime(const SystemConfig& base, const QuerySpec& spec,
                 net::NodeId self, SummarySubstrate& substrate,
                 MetricsCollector* metrics);
  };

  /// Per-tuple evaluation output of one query, produced before any
  /// cross-query effect is applied. All vectors are cleared per tuple and
  /// keep their capacity — the result path is allocation-free in steady
  /// state.
  struct QueryEval {
    bool audited = false;
    std::vector<net::NodeId> destinations;
    /// Discovered pairs by the origin they ship to, indexed by NodeId
    /// (replaces the per-tuple std::map). Frames are emitted by scanning
    /// NodeIds in ascending order — the order the map iterated in.
    std::vector<std::vector<stream::ResultPair>> origin_pairs;
    /// Received-store probe scratch.
    std::vector<stream::StoredTuple> matches;
  };

  /// The audit draw plus routing decision for one query.
  void evaluate_routing(QueryRuntime& query, const stream::Tuple& tuple,
                        QueryEval& eval);
  void send_result_frame(QueryRuntime& query, net::NodeId origin,
                         std::span<const stream::ResultPair> pairs);
  void evict(double now);
  void send_summary(net::NodeId peer, SummaryBlock block, double now);
  /// Applies every pending summary whose visibility boundary is <= now, in
  /// the canonical (visible_time, sender, seq) order. Advances the local
  /// summary frontier to `now` first.
  void apply_due_summaries(double now);
  /// Records a locally originated tuple's controller class (audit/regular).
  void track_sent(QueryRuntime& query, std::uint64_t id, bool audited);
  /// Attributes shipped result pairs to the controller classes.
  void absorb_result_feedback(QueryRuntime& query,
                              std::span<const stream::ResultPair> pairs);
  /// Periodic proportional throttle adjustment from the audit estimate.
  void run_controller(QueryRuntime& query);

  SystemConfig config_;
  net::NodeId self_;
  net::Transport& transport_;
  SummarySubstrate substrate_;
  std::vector<QueryRuntime> queries_;
  bool multi_query_ = false;
  double max_half_width_ = 0.0;  ///< retention horizon across queries
  std::array<stream::TupleStore, 2> local_;  // own tuples, by side
  /// Per peer, the latest timestamp on a tuple or summary frame processed
  /// from it: -inf before its first, +inf once it is dead, +inf for self.
  /// Links are FIFO and peers send in clock order, so no later frame from
  /// a peer is older than its entry; local_ evicts behind the smallest.
  std::vector<double> peer_clock_;
  std::uint64_t received_tuples_ = 0;
  std::uint64_t decode_failures_ = 0;
  std::uint64_t late_summaries_ = 0;

  // Virtual-time summary synchronization (see DESIGN.md §12).
  struct PendingSummary {
    double visible;      // visibility boundary (grid multiple)
    std::uint32_t seq;   // per-link emission counter
    net::NodeId from;
    SummaryBlock block;
  };
  std::vector<PendingSummary> pending_summaries_;
  /// Latest local-arrival virtual time; summaries visible at or before it
  /// have been applied.
  double summary_frontier_;
  /// Per-destination emission counters for outgoing stamps.
  std::vector<std::uint32_t> summary_seq_;
  bool external_summary_feed_ = false;

  // Scratch for the per-tuple evaluation (avoids per-tuple allocation).
  std::vector<QueryEval> eval_scratch_;

  // Cross-query probe sharing (DESIGN.md §16): the shared local windows are
  // scanned once per distinct join half-width, and every query of that
  // half-width consumes the one match list. Received stores stay per-query
  // (their contents already differ per query).
  struct ProbeGroup {
    double half_width;
    std::vector<std::size_t> queries;
  };
  std::vector<ProbeGroup> probe_groups_;
  std::vector<std::size_t> group_of_query_;
  /// Per-group local-window matches for the tuple in flight; built before
  /// the per-query evaluation, read-only inside it.
  std::vector<std::vector<stream::StoredTuple>> group_matches_;
  /// Lazy per-frame collect flags (on_frame probes a group's window only
  /// when a masked query actually needs it).
  std::vector<bool> group_collected_;
  /// on_frame result-shipping scratch (one list per masked query in turn).
  std::vector<stream::ResultPair> frame_pairs_;
  /// on_local_tuple's destination union and the query mask per destination.
  std::vector<net::NodeId> union_destinations_;
  std::vector<std::uint64_t> union_masks_;
};

}  // namespace dsjoin::core
