#include "dsjoin/core/node.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <limits>

#include "dsjoin/core/wire.hpp"

namespace dsjoin::core {

namespace {
stream::ResultPair make_pair(const stream::Tuple& tuple,
                             const stream::StoredTuple& match) {
  // ResultPair is (R id, S id) regardless of which member was processed.
  return tuple.side == stream::StreamSide::kR
             ? stream::ResultPair{tuple.id, match.id}
             : stream::ResultPair{match.id, tuple.id};
}

// Online epsilon controller (when online_target_eps >= 0): the chance a
// tuple is broadcast as an audit, the throttle step per unit of epsilon
// error, and the local tuples between adjustments.
constexpr double kAuditProbability = 0.05;
constexpr double kControllerGain = 0.3;
constexpr std::uint64_t kControllerIntervalTuples = 512;
}  // namespace

Node::QueryRuntime::QueryRuntime(const SystemConfig& base,
                                 const QuerySpec& query_spec, net::NodeId self,
                                 SummarySubstrate& substrate,
                                 MetricsCollector* collector)
    : spec(query_spec),
      policy(std::make_unique<RoutingPolicy>(base, query_spec, self,
                                             substrate)),
      metrics(collector),
      // Same stream for every query (and identical to the single-query
      // engine's): queries draw independently, so N copies of one query
      // audit — and thus route — exactly like N independent baseline runs.
      audit_rng(base.seed ^ (0xadd17000ULL + self)),
      throttle(query_spec.throttle) {}

Node::Node(const SystemConfig& config, net::NodeId self,
           net::Transport& transport,
           std::span<MetricsCollector* const> query_metrics)
    : config_(config), self_(self), transport_(transport),
      substrate_(config, self),
      max_half_width_(max_join_half_width(config)),
      peer_clock_(config.nodes, -std::numeric_limits<double>::infinity()),
      summary_frontier_(-std::numeric_limits<double>::infinity()),
      summary_seq_(config.nodes, 0) {
  peer_clock_[self] = std::numeric_limits<double>::infinity();
  const std::vector<QuerySpec>& specs = config.queries;
  assert(query_metrics.size() == specs.size() &&
         "one MetricsCollector per registered query");
  multi_query_ = multi_query_mode(config);
  substrate_.set_multi_query(multi_query_);
  queries_.reserve(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    queries_.emplace_back(config, specs[i], self, substrate_,
                          query_metrics[i]);
  }
  eval_scratch_.resize(queries_.size());
  for (auto& eval : eval_scratch_) eval.origin_pairs.resize(config_.nodes);

  // Probe groups: queries with the same half-width scan the shared local
  // windows once per tuple (exact double equality: equal specs compare
  // equal).
  group_of_query_.resize(queries_.size());
  for (std::size_t i = 0; i < queries_.size(); ++i) {
    const double hw = queries_[i].spec.join_half_width_s;
    std::size_t g = 0;
    while (g < probe_groups_.size() && probe_groups_[g].half_width != hw) ++g;
    if (g == probe_groups_.size()) probe_groups_.push_back(ProbeGroup{hw, {}});
    probe_groups_[g].queries.push_back(i);
    group_of_query_[i] = g;
  }
  group_matches_.resize(probe_groups_.size());
  group_collected_.resize(probe_groups_.size(), false);
}

Node::Node(const SystemConfig& config, net::NodeId self,
           net::Transport& transport, MetricsCollector& metrics)
    : Node(config, self, transport,
           std::array<MetricsCollector* const, 1>{&metrics}) {}

void Node::evaluate_routing(QueryRuntime& query, const stream::Tuple& tuple,
                            QueryEval& eval) {
  // Online controller: a small audit sample is broadcast to every peer; the
  // remote-match rate of audited tuples estimates the true match rate, and
  // comparing it with the policy-routed tuples' rate yields epsilon online.
  const bool controller_on = config_.online_target_eps >= 0.0;
  eval.audited =
      controller_on && query.audit_rng.next_bool(kAuditProbability);
  if (eval.audited) {
    for (net::NodeId j = 0; j < config_.nodes; ++j) {
      if (j != self_) eval.destinations.push_back(j);
    }
  } else {
    query.policy->route(tuple, eval.destinations);
  }
  if (controller_on) track_sent(query, tuple.id, eval.audited);
}

void Node::send_result_frame(QueryRuntime& query, net::NodeId origin,
                             std::span<const stream::ResultPair> pairs) {
  net::Frame out;
  out.from = self_;
  out.to = origin;
  out.kind = net::FrameKind::kResult;
  // The pairs are encoded straight from the callers' scratch, which keeps
  // its capacity: the frame's own bytes are the result path's one
  // allocation.
  out.payload = ResultPayload::encode(pairs, query.spec.id, multi_query_);
  (void)transport_.send(std::move(out));
  ++query.result_frames;
}

void Node::on_local_tuple(const stream::Tuple& tuple, double now) {
  // Summary state advances on the local virtual clock, never on frame
  // arrival: everything visible by `now` must inform this tuple's routing.
  apply_due_summaries(now);
  const auto side = static_cast<std::size_t>(tuple.side);
  const auto opposite = 1 - side;

  // Shared ingest: the substrate sees each tuple exactly once, no matter
  // how many queries are registered. (Engines are never read by the joins
  // below, so feeding them before the joins is unobservable.)
  substrate_.observe_local(tuple);

  // Shared local-window probe: one scan per distinct half-width, consumed
  // by every query of that group (probe sharing, DESIGN.md §16).
  for (std::size_t g = 0; g < probe_groups_.size(); ++g) {
    auto& matches = group_matches_[g];
    matches.clear();
    local_[opposite].collect_matches(tuple.key, tuple.timestamp,
                                     probe_groups_[g].half_width, matches);
  }

  // Per-query evaluation: the local joins under the query's window and the
  // query's routing decision. All cross-query effects (inserts, frames)
  // are applied afterwards in canonical order.
  //
  // Local-local pairs need no network at all. Local-received pairs were
  // made possible by a peer's earlier forward; the complete result is
  // shipped back to that peer (it owns the matched tuple), which also
  // closes the feedback loop the online controller relies on.
  const bool controller_on = config_.online_target_eps >= 0.0;
  for (std::size_t i = 0; i < queries_.size(); ++i) {
    QueryRuntime& query = queries_[i];
    QueryEval& eval = eval_scratch_[i];
    eval.audited = false;
    eval.destinations.clear();
    for (auto& pairs : eval.origin_pairs) pairs.clear();
    for (const auto& match : group_matches_[group_of_query_[i]]) {
      query.metrics->record_pair(make_pair(tuple, match), self_, now);
    }
    eval.matches.clear();
    query.received[opposite].collect_matches(tuple.key, tuple.timestamp,
                                             query.spec.join_half_width_s,
                                             eval.matches);
    for (const auto& match : eval.matches) {
      const auto pair = make_pair(tuple, match);
      query.metrics->record_pair(pair, self_, now);
      if (match.origin != self_) eval.origin_pairs[match.origin].push_back(pair);
    }
    evaluate_routing(query, tuple, eval);
  }

  local_[side].insert(tuple);

  for (auto& query : queries_) {
    auto& origin_pairs = eval_scratch_[&query - queries_.data()].origin_pairs;
    for (net::NodeId origin = 0; origin < config_.nodes; ++origin) {
      if (!origin_pairs[origin].empty()) {
        send_result_frame(query, origin, origin_pairs[origin]);
      }
    }
  }

  // Destination union in canonical query order; each tuple frame carries
  // the mask of queries that routed it and is attributed to the lowest.
  auto& destinations = union_destinations_;
  auto& masks = union_masks_;
  destinations.clear();
  masks.clear();
  for (std::size_t i = 0; i < queries_.size(); ++i) {
    for (const net::NodeId dest : eval_scratch_[i].destinations) {
      const auto it = std::find(destinations.begin(), destinations.end(), dest);
      if (it == destinations.end()) {
        destinations.push_back(dest);
        masks.push_back(std::uint64_t{1} << i);
      } else {
        masks[static_cast<std::size_t>(it - destinations.begin())] |=
            std::uint64_t{1} << i;
      }
    }
  }

  for (std::size_t d = 0; d < destinations.size(); ++d) {
    const net::NodeId dest = destinations[d];
    TuplePayload payload;
    payload.tuple = tuple;
    payload.query_mask = masks[d];
    payload.piggyback = substrate_.piggyback_for(dest);
    if (!payload.piggyback.empty()) {
      payload.stamp.emit_time = now;
      payload.stamp.seq = summary_seq_[dest]++;
    }
    net::Frame frame;
    frame.from = self_;
    frame.to = dest;
    frame.kind = net::FrameKind::kTuple;
    frame.piggyback_bytes = static_cast<std::uint32_t>(payload.piggyback.size());
    frame.payload = payload.encode(multi_query_);
    (void)transport_.send(std::move(frame));
    ++queries_[static_cast<std::size_t>(std::countr_zero(masks[d]))]
          .forwarded_tuples;
  }

  for (auto& summary : substrate_.maintenance(now)) {
    // Standalone summary frames belong to the emitting family's lowest
    // subscriber (per-query counts must sum to the node totals).
    const std::uint32_t owner_id = substrate_.lowest_subscriber(summary.family);
    for (auto& query : queries_) {
      if (query.spec.id == owner_id) {
        ++query.summary_frames;
        break;
      }
    }
    send_summary(summary.peer, std::move(summary.block), now);
  }

  const std::uint64_t local_tuples = substrate_.local_tuples();
  if (controller_on && local_tuples % kControllerIntervalTuples == 0) {
    for (auto& query : queries_) run_controller(query);
  }
  if (local_tuples % 128 == 0) evict(now);
}

void Node::on_frame(net::Frame&& frame, double now) {
  // Neither socket transport checks `from`, and it indexes per-peer state.
  if (frame.from >= config_.nodes || frame.from == self_) {
    ++decode_failures_;
    return;
  }
  switch (frame.kind) {
    case net::FrameKind::kTuple: {
      auto payload = TuplePayload::decode(frame.payload, multi_query_);
      // A node forwards only its own arrivals; the origin indexes the
      // result-shipping lists.
      if (!payload || payload.value().tuple.origin != frame.from) {
        ++decode_failures_;
        return;
      }
      const stream::Tuple& tuple = payload.value().tuple;
      peer_clock_[frame.from] =
          std::max(peer_clock_[frame.from], tuple.timestamp);
      if (!payload.value().piggyback.empty() && !external_summary_feed_) {
        queue_summary(frame.from, payload.value().stamp,
                      std::move(payload.value().piggyback));
      }
      ++received_tuples_;
      const auto side = static_cast<std::size_t>(tuple.side);
      const auto opposite = 1 - side;

      // Which queries routed this copy here. A zero mask (single-query
      // traffic, or a sender that filled nothing in) means every query.
      std::uint64_t mask = multi_query_ ? payload.value().query_mask : 1;
      if (mask == 0) mask = ~std::uint64_t{0};
      bool attributed = false;

      // Forwarded tuples join against this node's *local* segment only
      // (the R_i x S_j decomposition of Section 2); discovered pairs are
      // shipped back to the tuple's origin, per query. The local windows
      // are scanned lazily, once per probe group the mask touches — masked
      // queries of one half-width share the match list (nothing inserts
      // into local_ during a frame).
      std::fill(group_collected_.begin(), group_collected_.end(), false);
      for (std::size_t i = 0; i < queries_.size(); ++i) {
        if ((mask & (std::uint64_t{1} << i)) == 0) continue;
        QueryRuntime& query = queries_[i];
        if (!attributed) {
          ++query.received_tuples;  // frame charged to its lowest query
          attributed = true;
        }
        const std::size_t g = group_of_query_[i];
        if (!group_collected_[g]) {
          group_matches_[g].clear();
          local_[opposite].collect_matches(tuple.key, tuple.timestamp,
                                           probe_groups_[g].half_width,
                                           group_matches_[g]);
          group_collected_[g] = true;
        }
        frame_pairs_.clear();
        for (const auto& match : group_matches_[g]) {
          const auto pair = make_pair(tuple, match);
          query.metrics->record_pair(pair, self_, now);
          frame_pairs_.push_back(pair);
        }
        query.received[side].insert(tuple);

        // Controller feedback, reverse path: our local tuples covered
        // because the *partner* was forwarded here. Without this credit the
        // online epsilon estimate would ignore half of the coverage and
        // overshoot.
        if (config_.online_target_eps >= 0.0 && !frame_pairs_.empty()) {
          absorb_result_feedback(query, frame_pairs_);
        }

        if (!frame_pairs_.empty() && tuple.origin != self_) {
          send_result_frame(query, tuple.origin, frame_pairs_);
        }
      }
      break;
    }
    case net::FrameKind::kSummary: {
      auto payload = SummaryPayload::decode(frame.payload);
      if (!payload) {
        ++decode_failures_;
        return;
      }
      peer_clock_[frame.from] =
          std::max(peer_clock_[frame.from], payload.value().stamp.emit_time);
      if (!external_summary_feed_) {
        queue_summary(frame.from, payload.value().stamp,
                      std::move(payload.value().block));
      }
      break;
    }
    case net::FrameKind::kResult: {
      // Pairs were recorded by the discovering node; the shipment feeds the
      // online controller's match-rate estimates.
      if (config_.online_target_eps >= 0.0) {
        auto payload = ResultPayload::decode(frame.payload, multi_query_);
        if (!payload) {
          ++decode_failures_;
          return;
        }
        for (auto& query : queries_) {
          if (!multi_query_ || query.spec.id == payload.value().query_id) {
            absorb_result_feedback(query, payload.value().pairs);
            break;
          }
        }
      }
      break;
    }
    case net::FrameKind::kControl:
      break;
  }
}

QueryCounters Node::query_counters(std::size_t index) const noexcept {
  const QueryRuntime& query = queries_[index];
  QueryCounters out;
  out.query_id = query.spec.id;
  out.received_tuples = query.received_tuples;
  out.forwarded_tuples = query.forwarded_tuples;
  out.result_frames = query.result_frames;
  out.summary_frames = query.summary_frames;
  out.throttle = query.throttle;
  out.eps_estimate = query.eps_estimate;
  return out;
}

void Node::note_peer_dead(net::NodeId peer) {
  if (peer < config_.nodes) {
    peer_clock_[peer] = std::numeric_limits<double>::infinity();
  }
}

void Node::evict(double now) {
  // Later local arrivals carry ts >= now and probe both kinds of store; a
  // later forward from peer j carries ts >= peer_clock_[j] and probes only
  // local_. Behind these horizons nothing can match (DESIGN.md §21). The
  // shared local windows retain to the widest query's horizon; each
  // query's received store only needs its own.
  const double clock =
      std::min(now, *std::min_element(peer_clock_.begin(), peer_clock_.end()));
  for (auto& store : local_) store.evict_before(clock - 2.0 * max_half_width_);
  for (auto& query : queries_) {
    const double horizon = now - 2.0 * query.spec.join_half_width_s;
    for (auto& store : query.received) store.evict_before(horizon);
  }
}

void Node::track_sent(QueryRuntime& query, std::uint64_t id, bool audited) {
  query.sent_class.emplace(id, audited);
  query.sent_order.push_back(id);
  (audited ? query.audit_sent : query.regular_sent) += 1;
  // Bound the attribution window; feedback for evicted ids is ignored.
  constexpr std::size_t kCap = 8192;
  while (query.sent_order.size() > kCap) {
    query.sent_class.erase(query.sent_order.front());
    query.sent_order.pop_front();
  }
}

void Node::absorb_result_feedback(QueryRuntime& query,
                                  std::span<const stream::ResultPair> pairs) {
  for (const auto& pair : pairs) {
    // One of the two ids is ours; the discovering node keyed the shipment
    // to the tuple it processed, and the reverse-path credit passes pairs
    // whose local member is ours.
    auto it = query.sent_class.find(pair.r_id);
    if (it == query.sent_class.end()) it = query.sent_class.find(pair.s_id);
    if (it == query.sent_class.end()) continue;
    const std::uint64_t pair_hash = stream::ResultPairHash{}(pair);
    if (!query.credited_pairs.insert(pair_hash).second) continue;  // seen
    query.credited_order.push_back(pair_hash);
    constexpr std::size_t kCap = 1 << 15;
    while (query.credited_order.size() > kCap) {
      query.credited_pairs.erase(query.credited_order.front());
      query.credited_order.pop_front();
    }
    (it->second ? query.audit_matches : query.regular_matches) += 1.0;
  }
}

void Node::run_controller(QueryRuntime& query) {
  if (query.audit_sent < 8 || query.audit_matches <= 0.0 ||
      query.regular_sent == 0) {
    return;  // not enough audit evidence yet
  }
  const double audit_rate =
      query.audit_matches / static_cast<double>(query.audit_sent);
  const double regular_rate =
      query.regular_matches / static_cast<double>(query.regular_sent);
  const double sample = std::clamp(1.0 - regular_rate / audit_rate, 0.0, 1.0);
  query.eps_estimate = query.eps_estimate < 0.0
                           ? sample
                           : 0.7 * query.eps_estimate + 0.3 * sample;
  // Proportional control on the forwarding budget knob: too many misses ->
  // open the throttle; overshooting the accuracy target -> save messages.
  query.throttle = std::clamp(
      query.throttle +
          kControllerGain * (query.eps_estimate - config_.online_target_eps),
      0.0, 1.0);
  query.policy->set_throttle(query.throttle);
  // Decay the window so the estimate tracks the current operating point
  // without discarding too much evidence at once.
  query.audit_sent =
      static_cast<std::uint64_t>(0.7 * static_cast<double>(query.audit_sent));
  query.regular_sent =
      static_cast<std::uint64_t>(0.7 * static_cast<double>(query.regular_sent));
  query.audit_matches *= 0.7;
  query.regular_matches *= 0.7;
}

void Node::queue_summary(net::NodeId from, const SummaryStamp& stamp,
                         SummaryBlock block) {
  const double visible = config_.summary_visible_time(stamp.emit_time);
  if (visible <= summary_frontier_) {
    // The boundary already passed on the local clock — exact application
    // order is unrecoverable. Apply now, flag the run.
    ++late_summaries_;
    if (!substrate_.on_summary(from, block).is_ok()) ++decode_failures_;
    return;
  }
  pending_summaries_.push_back(
      PendingSummary{visible, stamp.seq, from, std::move(block)});
}

void Node::apply_due_summaries(double now) {
  if (now > summary_frontier_) summary_frontier_ = now;
  if (pending_summaries_.empty()) return;
  const auto due = std::partition(
      pending_summaries_.begin(), pending_summaries_.end(),
      [&](const PendingSummary& p) { return p.visible > summary_frontier_; });
  if (due == pending_summaries_.end()) return;
  // (visible, sender, seq) is a strict total order over pending entries, so
  // the application sequence is independent of arrival interleaving.
  std::sort(due, pending_summaries_.end(),
            [](const PendingSummary& a, const PendingSummary& b) {
              if (a.visible != b.visible) return a.visible < b.visible;
              if (a.from != b.from) return a.from < b.from;
              return a.seq < b.seq;
            });
  for (auto it = due; it != pending_summaries_.end(); ++it) {
    if (!substrate_.on_summary(it->from, it->block).is_ok()) ++decode_failures_;
  }
  pending_summaries_.erase(due, pending_summaries_.end());
}

void Node::send_summary(net::NodeId peer, SummaryBlock block, double now) {
  SummaryPayload payload;
  payload.block = std::move(block);
  payload.stamp.emit_time = now;
  payload.stamp.seq = summary_seq_[peer]++;
  net::Frame frame;
  frame.from = self_;
  frame.to = peer;
  frame.kind = net::FrameKind::kSummary;
  frame.payload = payload.encode();
  (void)transport_.send(std::move(frame));
}

}  // namespace dsjoin::core
