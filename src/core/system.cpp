#include "dsjoin/core/system.hpp"

#include <cassert>
#include <span>
#include <stdexcept>

#include "dsjoin/core/wire.hpp"

namespace dsjoin::core {

namespace {
// The one validity gate (DESIGN §15.4), run before any member is built
// from the config.
const SystemConfig& validated(const SystemConfig& config) {
  if (auto valid = validate_config(config); !valid.is_ok()) {
    throw std::invalid_argument(valid.message());
  }
  return config;
}
}  // namespace

DspSystem::DspSystem(const SystemConfig& config)
    : config_(validated(config)), source_(config) {
  transport_ = std::make_unique<net::SimTransport>(queue_, config.nodes,
                                                   config.wan, config.seed ^ 0x77);
  transport_->set_summary_sink(
      [this](const net::Frame& frame) { tee_summary(frame); });

  query_metrics_.reserve(config.queries.size());
  metrics_ptrs_.reserve(config.queries.size());
  for (const QuerySpec& spec : config.queries) {
    query_metrics_.push_back(std::make_unique<MetricsCollector>());
    query_metrics_.back()->set_node_count(config.nodes);
    metrics_ptrs_.push_back(query_metrics_.back().get());
    oracles_.try_emplace(spec.join_half_width_s, spec.join_half_width_s);
  }
  hosts_.resize(config.nodes);
  for (net::NodeId id = 0; id < config.nodes; ++id) {
    install_node(id);
  }
}

DspSystem::~DspSystem() = default;

void DspSystem::install_node(net::NodeId id) {
  hosts_[id] = std::make_unique<NodeHost>(
      config_, id, *transport_,
      std::span<MetricsCollector* const>(metrics_ptrs_.data(),
                                         metrics_ptrs_.size()));
  // Summary content reaches the node through the transport's summary sink
  // (virtual-time plane); the arrival-time frame path must not apply it a
  // second time.
  hosts_[id]->node().set_external_summary_feed(true);
  // The host is resolved per delivery, so frames still in flight across a
  // crash-and-restart reach the fresh instance.
  transport_->register_handler(id, [this, id](net::Frame&& frame) {
    hosts_[id]->deliver(std::move(frame), queue_.now());
  });
}

void DspSystem::tee_summary(const net::Frame& frame) {
  // Hosts are re-resolved per call so blocks committed across a
  // crash-and-restart reach the live instance. Decode failures (corruption
  // injection) are counted by the receiver's frame path, not here.
  if (frame.kind == net::FrameKind::kSummary) {
    auto payload = SummaryPayload::decode(frame.payload);
    if (!payload) return;
    hosts_[frame.to]->node().queue_summary(frame.from, payload.value().stamp,
                                           std::move(payload.value().block));
  } else if (frame.kind == net::FrameKind::kTuple) {
    auto payload =
        TuplePayload::decode(frame.payload, multi_query_mode(config_));
    if (!payload || payload.value().piggyback.empty()) return;
    hosts_[frame.to]->node().queue_summary(
        frame.from, payload.value().stamp,
        std::move(payload.value().piggyback));
  }
}

void DspSystem::schedule_restart(net::NodeId node, double at) {
  assert(!ran_ && "schedule restarts before run()");
  assert(node < config_.nodes);
  pending_restarts_.emplace_back(node, at);
}

void DspSystem::schedule_arrival(net::NodeId node, stream::StreamSide side,
                                 double at) {
  queue_.schedule_at(at, [this, node, side] {
    if (source_.exhausted(node, side)) return;

    // Backpressure: a node whose outgoing links are saturated stalls its
    // source (bounded send queue). This is what lets BASE's O(N^2) traffic
    // collapse its throughput in Figure 11 instead of queueing unboundedly.
    const double now = queue_.now();
    if (config_.max_backlog_s > 0.0) {
      const double backlog = transport_->send_backlog_seconds(node);
      if (backlog > config_.max_backlog_s) {
        schedule_arrival(node, side, now + (backlog - config_.max_backlog_s));
        return;
      }
    }

    const stream::Tuple tuple = source_.emit(node, side, now);

    // Arrival events fire in global time order, so the oracle sees tuples
    // in nondecreasing timestamp order.
    if (config_.oracle_enabled) {
      for (auto& [width, oracle] : oracles_) oracle.observe(tuple);
    }
    hosts_[node]->ingest(tuple, now);

    schedule_arrival(node, side, now + source_.next_gap(node, side));
  });
}

ExperimentResult DspSystem::run() {
  assert(!ran_ && "DspSystem instances are single-run");
  ran_ = true;

  for (const auto& [node, at] : pending_restarts_) {
    queue_.schedule_at(at, [this, node = node] {
      // Crash-and-restart: every window, summary and policy state of the
      // node is lost; the fresh instance bootstraps from peers' summaries.
      install_node(node);
      ++restarts_executed_;
    });
  }
  for (net::NodeId id = 0; id < config_.nodes; ++id) {
    schedule_arrival(id, stream::StreamSide::kR,
                     source_.next_gap(id, stream::StreamSide::kR));
    schedule_arrival(id, stream::StreamSide::kS,
                     source_.next_gap(id, stream::StreamSide::kS));
  }
  queue_.run_all();

  // The simulator needs no FIN handshake: the event queue running dry is
  // an exact statement that every frame has been delivered and processed.
  ExperimentResult result;
  result.clean = true;
  result.backend = Backend::kSim;
  result.nodes_admitted = config_.nodes;
  result.total_arrivals = source_.total_emitted();
  result.makespan_s = queue_.now();
  result.traffic = transport_->stats();
  for (const auto& host : hosts_) {
    result.decode_failures += host->node().decode_failures();
    result.late_summaries += host->node().late_summaries();
  }

  // Per-query outcomes; the run aggregates are their sums (each query is
  // its own join), with result.pairs keeping the cross-query union.
  const std::vector<QuerySpec>& specs = config_.queries;
  result.per_query.resize(specs.size());
  std::vector<std::span<const stream::ResultPair>> lists;
  lists.reserve(specs.size());
  for (std::size_t q = 0; q < specs.size(); ++q) {
    QueryResult& query = result.per_query[q];
    query.query_id = specs[q].id;
    query.exact_pairs = oracles_.at(specs[q].join_half_width_s).total_pairs();
    query.reported_pairs = query_metrics_[q]->distinct_pairs();
    query.pairs = query_metrics_[q]->pairs();
    lists.push_back(query.pairs);
    for (const auto& host : hosts_) {
      const QueryCounters counters = host->node().query_counters(q);
      query.received_tuples += counters.received_tuples;
      query.forwarded_tuples += counters.forwarded_tuples;
      query.result_frames += counters.result_frames;
      query.summary_frames += counters.summary_frames;
      result.fallback_engaged |=
          host->node().query_policy(q).fallback_active();
      const auto bound = host->node().query_policy(q).epsilon_bound_terms();
      query.predicted_missed_mass += bound.missed_mass;
      query.predicted_total_mass += bound.total_mass;
    }
    result.exact_pairs += query.exact_pairs;
    result.reported_pairs += query.reported_pairs;
    result.predicted_missed_mass += query.predicted_missed_mass;
    result.predicted_total_mass += query.predicted_total_mass;
  }
  result.pairs = merge_pair_lists(lists);
  finalize_derived_metrics(&result);
  return result;
}

ExperimentResult run_experiment(const SystemConfig& config) {
  DspSystem system(config);
  return system.run();
}

}  // namespace dsjoin::core
