// The distributed stream-processing system driver (Figure 1).
//
// DspSystem wires N nodes to the WAN emulator, drives per-node tuple
// arrivals from a workload, feeds the exact-join oracle in parallel, and
// produces the metrics the paper's figures report: epsilon, messages per
// result tuple, throughput, and the summary-byte overhead share.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "dsjoin/common/thread_pool.hpp"
#include "dsjoin/core/config.hpp"
#include "dsjoin/core/experiment.hpp"
#include "dsjoin/core/metrics.hpp"
#include "dsjoin/core/node.hpp"
#include "dsjoin/core/node_host.hpp"
#include "dsjoin/core/oracle.hpp"
#include "dsjoin/core/schedule.hpp"
#include "dsjoin/net/event_queue.hpp"
#include "dsjoin/net/sim_transport.hpp"

namespace dsjoin::core {

/// One experiment instance. Construct, run once, read the result.
class DspSystem {
 public:
  explicit DspSystem(const SystemConfig& config);
  ~DspSystem();

  DspSystem(const DspSystem&) = delete;
  DspSystem& operator=(const DspSystem&) = delete;

  /// Drives `config.tuples_per_node` arrivals per node per stream side,
  /// drains the network, and computes the metrics.
  ExperimentResult run();

  /// Schedules a crash-and-restart of `node` at virtual time `at` (call
  /// before run()): the node object is replaced wholesale, losing its
  /// windows and summary state — peers' summaries re-seed it afterwards.
  void schedule_restart(net::NodeId node, double at);

  /// Number of restarts executed during the run.
  std::uint64_t restarts_executed() const noexcept { return restarts_executed_; }

  /// Access for tests. metrics()/oracle() are query 0's — the whole story
  /// with one query; per-query collectors via query_metrics(i).
  Node& node(net::NodeId id) { return hosts_[id]->node(); }
  const net::SimTransport& transport() const { return *transport_; }
  const MetricsCollector& metrics() const { return *query_metrics_.front(); }
  const ExactJoinOracle& oracle() const {
    return oracles_.at(config_.queries.front().join_half_width_s);
  }
  std::size_t query_count() const noexcept { return query_metrics_.size(); }
  const MetricsCollector& query_metrics(std::size_t q) const {
    return *query_metrics_[q];
  }

 private:
  void schedule_arrival(net::NodeId node, stream::StreamSide side, double at);
  void install_node(net::NodeId id);
  /// SimTransport summary-sink target: decodes a committed summary-bearing
  /// frame and hands the block to the receiving node's virtual-time buffer
  /// (Node::queue_summary). The receiver's on_frame path is suppressed via
  /// set_external_summary_feed, so each block applies exactly once.
  void tee_summary(const net::Frame& frame);

  // --- Parallel epoch execution (worker_threads >= 1) ---
  //
  // The event queue is consumed in epochs: a serial *dispatch phase* runs
  // events in (time, insertion) order inside a lookahead window no wider
  // than the minimum link latency — so nothing dispatched can cause a
  // cross-node event inside the same window — doing only the cheap global
  // bookkeeping (tuple ids, arrival pacing, the oracle) and deferring each
  // node's per-tuple work; a *worker phase* then fans the deferred tasks
  // out across the pool, one strand per node (shared-nothing), with sends
  // and metric reports buffered per task; the *barrier* flushes those
  // buffers in dispatch order, reproducing the serial schedule exactly.

  /// Delivers `frame` to `node` now (serial mode) or defers it to the open
  /// epoch's worker phase, tagged with its event time. The epoch task holds
  /// the frame itself, so a delivery builds no closure either way.
  void defer_delivery(net::NodeId node, double when, net::Frame&& frame);
  /// Local-arrival variant: the epoch task holds the tuple, and the worker
  /// phase feeds it to NodeHost::ingest.
  void defer_arrival(net::NodeId node, double when, const stream::Tuple& tuple);
  void run_parallel();
  void execute_epoch(common::ThreadPool& pool,
                     std::vector<std::function<void()>>& batch,
                     std::vector<std::vector<std::size_t>>& by_node);

  struct EpochTask {
    net::NodeId node;
    double when;
    bool is_arrival = false;
    stream::Tuple tuple;         // valid when is_arrival
    net::Frame frame;            // valid otherwise
  };

  SystemConfig config_;
  net::EventQueue queue_;
  std::unique_ptr<net::SimTransport> transport_;
  /// One collector per registered query, canonical order. All collectors
  /// share one epoch group (this), so the parallel driver binds worker
  /// slots once per task and every query's reports buffer.
  std::vector<std::unique_ptr<MetricsCollector>> query_metrics_;
  std::vector<MetricsCollector*> metrics_ptrs_;  ///< span over query_metrics_
  /// One oracle per distinct query half-width: queries of equal width
  /// share one count.
  std::map<double, ExactJoinOracle> oracles_;
  /// Streaming arrival truth: rng tree, key streams, quotas and the dense
  /// global tuple-id counter (ArrivalSchedule::build materializes the same
  /// generator for the socket backends).
  ArrivalSource source_;
  std::vector<std::unique_ptr<NodeHost>> hosts_;
  std::vector<std::pair<net::NodeId, double>> pending_restarts_;
  std::uint64_t restarts_executed_ = 0;
  bool ran_ = false;
  bool epoch_open_ = false;
  std::vector<EpochTask> epoch_tasks_;
};

/// Runs a full experiment for a config (convenience for benches).
ExperimentResult run_experiment(const SystemConfig& config);

}  // namespace dsjoin::core
