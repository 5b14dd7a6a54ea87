#include "runs.hpp"

#include <atomic>
#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <stdexcept>

#include "dsjoin/core/metrics.hpp"
#include "dsjoin/core/node_host.hpp"
#include "dsjoin/core/oracle.hpp"
#include "dsjoin/core/schedule.hpp"
#include "dsjoin/core/system.hpp"
#include "dsjoin/core/wire.hpp"
#include "dsjoin/net/event_queue.hpp"
#include "dsjoin/net/sim_transport.hpp"
#include "dsjoin/net/tcp_transport.hpp"
#include "dsjoin/runtime/engine.hpp"

namespace perfbench {

namespace core = dsjoin::core;
namespace net = dsjoin::net;
namespace stream = dsjoin::stream;

namespace {

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Times every Transport::send of the hosts it is handed to.
class TimedTransport final : public net::Transport {
 public:
  TimedTransport(net::Transport& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  std::size_t node_count() const noexcept override { return inner_.node_count(); }
  void register_handler(net::NodeId node, net::DeliveryHandler handler) override {
    inner_.register_handler(node, std::move(handler));
  }
  dsjoin::common::Status send(net::Frame&& frame) override {
    Tracer::Scope span(tracer_, "net.send");
    auto status = inner_.send(std::move(frame));
    if (!status.is_ok()) failures_.fetch_add(1, std::memory_order_relaxed);
    return status;
  }
  const net::TrafficCounters& stats() const noexcept override {
    return inner_.stats();
  }
  double send_backlog_seconds(net::NodeId node) const noexcept override {
    return inner_.send_backlog_seconds(node);
  }

  std::uint64_t failures() const noexcept {
    return failures_.load(std::memory_order_relaxed);
  }

 private:
  net::Transport& inner_;
  Tracer& tracer_;
  std::atomic<std::uint64_t> failures_{0};
};

/// Stops a TcpTransport's receiver threads when it goes out of scope, so
/// they never outlive the hosts and the decorator they call into.
struct ReceiverStop {
  net::TcpTransport* transport = nullptr;
  ~ReceiverStop() {
    if (transport != nullptr) transport->shutdown();
  }
};

std::uint64_t substrate_ingest_ops(
    const std::vector<std::unique_ptr<core::NodeHost>>& hosts) {
  std::uint64_t total = 0;
  for (const auto& host : hosts) total += host->node().substrate().ingest_ops();
  return total;
}

// runtime::run_inprocess_tcp's batched path, call for call, with spans.
RunOutcome traced_socket_run(const core::SystemConfig& config) {
  if (config.coalesce_frames <= 1) {
    throw std::runtime_error(
        "the traced socket driver replicates the batched path only "
        "(coalesce_frames > 1)");
  }
  RunOutcome out;
  core::ExperimentResult& result = out.result;
  Tracer tracer;
  const auto t0 = Clock::now();
  {
    Tracer::Scope run(tracer, "run");
    tracer.set_root_to_current();
    if (auto valid = core::validate_config(config); !valid.is_ok()) {
      throw std::runtime_error(valid.message());
    }
    result.backend = core::Backend::kTcpInprocess;
    result.nodes_admitted = config.nodes;

    core::ArrivalSchedule schedule;
    {
      Tracer::Scope span(tracer, "core.schedule.build");
      schedule = core::ArrivalSchedule::build(config);
    }

    net::CoalesceOptions coalesce;
    coalesce.max_frames = config.coalesce_frames;
    coalesce.max_bytes = config.coalesce_bytes;
    coalesce.linger_s = config.coalesce_linger_s;

    std::mutex mutex;  // the coarse node lock
    std::vector<std::unique_ptr<core::NodeHost>> hosts;
    std::atomic<std::uint64_t> deliveries{0};
    std::atomic<std::uint64_t> delivered_frames{0};
    std::unique_ptr<net::TcpTransport> tcp;
    {
      Tracer::Scope span(tracer, "net.mesh_setup");
      tcp = std::make_unique<net::TcpTransport>(config.nodes, /*base_port=*/0,
                                                /*link_rate_bytes_per_s=*/0.0,
                                                coalesce);
    }
    TimedTransport transport(*tcp, tracer);
    ReceiverStop stop{tcp.get()};
    hosts.reserve(config.nodes);
    {
      Tracer::Scope span(tracer, "core.node_host.construct");
      for (net::NodeId id = 0; id < config.nodes; ++id) {
        hosts.push_back(std::make_unique<core::NodeHost>(config, id, transport));
      }
    }
    for (net::NodeId id = 0; id < config.nodes; ++id) {
      core::NodeHost* host = hosts[id].get();
      tcp->register_batch_handler(
          id, [host, &mutex, &tracer, &deliveries,
               &delivered_frames](std::vector<net::Frame>&& frames) {
            deliveries.fetch_add(1, std::memory_order_relaxed);
            delivered_frames.fetch_add(frames.size(), std::memory_order_relaxed);
            std::unique_lock lock(mutex, std::defer_lock);
            {
              Tracer::Scope wait(tracer, "core.node_host.lock_wait");
              lock.lock();
            }
            // One span per wire record, not per frame: spans taken under
            // the coarse lock lengthen every critical section they sit in.
            Tracer::Scope span(tracer, "core.node_host.deliver");
            for (net::Frame& frame : frames) host->deliver(std::move(frame), 0.0);
          });
    }

    const bool sync = hosts[0]->node().uses_summaries();
    const double sync_epoch = config.summary_sync_epoch_s;
    constexpr double kInf = std::numeric_limits<double>::infinity();
    std::vector<std::vector<double>> arrival_times(config.nodes);
    std::vector<std::size_t> cursor(config.nodes, 0);
    if (sync) {
      for (const auto& tuple : schedule.tuples) {
        arrival_times[tuple.origin].push_back(tuple.timestamp);
      }
      for (auto& host : hosts) host->enable_summary_watermarks();
      for (net::NodeId id = 0; id < config.nodes; ++id) {
        hosts[id]->announce_summary_watermark(
            arrival_times[id].empty() ? kInf : arrival_times[id].front());
      }
    }
    const auto after_chunk = [&](net::NodeId id, std::size_t count) {
      if (!sync) return;
      cursor[id] += count;
      const auto& times = arrival_times[id];
      if (cursor[id] < times.size()) {
        hosts[id]->announce_summary_watermark(times[cursor[id]]);
      } else {
        hosts[id]->announce_summary_watermark(times.back());
        hosts[id]->announce_summary_watermark(kInf);
      }
    };

    const auto started_at = Clock::now();
    {
      Tracer::Scope window(tracer, "window");
      const auto& tuples = schedule.tuples;
      const std::size_t max_run = config.coalesce_frames;
      std::size_t i = 0;
      while (i < tuples.size()) {
        const double epoch = std::floor(tuples[i].timestamp / sync_epoch);
        std::size_t j = i + 1;
        while (j < tuples.size() && tuples[j].origin == tuples[i].origin &&
               j - i < max_run &&
               (!sync ||
                std::floor(tuples[j].timestamp / sync_epoch) == epoch)) {
          ++j;
        }
        core::NodeHost& host = *hosts[tuples[i].origin];
        if (sync) {
          Tracer::Scope span(tracer, "core.node_host.await_summary_cover");
          host.await_summary_cover(tuples[i].timestamp, 30.0);
        }
        {
          std::unique_lock lock(mutex, std::defer_lock);
          {
            Tracer::Scope wait(tracer, "core.node_host.lock_wait");
            lock.lock();
          }
          Tracer::Scope span(tracer, "core.node_host.ingest_batch");
          host.ingest_batch(
              std::span<const stream::Tuple>(tuples.data() + i, j - i));
        }
        after_chunk(tuples[i].origin, j - i);
        i = j;
      }

      for (auto& host : hosts) {
        Tracer::Scope span(tracer, "core.node_host.begin_drain");
        host->begin_drain({});
      }
      result.clean = true;
      for (auto& host : hosts) {
        Tracer::Scope span(tracer, "core.node_host.wait_drain");
        if (!host->wait_drain(30.0)) {
          result.clean = false;
          result.error = "in-process run failed to drain";
        }
      }
      result.makespan_s = seconds_between(started_at, Clock::now());
    }
    tcp->shutdown();

    std::vector<core::NodeReport> reports;
    reports.reserve(hosts.size());
    for (const auto& host : hosts) {
      Tracer::Scope span(tracer, "core.node_host.report");
      reports.push_back(host->report(tcp->node_stats_snapshot(host->id())));
    }
    {
      Tracer::Scope span(tracer, "core.metrics.aggregate");
      core::aggregate_node_reports(reports, &result, /*merge_traffic=*/true);
    }
    {
      Tracer::Scope span(tracer, "core.metrics.verify");
      core::verify_against_schedule(config, result.pairs, &result);
    }
    core::finalize_derived_metrics(&result);

    const net::TrafficCounters wire = tcp->stats_snapshot();
    out.counts.substrate_ingest_ops = substrate_ingest_ops(hosts);
    out.counts.wire_records = wire.wire_records;
    out.counts.logical_frames = wire.total_frames();
    out.counts.deliveries = deliveries.load();
    out.counts.delivered_frames = delivered_frames.load();
    out.counts.send_failures = transport.failures();
  }
  out.timing = socket_timing(seconds_between(t0, Clock::now()),
                             result.makespan_s);
  out.spans = tracer.collect();
  return out;
}

// core::DspSystem's constructor and serial run(), call for call, with spans.
class TracedSimulation {
 public:
  TracedSimulation(const core::SystemConfig& config, Tracer& tracer)
      : config_(config),
        tracer_(tracer),
        specs_(core::effective_queries(config)),
        source_(config) {
    sim_ = std::make_unique<net::SimTransport>(queue_, config.nodes, config.wan,
                                               config.seed ^ 0x77);
    transport_ = std::make_unique<TimedTransport>(*sim_, tracer_);
    sim_->set_summary_sink([this](const net::Frame& frame) {
      Tracer::Scope span(tracer_, "core.node_host.summary_apply");
      tee_summary(frame);
    });
    for (const core::QuerySpec& spec : specs_) {
      metrics_.push_back(std::make_unique<core::MetricsCollector>());
      metrics_.back()->set_node_count(config.nodes);
      metrics_.back()->set_epoch_group(this);
      metric_ptrs_.push_back(metrics_.back().get());
      oracles_.emplace_back(spec.join_half_width_s);
    }
    Tracer::Scope span(tracer_, "core.node_host.construct");
    hosts_.resize(config.nodes);
    for (net::NodeId id = 0; id < config.nodes; ++id) {
      hosts_[id] = std::make_unique<core::NodeHost>(
          config_, id, *transport_,
          std::span<core::MetricsCollector* const>(metric_ptrs_.data(),
                                                   metric_ptrs_.size()));
      hosts_[id]->node().set_external_summary_feed(true);
      sim_->register_handler(id, [this, id](net::Frame&& frame) {
        const double now = queue_.now();
        // The serial DspSystem wraps each delivery in a deferred task
        // that runs at once; keep that cost in the traced run.
        std::function<void()> task = [this, id, now,
                                      f = std::move(frame)]() mutable {
          Tracer::Scope deliver(tracer_, "core.node_host.deliver");
          hosts_[id]->deliver(std::move(f), now);
        };
        ++delivered_frames_;
        task();
      });
    }
  }

  core::ExperimentResult run(LayerCounts* counts,
                             std::vector<stream::Tuple>* arrivals) {
    arrivals_ = arrivals;
    for (net::NodeId id = 0; id < config_.nodes; ++id) {
      schedule_arrival(id, stream::StreamSide::kR,
                       source_.next_gap(id, stream::StreamSide::kR));
      schedule_arrival(id, stream::StreamSide::kS,
                       source_.next_gap(id, stream::StreamSide::kS));
    }
    {
      Tracer::Scope span(tracer_, "net.sim.run_all");
      counts->sim_events = queue_.run_all();
    }

    core::ExperimentResult result;
    result.clean = true;
    result.backend = core::Backend::kSim;
    result.nodes_admitted = config_.nodes;
    result.total_arrivals = source_.total_emitted();
    result.makespan_s = queue_.now();
    result.traffic = sim_->stats();
    for (const auto& host : hosts_) {
      result.decode_failures += host->node().decode_failures();
      result.late_summaries += host->node().late_summaries();
    }
    result.per_query.resize(specs_.size());
    core::MetricsCollector unioned;
    unioned.set_node_count(config_.nodes);
    for (std::size_t q = 0; q < specs_.size(); ++q) {
      core::QueryResult& query = result.per_query[q];
      query.query_id = specs_[q].id;
      query.exact_pairs = oracles_[q].total_pairs();
      query.reported_pairs = metrics_[q]->distinct_pairs();
      query.pairs = metrics_[q]->pairs();
      for (const auto& pair : query.pairs) unioned.record_pair(pair, 0, 0.0);
      for (const auto& host : hosts_) {
        const core::QueryCounters c = host->node().query_counters(q);
        query.received_tuples += c.received_tuples;
        query.forwarded_tuples += c.forwarded_tuples;
        query.result_frames += c.result_frames;
        query.summary_frames += c.summary_frames;
        result.fallback_engaged |= host->node().query_policy(q).fallback_active();
        const auto bound = host->node().query_policy(q).epsilon_bound_terms();
        query.predicted_missed_mass += bound.missed_mass;
        query.predicted_total_mass += bound.total_mass;
      }
      result.exact_pairs += query.exact_pairs;
      result.reported_pairs += query.reported_pairs;
      result.predicted_missed_mass += query.predicted_missed_mass;
      result.predicted_total_mass += query.predicted_total_mass;
    }
    result.pairs = unioned.pairs();
    core::finalize_derived_metrics(&result);

    counts->substrate_ingest_ops = substrate_ingest_ops(hosts_);
    counts->delivered_frames = delivered_frames_;
    counts->send_failures = transport_->failures();
    return result;
  }

 private:
  void schedule_arrival(net::NodeId node, stream::StreamSide side, double at) {
    queue_.schedule_at(at, [this, node, side] {
      Tracer::Scope span(tracer_, "runtime.arrival");
      if (source_.exhausted(node, side)) return;
      const double now = queue_.now();
      if (config_.max_backlog_s > 0.0) {
        const double backlog = transport_->send_backlog_seconds(node);
        if (backlog > config_.max_backlog_s) {
          schedule_arrival(node, side, now + (backlog - config_.max_backlog_s));
          return;
        }
      }
      const stream::Tuple tuple = source_.emit(node, side, now);
      arrivals_->push_back(tuple);
      if (config_.oracle_enabled) {
        Tracer::Scope observe(tracer_, "core.metrics.oracle");
        for (core::ExactJoinOracle& oracle : oracles_) oracle.observe(tuple);
      }
      {
        Tracer::Scope ingest(tracer_, "core.node_host.ingest");
        hosts_[node]->ingest(tuple, now);
      }
      schedule_arrival(node, side, now + source_.next_gap(node, side));
    });
  }

  void tee_summary(const net::Frame& frame) {
    if (frame.kind == net::FrameKind::kSummary) {
      auto payload = core::SummaryPayload::decode(frame.payload);
      if (!payload) return;
      hosts_[frame.to]->node().queue_summary(frame.from, payload.value().stamp,
                                             std::move(payload.value().block));
    } else if (frame.kind == net::FrameKind::kTuple) {
      auto payload =
          core::TuplePayload::decode(frame.payload, core::multi_query_mode(config_));
      if (!payload || payload.value().piggyback.empty()) return;
      hosts_[frame.to]->node().queue_summary(
          frame.from, payload.value().stamp,
          std::move(payload.value().piggyback));
    }
  }

  core::SystemConfig config_;
  Tracer& tracer_;
  std::vector<core::QuerySpec> specs_;
  net::EventQueue queue_;
  std::unique_ptr<net::SimTransport> sim_;
  std::unique_ptr<TimedTransport> transport_;
  std::vector<std::unique_ptr<core::MetricsCollector>> metrics_;
  std::vector<core::MetricsCollector*> metric_ptrs_;
  std::vector<core::ExactJoinOracle> oracles_;
  core::ArrivalSource source_;
  std::vector<std::unique_ptr<core::NodeHost>> hosts_;
  std::vector<stream::Tuple>* arrivals_ = nullptr;
  std::uint64_t delivered_frames_ = 0;
};

RunOutcome traced_sim_run(const core::SystemConfig& config) {
  if (config.worker_threads != 0) {
    throw std::runtime_error(
        "the traced simulator driver replicates the serial path only "
        "(worker_threads == 0)");
  }
  RunOutcome out;
  Tracer tracer;
  // Destroyed after the run span closes: DspSystem's destructor is outside
  // both the window and setup_s, so it stays out of the trace too.
  std::optional<TracedSimulation> simulation;
  {
    Tracer::Scope run(tracer, "run");
    const auto before = Clock::now();
    simulation.emplace(config, tracer);
    const auto constructed = Clock::now();
    out.result = simulation->run(&out.counts, &out.arrivals);
    out.timing = sim_timing(before, constructed, Clock::now());
  }
  simulation.reset();
  out.spans = tracer.collect();
  return out;
}

}  // namespace

RunTiming socket_timing(double call_s, double makespan_s) {
  return RunTiming{call_s - makespan_s, makespan_s};
}

RunTiming sim_timing(Clock::time_point before_construct,
                     Clock::time_point after_construct,
                     Clock::time_point after_run) {
  return RunTiming{seconds_between(before_construct, after_construct),
                   seconds_between(after_construct, after_run)};
}

RunOutcome run_untraced(const Workload& workload,
                        const core::SystemConfig& config) {
  if (workload.backend == core::Backend::kSim) return run_sim_baseline(config);
  RunOutcome out;
  dsjoin::runtime::EngineOptions options;
  options.backend = workload.backend;
  const auto before = Clock::now();
  out.result = dsjoin::runtime::run_experiment(config, options);
  out.timing = socket_timing(seconds_between(before, Clock::now()),
                             out.result.makespan_s);
  return out;
}

RunOutcome run_traced(const Workload& workload,
                      const core::SystemConfig& config) {
  return workload.backend == core::Backend::kSim ? traced_sim_run(config)
                                                 : traced_socket_run(config);
}

double sim_setup_sample(const core::SystemConfig& config) {
  const auto before = Clock::now();
  core::DspSystem system(config);
  return seconds_between(before, Clock::now());
}

RunOutcome run_sim_baseline(const core::SystemConfig& config) {
  RunOutcome out;
  const auto before = Clock::now();
  core::DspSystem system(config);
  const auto constructed = Clock::now();
  out.result = system.run();
  out.timing = sim_timing(before, constructed, Clock::now());
  return out;
}

}  // namespace perfbench
