#include "dsjoin/runtime/local.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "dsjoin/common/log.hpp"
#include "dsjoin/core/node_host.hpp"
#include "dsjoin/core/schedule.hpp"
#include "dsjoin/net/tcp_transport.hpp"
#include "dsjoin/runtime/daemon.hpp"

namespace dsjoin::runtime {

RunReport run_local(const core::SystemConfig& config, LocalOptions options) {
  // The same gate as runtime::run_experiment: an invalid config fails here,
  // named, before the coordinator or any daemon thread starts.
  if (auto valid = core::validate_config(config); !valid.is_ok()) {
    RunReport report;
    report.error = valid.message();
    return report;
  }
  CoordinatorOptions coordinator_options;
  coordinator_options.port = 0;
  coordinator_options.config = config;
  coordinator_options.verify = options.verify;
  Coordinator coordinator(coordinator_options);

  std::vector<std::thread> daemons;
  daemons.reserve(config.nodes);
  for (std::uint32_t i = 0; i < config.nodes; ++i) {
    DaemonOptions daemon_options;
    daemon_options.coordinator = net::Endpoint{"127.0.0.1", coordinator.port()};
    daemon_options.pace = options.pace;
    daemons.emplace_back([daemon_options] {
      NodeDaemon daemon(daemon_options);
      auto status = daemon.run();
      if (!status.is_ok()) {
        DSJOIN_LOG_WARN("local daemon exited: %s",
                        status.to_string().c_str());
      }
    });
  }
  RunReport report = coordinator.run();
  for (auto& thread : daemons) thread.join();
  return report;
}

RunReport run_inprocess_tcp(const core::SystemConfig& config) {
  RunReport result;
  result.backend = core::Backend::kTcpInprocess;
  result.nodes_admitted = config.nodes;

  const auto schedule = core::ArrivalSchedule::build(config);

  // One chunk size drives both the wire coalescer and the ingest slices.
  // coalesce_frames = 1 is the per-tuple baseline bench_wire_throughput
  // measures against: one wire record and one handler invocation per frame,
  // one ingest call (and one lock acquisition) per tuple.
  const std::size_t chunk =
      std::max<std::size_t>(std::size_t{1}, config.coalesce_frames);
  net::CoalesceOptions coalesce;
  coalesce.max_frames = chunk;
  coalesce.max_bytes = config.coalesce_bytes;
  coalesce.linger_s = config.coalesce_linger_s;
  net::TcpTransport transport(config.nodes, /*base_port=*/0,
                              /*link_rate_bytes_per_s=*/0.0, coalesce);
  std::vector<std::unique_ptr<core::NodeHost>> hosts;
  hosts.reserve(config.nodes);
  // One coarse lock serializes all node work: receiver-thread deliveries
  // and the arrival loop below. Batching amortizes it — one acquisition
  // covers a whole decoded wire record or a whole ingest slice.
  std::mutex mutex;
  for (net::NodeId id = 0; id < config.nodes; ++id) {
    hosts.push_back(std::make_unique<core::NodeHost>(config, id, transport));
  }
  for (net::NodeId id = 0; id < config.nodes; ++id) {
    core::NodeHost* host = hosts[id].get();
    // Forwarded work is timestamped with the tuple era it belongs to;
    // precise receive times only matter for reporting latency, which
    // this backend does not measure.
    transport.register_batch_handler(
        id, [host, &mutex](std::vector<net::Frame>&& frames) {
          std::lock_guard lock(mutex);
          for (net::Frame& frame : frames) {
            host->deliver(std::move(frame), 0.0);
          }
        });
  }

  // Virtual-time summary sync (summary-driven policies only; DESIGN.md
  // §12): every host announces how far its own arrival clock will have
  // advanced before its next ingest, and each ingest first waits until all
  // peers' announcements cover its visibility epoch — after which no
  // summary that must apply before the chunk's end can still be in flight.
  // BASE/RR runs skip all of it (no watermark frames, no waits).
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
  // Post-chunk announcement: the next own arrival bounds every future
  // emission; an exhausted schedule announces its last arrival and then
  // infinity (one frame), the same sequence the node daemon produces.
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

  const auto started_at = std::chrono::steady_clock::now();
  // Group consecutive same-origin arrivals into one ingest_batch call.
  // The schedule's global arrival order is preserved exactly; the cap
  // keeps any one locked section short so receiver deliveries interleave.
  // Under summary sync a chunk additionally never spans a visibility
  // epoch boundary (the cover wait is per-epoch).
  const auto& tuples = schedule.tuples;
  std::size_t i = 0;
  while (i < tuples.size()) {
    const double epoch = std::floor(tuples[i].timestamp / sync_epoch);
    std::size_t j = i + 1;
    while (j < tuples.size() && tuples[j].origin == tuples[i].origin &&
           j - i < chunk &&
           (!sync || std::floor(tuples[j].timestamp / sync_epoch) == epoch)) {
      ++j;
    }
    if (sync) {
      // Without the coarse lock: cover frames arrive on receiver threads.
      hosts[tuples[i].origin]->await_summary_cover(tuples[i].timestamp, 30.0);
    }
    {
      std::lock_guard lock(mutex);
      hosts[tuples[i].origin]->ingest_batch(
          std::span<const stream::Tuple>(tuples.data() + i, j - i));
    }
    after_chunk(tuples[i].origin, j - i);
    i = j;
  }

  // Drain with the same two-phase FIN handshake the daemons use: each host
  // announces its tuples are all sent (FIN-1), then that its results are
  // all sent (FIN-2); per-link TCP FIFO makes both statements exact. FINs
  // are control frames, so they flush every coalescing buffer ahead of
  // themselves — no frame can outlive the drain in a SendBuffer.
  for (auto& host : hosts) host->begin_drain({});
  result.clean = true;
  std::vector<net::NodeId> partial;
  for (auto& host : hosts) {
    // Without the coarse lock: FIN frames must keep flowing to complete.
    if (!host->wait_drain(30.0)) partial.push_back(host->id());
  }
  result.partial_drains = partial.size();
  core::mark_partial_drains(partial, &result);
  result.makespan_s = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - started_at)
                          .count();
  transport.shutdown();

  std::vector<core::NodeReport> reports;
  reports.reserve(hosts.size());
  // Per-node traffic attribution: each host reports the counters for the
  // frames it sent (tracked per sender under that sender's send lock), so
  // aggregation merges them like every other backend — their union equals
  // the transport's global counters.
  for (const auto& host : hosts) {
    reports.push_back(host->report(transport.node_stats_snapshot(host->id())));
  }
  core::aggregate_node_reports(reports, &result, /*merge_traffic=*/true);
  core::verify_against_schedule(config, schedule, &result);
  core::finalize_derived_metrics(&result);
  return result;
}

}  // namespace dsjoin::runtime
