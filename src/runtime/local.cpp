#include "dsjoin/runtime/local.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "dsjoin/common/log.hpp"
#include "dsjoin/core/schedule.hpp"
#include "dsjoin/net/mesh_transport.hpp"
#include "dsjoin/runtime/daemon.hpp"
#include "dsjoin/runtime/data_plane.hpp"

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

  // One chunk size drives both the wire coalescer and the ingest chunks.
  // coalesce_frames = 1 is the per-tuple baseline bench_wire_throughput
  // measures against: one wire record and one handler invocation per
  // frame, one ingest call per tuple.
  net::CoalesceOptions coalesce;
  coalesce.max_frames = std::max<std::uint32_t>(1, config.coalesce_frames);
  coalesce.max_bytes = config.coalesce_bytes;
  coalesce.linger_s = config.coalesce_linger_s;
  auto meshes = net::form_local_mesh(config.nodes, coalesce);
  std::vector<std::unique_ptr<DataPlane>> planes;
  planes.reserve(config.nodes);
  for (auto& mesh : meshes) {
    planes.push_back(
        std::make_unique<DataPlane>(config, schedule, std::move(mesh)));
  }

  const auto started_at = std::chrono::steady_clock::now();
  for (auto& plane : planes) plane->start();
  for (auto& plane : planes) plane->wait_arrivals();

  // Drain with the same two-phase FIN handshake the daemons use: each host
  // announces its tuples are all sent (FIN-1), then that its results are
  // all sent (FIN-2); per-link TCP FIFO makes both statements exact. FINs
  // are control frames, so they flush every coalescing buffer ahead of
  // themselves — no frame can outlive the drain in a SendBuffer.
  for (auto& plane : planes) plane->host().begin_drain({});
  result.clean = true;
  std::vector<net::NodeId> partial;
  for (auto& plane : planes) {
    if (!plane->host().wait_drain(30.0)) partial.push_back(plane->host().id());
  }
  result.partial_drains = partial.size();
  core::mark_partial_drains(partial, &result);
  result.makespan_s = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - started_at)
                          .count();

  // Each host reports the counters of the frames it sent, so aggregation
  // merges them like every other backend's.
  std::vector<core::NodeReport> reports;
  reports.reserve(planes.size());
  for (auto& plane : planes) {
    plane->stop();
    reports.push_back(plane->report());
  }
  planes.clear();
  core::aggregate_node_reports(reports, &result, /*merge_traffic=*/true);
  core::verify_against_schedule(config, schedule, &result);
  core::finalize_derived_metrics(&result);
  return result;
}

}  // namespace dsjoin::runtime
