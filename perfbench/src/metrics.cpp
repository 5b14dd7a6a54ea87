#include "metrics.hpp"

#include <sys/resource.h>

#include <algorithm>

namespace perfbench {

namespace net = dsjoin::net;

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"arrivals_per_s", "1/s", true, true},
      {"setup_s", "s", true, true},
      {"epsilon", "1", true, true},
      {"bytes_per_result", "B", true, true},
      {"messages_per_result", "count", true, true},
      {"peak_rss_mb", "MB", true, true},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = {
      {"core.schedule.build_s", "s", true, false},
      {"net.mesh_setup_s", "s", true, false},
      {"net.send_calls", "count", true, true},
      {"net.send_s", "s", true, true},
      {"net.send_failures", "count", true, true},
      {"net.frames_per_record", "1", true, false},
      {"net.deliveries", "count", true, false},
      {"net.frames_per_delivery", "1", true, false},
      {"net.tuple_bytes", "B", true, true},
      {"net.result_bytes", "B", true, true},
      {"net.summary_bytes", "B", true, true},
      {"net.control_frames", "count", true, true},
      {"net.sim_events", "count", false, true},
      {"net.sim_dispatch_self_s", "s", false, true},
      {"core.node_host.construct_s", "s", true, true},
      {"core.node_host.tuples_per_ingest", "1", true, true},
      {"core.node_host.ingest_self_s", "s", true, true},
      {"core.node_host.deliver_frames", "count", true, true},
      {"core.node_host.deliver_self_s", "s", true, true},
      {"core.node_host.lock_wait_s", "s", true, false},
      {"core.node_host.cover_waits", "count", true, false},
      {"core.node_host.cover_wait_s", "s", true, false},
      {"core.node_host.drain_s", "s", true, false},
      {"core.node_host.summary_apply_s", "s", false, true},
      {"core.substrate.ingest_ops", "count", true, true},
      {"core.policy.forwards_per_arrival", "1", true, true},
      {"core.policy.useful_forward_share", "1", true, true},
      {"core.metrics.oracle_s", "s", false, true},
      {"core.metrics.report_s", "s", true, false},
      {"core.metrics.aggregate_s", "s", true, false},
      {"core.metrics.verify_s", "s", true, false},
      {"core.metrics.pairs", "count", true, true},
      {"runtime.driver_self_s", "s", true, true},
      {"baseline.sim_arrivals_per_s", "1/s", true, false},
      {"trace.overhead", "1", true, true},
  };
  return defs;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

Pooled pool(std::span<const dsjoin::core::ExperimentResult* const> results) {
  double reported = 0.0;
  double exact = 0.0;
  double bytes = 0.0;
  double frames = 0.0;
  for (const auto* result : results) {
    reported += static_cast<double>(result->reported_pairs);
    exact += static_cast<double>(result->exact_pairs);
    bytes += static_cast<double>(result->traffic.total_bytes());
    frames += static_cast<double>(result->traffic.total_frames());
  }
  Pooled pooled;
  if (exact > 0.0) pooled.epsilon = 1.0 - reported / exact;
  if (reported > 0.0) {
    pooled.bytes_per_result = bytes / reported;
    pooled.messages_per_result = frames / reported;
  }
  return pooled;
}

namespace {

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

std::map<std::string, double> layer_values(const RunOutcome& traced) {
  const auto spans = totals_by_name(traced.spans);
  const auto get = [&](const char* name) {
    const auto it = spans.find(name);
    return it == spans.end() ? SpanTotals{} : it->second;
  };
  const auto& result = traced.result;
  const auto& counts = traced.counts;
  const auto& traffic = result.traffic;
  const double arrivals = static_cast<double>(result.total_arrivals);
  const double tuple_frames =
      static_cast<double>(traffic.frames(net::FrameKind::kTuple));
  const SpanTotals ingest = get("core.node_host.ingest");
  const SpanTotals ingest_batch = get("core.node_host.ingest_batch");

  std::map<std::string, double> v;
  v["core.schedule.build_s"] = get("core.schedule.build").total_s;
  v["net.mesh_setup_s"] = get("net.mesh_setup").total_s;
  v["net.send_calls"] = static_cast<double>(get("net.send").count);
  // Self time: on the simulator a send also runs the summary tee, which
  // has its own span.
  v["net.send_s"] = get("net.send").self_s;
  v["net.send_failures"] = static_cast<double>(counts.send_failures);
  v["net.frames_per_record"] = ratio(static_cast<double>(counts.logical_frames),
                                     static_cast<double>(counts.wire_records));
  v["net.deliveries"] = static_cast<double>(counts.deliveries);
  v["net.frames_per_delivery"] =
      ratio(static_cast<double>(counts.delivered_frames),
            static_cast<double>(counts.deliveries));
  // Tuple frames carry the piggybacked summaries; count those bytes once,
  // as summary bytes.
  v["net.tuple_bytes"] =
      static_cast<double>(traffic.bytes(net::FrameKind::kTuple) -
                          traffic.piggyback_bytes);
  v["net.result_bytes"] =
      static_cast<double>(traffic.bytes(net::FrameKind::kResult));
  v["net.summary_bytes"] = static_cast<double>(
      traffic.bytes(net::FrameKind::kSummary) + traffic.piggyback_bytes);
  v["net.control_frames"] =
      static_cast<double>(traffic.frames(net::FrameKind::kControl));
  v["net.sim_events"] = static_cast<double>(counts.sim_events);
  v["net.sim_dispatch_self_s"] = get("net.sim.run_all").self_s;
  v["core.node_host.construct_s"] = get("core.node_host.construct").total_s;
  v["core.node_host.tuples_per_ingest"] =
      ratio(arrivals, static_cast<double>(ingest.count + ingest_batch.count));
  v["core.node_host.ingest_self_s"] = ingest.self_s + ingest_batch.self_s;
  v["core.node_host.deliver_frames"] =
      static_cast<double>(counts.delivered_frames);
  v["core.node_host.deliver_self_s"] = get("core.node_host.deliver").self_s;
  v["core.node_host.lock_wait_s"] = get("core.node_host.lock_wait").total_s;
  v["core.node_host.cover_waits"] =
      static_cast<double>(get("core.node_host.await_summary_cover").count);
  v["core.node_host.cover_wait_s"] =
      get("core.node_host.await_summary_cover").total_s;
  v["core.node_host.drain_s"] = interval_s(
      traced.spans, "core.node_host.begin_drain", "core.node_host.wait_drain");
  v["core.node_host.summary_apply_s"] =
      get("core.node_host.summary_apply").total_s;
  v["core.substrate.ingest_ops"] =
      static_cast<double>(counts.substrate_ingest_ops);
  v["core.policy.forwards_per_arrival"] = ratio(tuple_frames, arrivals);
  v["core.policy.useful_forward_share"] = ratio(
      static_cast<double>(traffic.frames(net::FrameKind::kResult)), tuple_frames);
  v["core.metrics.oracle_s"] = get("core.metrics.oracle").total_s;
  v["core.metrics.report_s"] = get("core.node_host.report").total_s;
  v["core.metrics.aggregate_s"] = get("core.metrics.aggregate").total_s;
  v["core.metrics.verify_s"] = get("core.metrics.verify").total_s;
  v["core.metrics.pairs"] = static_cast<double>(result.pairs.size());
  // The driver's own code: spans the driver opens around its loops rather
  // than around a layer call.
  v["runtime.driver_self_s"] = get("run").self_s + get("window").self_s +
                               get("runtime.arrival").self_s;
  return v;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench
