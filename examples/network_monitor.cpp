// Distributed network-traffic monitoring — the paper's forensics scenario.
//
// Monitoring points in several administrative domains (nodes) observe
// packet streams; tracking a malicious source means joining packets seen at
// different domains on the source-host key within a time window (did the
// same host touch both domains?). Flows are bursty and host popularity is
// heavy-tailed with a slowly drifting hot set — the NWRK workload.
//
// The example compares all approximate policies at one operating point so
// an operator can see the accuracy/traffic menu on this workload, then
// drills into the DFTT run: which domains discovered the cross-domain
// correlations.
#include <cstdio>

#include "dsjoin/common/cli.hpp"
#include "dsjoin/common/table.hpp"
#include "dsjoin/core/system.hpp"
#include "dsjoin/net/stats.hpp"

using namespace dsjoin;

int main(int argc, char** argv) {
  common::CliFlags flags("dsjoin example: cross-domain packet correlation");
  flags.add_int("domains", 6, "number of monitoring domains (nodes)")
      .add_int("packets", 2500, "packets per domain per direction")
      .add_double("throttle", 0.5, "forwarding budget knob")
      .add_int("seed", 11, "experiment seed");
  if (auto s = flags.parse(argc, argv); !s) {
    return s.code() == common::ErrorCode::kFailedPrecondition ? 0 : 1;
  }

  core::SystemConfig config;
  config.workload = "NWRK";
  config.nodes = static_cast<std::uint32_t>(flags.get_int("domains"));
  config.regions = std::max(2u, config.nodes / 3);
  config.tuples_per_node = static_cast<std::uint64_t>(flags.get_int("packets"));
  config.queries.front().throttle = flags.get_double("throttle");
  config.seed = static_cast<std::uint64_t>(flags.get_int("seed"));

  std::printf("Correlating packet streams across %u domains...\n\n",
              config.nodes);

  common::TablePrinter menu("policy menu on the packet-trace workload",
                            {"policy", "correlations_found", "missed_pct",
                             "frames", "bytes", "makespan_s"});
  for (auto kind : {core::PolicyKind::kBase, core::PolicyKind::kDftt,
                    core::PolicyKind::kBloom, core::PolicyKind::kSketch,
                    core::PolicyKind::kDft, core::PolicyKind::kRoundRobin}) {
    auto run_config = config;
    run_config.queries.front().policy = kind;
    const auto result = core::run_experiment(run_config);
    menu.add(core::to_string(kind), result.reported_pairs,
             100.0 * result.epsilon, result.traffic.total_frames(),
             result.traffic.total_bytes(), result.makespan_s);
  }
  menu.print();

  // Drill-down: per-domain discovery counts under DFTT.
  auto dftt_config = config;
  dftt_config.queries.front().policy = core::PolicyKind::kDftt;
  core::DspSystem system(dftt_config);
  const auto result = system.run();
  common::TablePrinter drill("DFTT drill-down: discoveries per domain",
                             {"domain", "region", "first_discoveries"});
  const auto& per_node = system.metrics().per_node_discoveries();
  for (net::NodeId id = 0; id < config.nodes; ++id) {
    drill.add(id, id % dftt_config.regions, per_node[id]);
  }
  drill.print();

  std::printf("\nDFTT reported %llu of %llu cross-domain correlations "
              "(%.1f%% missed) at %.2f frames per correlation.\n",
              static_cast<unsigned long long>(result.reported_pairs),
              static_cast<unsigned long long>(result.exact_pairs),
              100.0 * result.epsilon, result.messages_per_result);
  return 0;
}
