// Real-socket demo: the same Node/RoutingPolicy code that runs under the
// deterministic WAN emulator, running over actual loopback TCP sockets —
// the reproduction analogue of the paper's twenty-workstation prototype.
//
// The run goes through the full distributed runtime in-process: a
// coordinator admits one daemon thread per node over a real control
// socket, the daemons mesh over loopback TCP, stream the deterministic
// arrival schedule, and ship their discovered pairs back for global
// deduplication — exactly the protocol the dsjoin_coord / dsjoin_noded
// binaries speak across processes.
#include <cstdio>
#include <stdexcept>

#include "dsjoin/common/cli.hpp"
#include "dsjoin/common/log.hpp"
#include "dsjoin/core/config.hpp"
#include "dsjoin/runtime/local.hpp"

using namespace dsjoin;

int main(int argc, char** argv) {
  common::CliFlags flags("dsjoin example: distributed runtime over real TCP");
  flags.add_int("nodes", 4, "number of daemon threads")
      .add_int("tuples", 400, "tuples per node per stream side")
      .add_double("rate", 120.0, "arrivals per node per side per second")
      .add_string("policy", "DFTT",
                  "routing policy: " + core::policy_names_csv())
      .add_bool("pace", false, "replay arrivals in real time")
      .add_bool("verbose", false, "log protocol progress");
  if (auto s = flags.parse(argc, argv); !s) {
    return s.code() == common::ErrorCode::kFailedPrecondition ? 0 : 1;
  }
  common::set_log_level(flags.get_bool("verbose") ? common::LogLevel::kInfo
                                                  : common::LogLevel::kWarn);

  core::SystemConfig config;
  config.nodes = static_cast<std::uint32_t>(flags.get_int("nodes"));
  config.regions = 2;
  try {
    config.queries.front().policy =
        core::policy_from_string(flags.get_string("policy"));
  } catch (const std::invalid_argument& err) {
    std::fprintf(stderr, "error: %s\n", err.what());
    return 1;
  }
  config.workload = "ZIPF";
  config.tuples_per_node = static_cast<std::uint64_t>(flags.get_int("tuples"));
  config.arrivals_per_second = flags.get_double("rate");
  config.queries.front().join_half_width_s = 2.0;
  config.dft_window = 512;
  config.kappa = 64.0;
  config.summary_epoch_tuples = 64;

  std::printf("Meshing %u daemon threads over loopback TCP (%s policy)...\n",
              config.nodes, core::to_string(config.queries.front().policy));
  runtime::LocalOptions options;
  options.pace = flags.get_bool("pace");
  const runtime::RunReport report = runtime::run_local(config, options);

  if (!report.clean) {
    std::fprintf(stderr, "run failed: %s\n", report.error.c_str());
    return 1;
  }
  std::printf("\narrivals: %llu   exact pairs: %llu   reported: %llu\n",
              static_cast<unsigned long long>(report.total_arrivals),
              static_cast<unsigned long long>(report.exact_pairs),
              static_cast<unsigned long long>(report.reported_pairs));
  std::printf("epsilon over real sockets: %.4f   (false pairs: %llu)\n",
              report.epsilon,
              static_cast<unsigned long long>(report.false_pairs));
  std::printf("frames: %llu (%llu tuple / %llu summary / %llu result), "
              "%llu bytes\n",
              static_cast<unsigned long long>(report.traffic.total_frames()),
              static_cast<unsigned long long>(
                  report.traffic.frames(net::FrameKind::kTuple)),
              static_cast<unsigned long long>(
                  report.traffic.frames(net::FrameKind::kSummary)),
              static_cast<unsigned long long>(
                  report.traffic.frames(net::FrameKind::kResult)),
              static_cast<unsigned long long>(report.traffic.total_bytes()));
  std::puts("\nThe same Node and RoutingPolicy code ran here over real TCP");
  std::puts("that the experiments run under the deterministic WAN emulator.");
  return 0;
}
