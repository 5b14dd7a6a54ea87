// Extension bench: online epsilon controller vs offline calibration.
//
// The paper evaluates at "epsilon fixed at 15%" without describing the
// mechanism; our reproduction calibrates offline (bisection over whole
// runs). This bench compares that oracle-calibrated operating point with
// the decentralized online controller (audit sampling + proportional
// control), which needs no offline phase: each node steers its own
// forwarding budget from live feedback.
#include "bench_util.hpp"

using namespace dsjoin;

int main(int argc, char** argv) {
  common::CliFlags flags("Extension: online controller vs offline calibration");
  flags.add_int("nodes", 8, "cluster size");
  flags.add_int("tuples", 3000, "tuples per node per side");
  flags.add_double("target_eps", 0.15, "epsilon target");
  if (auto s = flags.parse(argc, argv); !s) {
    return s.code() == common::ErrorCode::kFailedPrecondition ? 0 : 1;
  }
  const auto nodes = static_cast<std::uint32_t>(flags.get_int("nodes"));
  const auto tuples = static_cast<std::uint64_t>(flags.get_int("tuples"));
  const double target = flags.get_double("target_eps");

  common::TablePrinter table(
      "online controller vs offline calibration (DFTT, ZIPF)",
      {"mode", "epsilon", "tuple_frames", "total_frames", "offline_runs"});

  for (auto kind : {core::PolicyKind::kDftt, core::PolicyKind::kSketch}) {
    // Offline: bisect on full runs (what the figures do).
    auto config = bench::figure_config("ZIPF", nodes, tuples);
    config.queries.front().policy = kind;
    const auto offline = core::calibrate_throttle(config, target, 0.02, 5);
    table.add(std::string(core::to_string(kind)) + "/offline",
              offline.result.epsilon,
              offline.result.traffic.frames(net::FrameKind::kTuple),
              offline.result.traffic.total_frames(), offline.runs);

    // Online: one run, controller active, from a deliberately bad start.
    for (double start : {0.1, 0.9}) {
      auto online_config = config;
      online_config.queries.front().throttle = start;
      online_config.online_target_eps = target;
      const auto online = core::run_experiment(online_config);
      table.add(std::string(core::to_string(kind)) + "/online(start=" +
                    common::str_format("%.1f", start) + ")",
                online.epsilon,
                online.traffic.frames(net::FrameKind::kTuple),
                online.traffic.total_frames(), 1);
    }
  }
  bench::emit(table);

  std::puts("Reading: the online controller reaches a valid (conservative)");
  std::puts("operating point in a single run from either extreme, without");
  std::puts("the offline bisection's repeated full runs. Its audit estimate");
  std::puts("over-counts misses, so it lands at or below the target.");
  return 0;
}
