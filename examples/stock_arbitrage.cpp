// Stock arbitrage monitoring — the paper's financial motivating scenario.
//
// A set of exchanges (nodes) each publish bid (stream R) and ask (stream S)
// quotes for mostly-regional symbol sets. An arbitrage opportunity is a
// bid/ask price cross between two exchanges within a time window — exactly
// a distributed sliding-window join on the quoted price.
//
// The example runs the DFTT algorithm over the FIN workload, reports how
// many cross-exchange opportunities were detected versus the exact count,
// and breaks the traffic down, showing the system is viable at a fraction
// of BASE's bandwidth.
#include <cstdio>

#include "dsjoin/common/cli.hpp"
#include "dsjoin/common/table.hpp"
#include "dsjoin/core/system.hpp"
#include "dsjoin/net/stats.hpp"

using namespace dsjoin;

int main(int argc, char** argv) {
  common::CliFlags flags("dsjoin example: cross-exchange arbitrage detection");
  flags.add_int("exchanges", 8, "number of exchanges (nodes)")
      .add_int("quotes", 2500, "quotes per exchange per stream side")
      .add_double("window_s", 10.0, "price-cross window half-width (seconds)")
      .add_double("throttle", 0.5, "forwarding budget knob")
      .add_int("seed", 7, "experiment seed");
  if (auto s = flags.parse(argc, argv); !s) {
    return s.code() == common::ErrorCode::kFailedPrecondition ? 0 : 1;
  }

  core::SystemConfig config;
  config.workload = "FIN";
  config.queries.front().policy = core::PolicyKind::kDftt;
  config.nodes = static_cast<std::uint32_t>(flags.get_int("exchanges"));
  config.regions = std::max(2u, config.nodes / 3);
  config.tuples_per_node = static_cast<std::uint64_t>(flags.get_int("quotes"));
  config.queries.front().join_half_width_s = flags.get_double("window_s");
  config.queries.front().throttle = flags.get_double("throttle");
  config.seed = static_cast<std::uint64_t>(flags.get_int("seed"));

  std::printf("Monitoring %u exchanges for bid/ask crosses (DFTT, window "
              "+/-%.0fs)...\n",
              config.nodes, config.queries.front().join_half_width_s);
  const auto result = core::run_experiment(config);

  core::SystemConfig base_config = config;
  base_config.queries.front().policy = core::PolicyKind::kBase;
  const auto base = core::run_experiment(base_config);

  common::TablePrinter table("arbitrage detection: DFTT vs exact broadcast",
                             {"metric", "DFTT", "BASE"});
  table.add("opportunities detected", result.reported_pairs, base.reported_pairs);
  table.add("opportunities (oracle)", result.exact_pairs, base.exact_pairs);
  table.add("detection rate",
            1.0 - result.epsilon, 1.0 - base.epsilon);
  table.add("quote frames sent", result.traffic.frames(net::FrameKind::kTuple),
            base.traffic.frames(net::FrameKind::kTuple));
  table.add("bytes on the wire", result.traffic.total_bytes(),
            base.traffic.total_bytes());
  table.add("detections per second", result.results_per_second,
            base.results_per_second);
  table.print();

  std::printf("\nDFTT found %.1f%% of the opportunities using %.1f%% of "
              "BASE's bandwidth.\n",
              100.0 * (1.0 - result.epsilon),
              100.0 * static_cast<double>(result.traffic.total_bytes()) /
                  static_cast<double>(base.traffic.total_bytes()));
  return 0;
}
