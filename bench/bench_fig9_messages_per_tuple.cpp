// Figure 9: messages transmitted per result tuple, with epsilon fixed at
// 15%, under uniform (top) and Zipfian (bottom) data, for BASE / DFT /
// DFTT / BLOOM / SKCH across cluster sizes.
//
// The approximate policies are calibrated per (policy, N, workload) by
// bisecting the forwarding budget until measured epsilon lands in the 15%
// band; BASE runs as-is (epsilon 0) for reference.
#include "bench_util.hpp"

using namespace dsjoin;

int main(int argc, char** argv) {
  common::CliFlags flags("Figure 9 reproduction: messages per result tuple");
  flags.add_int("tuples", 1200, "tuples per node per side");
  flags.add_double("target_eps", 0.15, "calibrated error rate");
  flags.add_int("bisections", 5, "calibration bisection steps");
  bench::add_workers_flag(flags);
  bench::add_backend_flag(flags);
  bench::add_coalesce_flags(flags);
  if (auto s = flags.parse(argc, argv); !s) {
    return s.code() == common::ErrorCode::kFailedPrecondition ? 0 : 1;
  }
  const auto backend = bench::parse_backend_flag(flags);
  const auto tuples = static_cast<std::uint64_t>(flags.get_int("tuples"));
  const double target = flags.get_double("target_eps");
  const int bisections = static_cast<int>(flags.get_int("bisections"));

  for (const std::string workload : {"UNI", "ZIPF"}) {
    common::TablePrinter table(
        "Figure 9 (" + workload + "): messages per result tuple at eps=" +
            std::to_string(target),
        {"nodes", "policy", "msgs_per_result", "epsilon", "throttle",
         "frames", "converged"});
    for (std::uint32_t n : {4u, 8u, 14u, 20u}) {
      for (auto kind : bench::evaluated_policies()) {
        auto config = bench::figure_config(workload, n, tuples);
        config.queries.front().policy = kind;
        bench::apply_workers_flag(flags, config);
        bench::apply_coalesce_flags(flags, config);
        // Calibration always runs on the simulator (it needs the in-run
        // oracle); the operating point is then measured on the chosen
        // backplane — identical routing decisions, real sockets.
        const auto calibrated =
            core::calibrate_throttle(config, target, 0.02, bisections);
        auto result = calibrated.result;
        if (backend != core::Backend::kSim) {
          config.queries.front().throttle = calibrated.throttle;
          result = bench::run_with_backend(backend, config);
        }
        table.add(n, core::to_string(kind), result.messages_per_result,
                  result.epsilon, calibrated.throttle,
                  result.traffic.total_frames(),
                  calibrated.converged ? "yes" : "no");
      }
    }
    bench::emit(table);
  }

  std::puts("Shape check (paper): under UNI all approximate algorithms");
  std::puts("behave similarly; under skew DFTT transmits the fewest messages");
  std::puts("per result (1.6-2x better than the competitors), BASE the most.");
  return 0;
}
