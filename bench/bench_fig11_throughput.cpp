// Figure 11: throughput (result tuples reported per second) with epsilon
// fixed at 15%, across cluster sizes, on the shaped WAN (20-100 ms latency,
// 90 kbps per workstation, bounded send queues).
//
// Approximate policies are first calibrated to the target epsilon on a
// shorter run, then measured at that operating point; BASE runs as-is and
// collapses under its own O(N^2) traffic, exactly as in the paper.
#include "bench_util.hpp"

using namespace dsjoin;

int main(int argc, char** argv) {
  common::CliFlags flags("Figure 11 reproduction: throughput at eps=15%");
  flags.add_int("tuples", 1400, "tuples per node per side (measurement run)");
  flags.add_int("calib_tuples", 800, "tuples per node per side (calibration)");
  flags.add_double("target_eps", 0.15, "calibrated error rate");
  bench::add_workers_flag(flags);
  bench::add_backend_flag(flags);
  bench::add_coalesce_flags(flags);
  if (auto s = flags.parse(argc, argv); !s) {
    return s.code() == common::ErrorCode::kFailedPrecondition ? 0 : 1;
  }
  const auto backend = bench::parse_backend_flag(flags);
  const auto tuples = static_cast<std::uint64_t>(flags.get_int("tuples"));
  const auto calib_tuples =
      static_cast<std::uint64_t>(flags.get_int("calib_tuples"));
  const double target = flags.get_double("target_eps");

  common::TablePrinter table(
      "Figure 11: results/second vs nodes (ZIPF, eps target 15%)",
      {"nodes", "policy", "results_per_s", "epsilon", "makespan_s",
       "ingest_per_s"});
  for (std::uint32_t n : {4u, 8u, 14u, 20u}) {
    for (auto kind : bench::evaluated_policies()) {
      auto config = bench::figure_config("ZIPF", n, tuples);
      config.queries.front().policy = kind;
      bench::apply_workers_flag(flags, config);
      bench::apply_coalesce_flags(flags, config);
      if (kind != core::PolicyKind::kBase) {
        auto calib_config = config;
        calib_config.tuples_per_node = calib_tuples;
        const auto calibrated =
            core::calibrate_throttle(calib_config, target, 0.025, 4);
        config.queries.front().throttle = calibrated.throttle;
      }
      const auto result = bench::run_with_backend(backend, config);
      table.add(n, core::to_string(kind), result.results_per_second,
                result.epsilon, result.makespan_s, result.ingest_per_second);
    }
  }
  bench::emit(table);

  std::puts("Shape check (paper): DFTT sustains the highest throughput (its");
  std::puts("messages contend least for the shaped links); BASE is crushed by");
  std::puts("its N-1 message complexity as the cluster grows.");
  return 0;
}
