// Ablation A1: what does each component of the DFT flow filter contribute?
//
// The DESIGN.md notes two implementation-level choices on top of the
// paper's Eq. 4: (1) the lag-searched cross-correlation is combined with a
// DC-affinity term, and (2) DFTT adds reconstruction-based membership on
// top of the pairwise score. This ablation compares, at a fixed forwarding
// budget on the skewed workload:
//   RR    — no signal at all (uniform fallback),
//   DFT   — pairwise flow coefficients only,
//   SPEC  — pairwise histogram-DFT join-size estimates (deterministic
//           SKCH; ablation A3),
//   DFTT  — pairwise + per-key membership,
// and reports epsilon and traffic so the marginal value of each signal is
// visible.
#include "bench_util.hpp"

using namespace dsjoin;

int main(int argc, char** argv) {
  common::CliFlags flags("Ablation: routing-signal contributions");
  flags.add_int("nodes", 8, "cluster size");
  flags.add_int("tuples", 1500, "tuples per node per side");
  if (auto s = flags.parse(argc, argv); !s) {
    return s.code() == common::ErrorCode::kFailedPrecondition ? 0 : 1;
  }
  const auto nodes = static_cast<std::uint32_t>(flags.get_int("nodes"));
  const auto tuples = static_cast<std::uint64_t>(flags.get_int("tuples"));

  for (const std::string workload : {"ZIPF", "NWRK"}) {
    common::TablePrinter table(
        "Ablation A1 (" + workload + "): signal value at fixed budget",
        {"policy", "throttle", "epsilon", "tuple_frames", "msgs_per_result"});
    for (auto kind : {core::PolicyKind::kRoundRobin, core::PolicyKind::kDft,
                      core::PolicyKind::kSpectrum, core::PolicyKind::kDftt}) {
      for (double throttle : {0.3, 0.5, 0.7}) {
        auto config = bench::figure_config(workload, nodes, tuples);
        config.queries.front().policy = kind;
        config.queries.front().throttle = throttle;
        const auto result = core::run_experiment(config);
        table.add(core::to_string(kind), throttle, result.epsilon,
                  result.traffic.frames(net::FrameKind::kTuple),
                  result.messages_per_result);
      }
    }
    bench::emit(table);
  }

  std::puts("Reading: at equal budget, DFT's pairwise filter should cut");
  std::puts("epsilon versus blind round-robin, and DFTT's membership test");
  std::puts("should cut it further (or reach the same epsilon with fewer");
  std::puts("tuple frames).");
  return 0;
}
