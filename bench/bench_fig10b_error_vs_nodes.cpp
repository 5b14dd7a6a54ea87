// Figure 10(b): error rate as the cluster grows from 2 to 20 nodes, with
// the compression factor fixed at kappa = 256 and a fixed forwarding
// budget knob (the paper reports error growth at fixed resources).
#include "bench_util.hpp"

using namespace dsjoin;

int main(int argc, char** argv) {
  common::CliFlags flags("Figure 10(b) reproduction: error vs cluster size");
  flags.add_int("tuples", 1200, "tuples per node per side");
  flags.add_double("throttle", 0.5, "fixed forwarding budget knob");
  bench::add_backend_flag(flags);
  bench::add_coalesce_flags(flags);
  if (auto s = flags.parse(argc, argv); !s) {
    return s.code() == common::ErrorCode::kFailedPrecondition ? 0 : 1;
  }
  const auto backend = bench::parse_backend_flag(flags);
  const auto tuples = static_cast<std::uint64_t>(flags.get_int("tuples"));

  common::TablePrinter table(
      "Figure 10(b): epsilon vs nodes (ZIPF, kappa=256)",
      {"nodes", "DFTT", "DFT", "BLOOM", "SKCH"});
  for (std::uint32_t n : {2u, 4u, 6u, 10u, 14u, 20u}) {
    std::vector<std::string> row;
    row.push_back(std::to_string(n));
    for (auto kind : {core::PolicyKind::kDftt, core::PolicyKind::kDft,
                      core::PolicyKind::kBloom, core::PolicyKind::kSketch}) {
      auto config = bench::figure_config("ZIPF", n, tuples);
      config.queries.front().policy = kind;
      config.queries.front().throttle = flags.get_double("throttle");
      bench::apply_coalesce_flags(flags, config);
      const auto result = bench::run_with_backend(backend, config);
      row.push_back(common::str_format("%.4f", result.epsilon));
    }
    table.add_row(std::move(row));
  }
  bench::emit(table);

  std::puts("Shape check (paper): all algorithms hold up to mid-size");
  std::puts("clusters; beyond that DFTT's error grows the slowest.");
  return 0;
}
