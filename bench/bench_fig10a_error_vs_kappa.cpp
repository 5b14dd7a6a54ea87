// Figure 10(a): error rate as a function of the compression factor kappa,
// with all algorithms granted byte-equal summaries (Section 6: summary
// sizes of Bloom filters, sketches and DFT coefficient sets are matched).
//
// The paper fixes W = 2^19 and sweeps kappa in [2, 1024]; at laptop scale
// we fix the (scaled) summary window and sweep kappa over the same range of
// *ratios* — the summary sizes span [W/kappa_max, W/2] values as in the
// paper.
#include "bench_util.hpp"

using namespace dsjoin;

int main(int argc, char** argv) {
  common::CliFlags flags("Figure 10(a) reproduction: error vs compression factor");
  flags.add_int("nodes", 8, "cluster size");
  flags.add_int("tuples", 1500, "tuples per node per side");
  flags.add_double("throttle", 0.5, "fixed forwarding budget knob");
  bench::add_workers_flag(flags);
  bench::add_backend_flag(flags);
  bench::add_coalesce_flags(flags);
  if (auto s = flags.parse(argc, argv); !s) {
    return s.code() == common::ErrorCode::kFailedPrecondition ? 0 : 1;
  }
  const auto backend = bench::parse_backend_flag(flags);
  const auto nodes = static_cast<std::uint32_t>(flags.get_int("nodes"));
  const auto tuples = static_cast<std::uint64_t>(flags.get_int("tuples"));

  common::TablePrinter table(
      "Figure 10(a): epsilon vs kappa (ZIPF, equal summary budgets)",
      {"kappa", "summary_bytes", "DFTT", "DFT", "BLOOM", "SKCH"});
  for (double kappa : {2.0, 8.0, 32.0, 128.0, 256.0, 512.0}) {
    std::vector<std::string> row;
    auto probe = bench::figure_config("ZIPF", nodes, tuples);
    probe.kappa = kappa;
    row.push_back(common::str_format("%g", kappa));
    row.push_back(std::to_string(probe.summary_budget_bytes()));
    for (auto kind : {core::PolicyKind::kDftt, core::PolicyKind::kDft,
                      core::PolicyKind::kBloom, core::PolicyKind::kSketch}) {
      auto config = probe;
      config.queries.front().policy = kind;
      config.queries.front().throttle = flags.get_double("throttle");
      bench::apply_workers_flag(flags, config);
      bench::apply_coalesce_flags(flags, config);
      const auto result = bench::run_with_backend(backend, config);
      row.push_back(common::str_format("%.4f", result.epsilon));
    }
    table.add_row(std::move(row));
  }
  bench::emit(table);

  std::puts("Shape check (paper): DFTT degrades most gracefully as kappa");
  std::puts("grows (summaries shrink); BLOOM collapses first (its bit vector");
  std::puts("saturates); SKCH sits between.");
  return 0;
}
