#include "workloads.hpp"

#include <stdexcept>

namespace perfbench {

using dsjoin::core::Backend;

const std::vector<Workload>& workloads() {
  // Tuple counts: tcp-rr needs more than 3,250 arrivals per node and side
  // for its windows (25/s, 130 s retention) to fill and evict in steady
  // state. The other two are sized so one schedule runs in about a second
  // on 4 cores, leaving room for several schedules and repeats per run.
  static const std::vector<Workload> all = {
      {"tcp-rr", Backend::kTcpInprocess, 4, "RR", 5000, 3},
      {"tcp-dftt", Backend::kTcpInprocess, 4, "DFTT", 2500, 16},
      {"sim-mq8", Backend::kSim, 8,
       "DFTT:0.3:5;SMPL:0.4:7.5;BLOOM:0.5:10;SKCH:0.6:12.5;"
       "DFTT:0.7:5;SMPL:0.3:7.5;BLOOM:0.4:10;SKCH:0.5:12.5",
       600, 4},
  };
  return all;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& workload : workloads()) {
    if (name == workload.name) return &workload;
  }
  return nullptr;
}

std::uint64_t schedule_seed(std::uint64_t seed, std::size_t index) {
  if (index == 0) return seed;
  // splitmix64 of (seed, index): distinct, well-spread seeds per schedule.
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * index;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

dsjoin::core::SystemConfig make_config(const Workload& workload,
                                       std::uint64_t seed) {
  dsjoin::core::SystemConfig config;
  config.nodes = workload.nodes;
  // bench::figure_config's region count, which sets key locality per node.
  config.regions = workload.nodes <= 4 ? 2 : workload.nodes / 3 + 1;
  config.tuples_per_node = workload.tuples_per_node;
  config.seed = seed;
  auto queries = dsjoin::core::parse_queries(workload.queries, config);
  if (!queries.is_ok()) {
    throw std::invalid_argument(queries.status().message());
  }
  config.queries = std::move(queries).value();
  const auto valid = dsjoin::core::validate_config(config);
  if (!valid.is_ok()) throw std::invalid_argument(valid.message());
  return config;
}

}  // namespace perfbench
