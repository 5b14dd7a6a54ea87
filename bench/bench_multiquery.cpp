// Multi-query serving cost: ingest-side amortization of the shared
// summary substrate (DESIGN.md section 15).
//
// One experiment, Q registered queries cycling through the summary-driven
// policies with distinct throttles and window widths. The substrate
// ingests every tuple ONCE per summary *family*, however many queries
// subscribe to it — so the ingest-side maintenance cost (engine
// observe_local calls, reported by SummarySubstrate::ingest_ops) must grow
// with the family count (<= 4 here), not with Q. This bench sweeps
// Q in {1, 2, 4, 8, 16} on the simulator backplane, prints the per-query
// amortization, and writes BENCH_multiquery.json.
//
// Flags:
//   --quick      smaller tuple count (CI smoke)
//   --check      exit 1 when a run is unclean, a per-query epsilon leaves
//                [0, 1], per-query counters fail to sum to the aggregates,
//                or the Q=16 ingest cost is NOT sub-linear (>= 8x Q=1)
//   --out=PATH   JSON output path (default BENCH_multiquery.json)
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.hpp"

namespace {

using namespace dsjoin;

struct Entry {
  std::size_t queries = 0;
  bool clean = false;
  std::uint64_t ingest_ops = 0;   // substrate engine observes, all nodes
  std::uint64_t total_arrivals = 0;
  std::uint64_t reported_pairs = 0;
  std::uint64_t exact_pairs = 0;
  std::uint64_t total_bytes = 0;
  double mean_epsilon = 0.0;
  double max_epsilon = 0.0;
  double wall_ms = 0.0;
  bool sums_match = false;  // per-query counters == aggregates
};

/// The mixed query set: cycle the summary-driven policies with distinct
/// budgets and windows so all four families stay live at Q >= 4.
std::vector<core::QuerySpec> mixed_queries(const core::SystemConfig& base,
                                           std::size_t count) {
  const core::PolicyKind kCycle[] = {
      core::PolicyKind::kDftt, core::PolicyKind::kSample,
      core::PolicyKind::kBloom, core::PolicyKind::kSketch};
  std::vector<core::QuerySpec> specs;
  specs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    core::QuerySpec spec;
    spec.id = static_cast<std::uint32_t>(i);
    spec.policy = kCycle[i % 4];
    spec.throttle = 0.3 + 0.1 * static_cast<double>(i % 5);
    spec.join_half_width_s =
        base.queries.front().join_half_width_s *
        (0.5 + 0.25 * static_cast<double>(i % 4));
    specs.push_back(spec);
  }
  return specs;
}

Entry run_point(std::size_t query_count, std::uint64_t tuples) {
  auto config = bench::figure_config("ZIPF", 8, tuples);
  config.queries = mixed_queries(config, query_count);
  bench::validate_or_die(config);

  const auto start = std::chrono::steady_clock::now();
  core::DspSystem system(config);
  const auto result = system.run();
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  Entry e;
  e.queries = query_count;
  e.clean = result.clean && result.decode_failures == 0;
  e.total_arrivals = result.total_arrivals;
  e.reported_pairs = result.reported_pairs;
  e.exact_pairs = result.exact_pairs;
  e.total_bytes = result.traffic.total_bytes();
  e.wall_ms = wall_s * 1e3;
  for (net::NodeId id = 0; id < config.nodes; ++id) {
    e.ingest_ops += system.node(id).substrate().ingest_ops();
  }
  std::uint64_t reported_sum = 0, exact_sum = 0;
  for (const auto& query : result.per_query) {
    e.mean_epsilon += query.epsilon;
    if (query.epsilon > e.max_epsilon) e.max_epsilon = query.epsilon;
    reported_sum += query.reported_pairs;
    exact_sum += query.exact_pairs;
  }
  if (!result.per_query.empty()) {
    e.mean_epsilon /= static_cast<double>(result.per_query.size());
  }
  e.sums_match = reported_sum == result.reported_pairs &&
                 exact_sum == result.exact_pairs;
  return e;
}

void write_json(const std::vector<Entry>& entries, const std::string& path) {
  std::ofstream out(path);
  out << "{\n  \"meta\": " << bench::json_meta("sim") << ",\n";
  out << "  \"entries\": [\n";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const Entry& e = entries[i];
    char buf[384];
    std::snprintf(
        buf, sizeof buf,
        "    {\"queries\": %zu, \"clean\": %s, \"ingest_ops\": %llu, "
        "\"arrivals\": %llu, \"reported_pairs\": %llu, "
        "\"exact_pairs\": %llu, \"total_bytes\": %llu, "
        "\"mean_epsilon\": %.6f, \"max_epsilon\": %.6f, "
        "\"sums_match\": %s, \"wall_ms\": %.2f}%s\n",
        e.queries, e.clean ? "true" : "false",
        static_cast<unsigned long long>(e.ingest_ops),
        static_cast<unsigned long long>(e.total_arrivals),
        static_cast<unsigned long long>(e.reported_pairs),
        static_cast<unsigned long long>(e.exact_pairs),
        static_cast<unsigned long long>(e.total_bytes), e.mean_epsilon,
        e.max_epsilon, e.sums_match ? "true" : "false", e.wall_ms,
        i + 1 < entries.size() ? "," : "");
    out << buf;
  }
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  bool check = false;
  std::string out_path = "BENCH_multiquery.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--check") == 0) {
      check = true;
    } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      std::fprintf(stderr,
                   "usage: bench_multiquery [--quick] [--check] [--out=PATH]\n");
      return 2;
    }
  }

  const std::uint64_t tuples = quick ? 200 : 600;
  const std::size_t counts[] = {1, 2, 4, 8, 16};

  std::puts("Multi-query serving: shared-substrate ingest amortization "
            "(ZIPF, N=8, mixed policies).");
  std::printf("%8s %6s %12s %14s %10s %10s %10s\n", "queries", "clean",
              "ingest_ops", "ops/query", "mean_eps", "max_eps", "wall_ms");

  std::vector<Entry> entries;
  for (const std::size_t count : counts) {
    entries.push_back(run_point(count, tuples));
    const Entry& e = entries.back();
    std::printf("%8zu %6s %12llu %14.1f %10.4f %10.4f %10.2f\n", e.queries,
                e.clean ? "yes" : "NO",
                static_cast<unsigned long long>(e.ingest_ops),
                static_cast<double>(e.ingest_ops) /
                    static_cast<double>(e.queries),
                e.mean_epsilon, e.max_epsilon, e.wall_ms);
  }
  write_json(entries, out_path);
  std::printf("\nwrote %s (%zu entries)\n", out_path.c_str(), entries.size());

  if (!check) return 0;
  bool violation = false;
  for (const Entry& e : entries) {
    if (!e.clean) {
      std::fprintf(stderr, "unclean run at %zu queries\n", e.queries);
      violation = true;
    }
    if (!e.sums_match) {
      std::fprintf(stderr,
                   "per-query pair counts do not sum to the aggregates at "
                   "%zu queries\n",
                   e.queries);
      violation = true;
    }
    if (e.mean_epsilon < 0.0 || e.max_epsilon > 1.0) {
      std::fprintf(stderr, "epsilon out of [0, 1] at %zu queries\n",
                   e.queries);
      violation = true;
    }
  }
  // The tentpole claim: ingest-side maintenance is shared across queries.
  // Four summary families serve all 16 queries, so the Q=16 ingest cost
  // must stay well under 16x the Q=1 cost (8x = half the naive slope).
  const Entry& one = entries.front();
  const Entry& sixteen = entries.back();
  if (sixteen.ingest_ops >= 8 * one.ingest_ops) {
    std::fprintf(stderr,
                 "ingest cost is not sub-linear in queries: Q=16 ops %llu "
                 ">= 8x Q=1 ops %llu\n",
                 static_cast<unsigned long long>(sixteen.ingest_ops),
                 static_cast<unsigned long long>(one.ingest_ops));
    violation = true;
  }
  if (violation) return 1;
  std::puts("check: all invariants hold");
  return 0;
}
