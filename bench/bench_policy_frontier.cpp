// Policy frontier: epsilon vs summary bytes vs CPU for every routing
// policy, on one grid (ZIPF, Figure 8/11 scale, simulator backplane so the
// in-run oracle prices epsilon exactly).
//
// Each approximate policy sweeps the throttle exponent (its budget knob
// T = (N-1)^throttle); SMPL additionally sweeps the reservoir capacity so
// the artifact exposes its accuracy-vs-summary-bytes trade independently
// of the flow budget. BASE runs once — it is the exact, full-budget corner
// of the frontier. Every row also records SMPL's oracle-free
// predicted_epsilon_bound so the artifact shows how tight (and how safe)
// the Horvitz-Thompson bound is against the measured epsilon.
//
// Flags:
//   --quick      smaller grid + tuple count (CI smoke)
//   --check      exit 1 when a run is unclean, a policy is missing, BASE
//                reports epsilon != 0, or the SMPL bound fails to cover the
//                measured epsilon on most SMPL rows
//   --out=PATH   JSON output path (default BENCH_frontier.json)
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "bench_util.hpp"

namespace {

using namespace dsjoin;

struct Entry {
  std::string policy;
  double throttle = 0.0;
  std::uint32_t sample_capacity = 0;  // 0 for non-SMPL rows
  bool clean = false;
  double epsilon = 0.0;
  double predicted_bound = -1.0;  // -1: policy has no error model
  std::uint64_t reported_pairs = 0;
  std::uint64_t exact_pairs = 0;
  std::uint64_t decode_failures = 0;
  std::uint64_t summary_bytes = 0;  // standalone summary frames + piggyback
  std::uint64_t total_bytes = 0;
  double wall_ms = 0.0;
  double ingest_per_second = 0.0;  // CPU-side cost proxy: tuples/s of wall
};

Entry run_point(core::PolicyKind policy, double throttle,
                std::uint32_t sample_capacity, std::uint64_t tuples) {
  auto config = bench::figure_config("ZIPF", 8, tuples);
  config.queries.front().policy = policy;
  config.queries.front().throttle = throttle;
  config.sample_capacity = sample_capacity;

  const auto start = std::chrono::steady_clock::now();
  const auto result = bench::run_with_backend(core::Backend::kSim, config);
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  Entry e;
  e.policy = core::to_string(policy);
  e.throttle = throttle;
  e.sample_capacity = sample_capacity;
  e.clean = result.clean;
  e.epsilon = result.epsilon;
  e.predicted_bound = result.predicted_epsilon_bound;
  e.reported_pairs = result.reported_pairs;
  e.exact_pairs = result.exact_pairs;
  e.decode_failures = result.decode_failures;
  e.summary_bytes = result.traffic.bytes(net::FrameKind::kSummary) +
                    result.traffic.piggyback_bytes;
  e.total_bytes = result.traffic.total_bytes();
  e.wall_ms = wall_s * 1e3;
  e.ingest_per_second = wall_s > 0.0
                            ? static_cast<double>(result.total_arrivals) / wall_s
                            : 0.0;
  return e;
}

void write_json(const std::vector<Entry>& entries, const std::string& path) {
  std::ofstream out(path);
  out << "{\n  \"meta\": " << bench::json_meta("sim") << ",\n";
  out << "  \"entries\": [\n";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const Entry& e = entries[i];
    char buf[512];
    std::snprintf(
        buf, sizeof buf,
        "    {\"policy\": \"%s\", \"throttle\": %.2f, "
        "\"sample_capacity\": %u, \"clean\": %s, \"epsilon\": %.6f, "
        "\"predicted_bound\": %.6f, \"reported_pairs\": %llu, "
        "\"exact_pairs\": %llu, \"summary_bytes\": %llu, "
        "\"total_bytes\": %llu, \"wall_ms\": %.2f, "
        "\"ingest_per_second\": %.1f}%s\n",
        e.policy.c_str(), e.throttle, e.sample_capacity,
        e.clean ? "true" : "false", e.epsilon, e.predicted_bound,
        static_cast<unsigned long long>(e.reported_pairs),
        static_cast<unsigned long long>(e.exact_pairs),
        static_cast<unsigned long long>(e.summary_bytes),
        static_cast<unsigned long long>(e.total_bytes), e.wall_ms,
        e.ingest_per_second, i + 1 < entries.size() ? "," : "");
    out << buf;
  }
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  bool check = false;
  std::string out_path = "BENCH_frontier.json";
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
                   "usage: bench_policy_frontier [--quick] [--check] "
                   "[--out=PATH]\n");
      return 2;
    }
  }

  const std::uint64_t tuples = quick ? 250 : 1400;
  const std::vector<double> throttles =
      quick ? std::vector<double>{0.0, 0.5, 1.0}
            : std::vector<double>{0.0, 0.25, 0.5, 0.75, 1.0};
  const std::vector<std::uint32_t> capacities =
      quick ? std::vector<std::uint32_t>{64, 512}
            : std::vector<std::uint32_t>{64, 256, 1024, 4096};

  std::puts("Policy frontier: epsilon vs summary bytes vs CPU (ZIPF, N=8).");
  std::printf("%-6s %9s %9s %6s %9s %9s %12s %12s %10s\n", "policy",
              "throttle", "capacity", "clean", "epsilon", "bound",
              "summary_B", "total_B", "wall_ms");

  std::vector<Entry> entries;
  auto run_and_print = [&](core::PolicyKind policy, double throttle,
                           std::uint32_t capacity) -> const Entry& {
    entries.push_back(run_point(policy, throttle, capacity, tuples));
    const Entry& e = entries.back();
    char bound[16];
    if (e.predicted_bound >= 0.0) {
      std::snprintf(bound, sizeof bound, "%9.4f", e.predicted_bound);
    } else {
      std::snprintf(bound, sizeof bound, "%9s", "-");
    }
    std::printf("%-6s %9.2f %9u %6s %9.4f %s %12llu %12llu %10.2f\n",
                e.policy.c_str(), e.throttle, e.sample_capacity,
                e.clean ? "yes" : "NO", e.epsilon, bound,
                static_cast<unsigned long long>(e.summary_bytes),
                static_cast<unsigned long long>(e.total_bytes), e.wall_ms);
    return e;
  };

  for (const auto policy : bench::evaluated_policies()) {
    if (policy == core::PolicyKind::kBase) {
      // BASE ignores the budget knobs: one run, the exact corner.
      run_and_print(policy, 0.0, 0);
      continue;
    }
    for (const double throttle : throttles) {
      run_and_print(policy, throttle, 0);
    }
    if (policy == core::PolicyKind::kSample) {
      // The reservoir size is SMPL's second budget axis; sweep it at the
      // midpoint throttle so the capacity effect is isolated.
      for (const auto capacity : capacities) {
        run_and_print(policy, 0.5, capacity);
      }
    }
  }
  write_json(entries, out_path);
  std::printf("\nwrote %s (%zu entries)\n", out_path.c_str(), entries.size());

  // --check invariants (CI smoke gate).
  bool violation = false;
  std::set<std::string> policies_seen;
  std::size_t smpl_rows = 0, smpl_covered = 0;
  for (const Entry& e : entries) {
    policies_seen.insert(e.policy);
    if (!e.clean || e.decode_failures != 0) {
      std::fprintf(stderr, "unclean run: %s throttle=%.2f\n", e.policy.c_str(),
                   e.throttle);
      violation = true;
    }
    if (e.policy == "BASE" && e.epsilon != 0.0) {
      std::fprintf(stderr, "BASE must be exact, got epsilon=%.6f\n", e.epsilon);
      violation = true;
    }
    if (e.policy == "SMPL") {
      ++smpl_rows;
      if (e.predicted_bound < 0.0 || e.predicted_bound > 1.0) {
        std::fprintf(stderr, "SMPL bound out of range: %.6f\n",
                     e.predicted_bound);
        violation = true;
      } else if (e.predicted_bound >= e.epsilon) {
        ++smpl_covered;
      }
    }
  }
  if (policies_seen.size() != bench::evaluated_policies().size()) {
    std::fprintf(stderr, "expected %zu policies, saw %zu\n",
                 bench::evaluated_policies().size(), policies_seen.size());
    violation = true;
  }
  // The bound is a 95% one-sided confidence statement; the dedicated test
  // pins the 95% coverage over seeded runs, this gate only rejects a
  // systematically broken bound (majority of rows uncovered).
  if (smpl_rows > 0 && smpl_covered * 2 < smpl_rows) {
    std::fprintf(stderr, "SMPL bound covered epsilon on %zu/%zu rows\n",
                 smpl_covered, smpl_rows);
    violation = true;
  }
  if (violation) {
    std::fprintf(stderr, "%s: frontier invariants violated\n",
                 check ? "FAIL" : "warning");
    if (check) return 1;
  }
  return 0;
}
