// Cross-backend parity + end-to-end throughput per engine backplane.
//
// Runs the same golden SystemConfig through all three backends of the
// experiment engine (sim, tcp-inprocess, multiprocess) for the two
// deterministic-routing policies (RR and BASE), asserts that every backend
// reports the identical pair set size and epsilon with zero decode
// failures and zero false pairs, and records wall-clock time per backend —
// the perf trajectory now tracks end-to-end runs over real sockets, not
// just the simulator's hot path.
//
// The parity contract needs deterministic routing (RR / BASE), full drain,
// and no backpressure feedback (max_backlog_s = 0 keeps the simulator's
// arrivals equal to the materialized schedule the socket backends ingest);
// the summary-driven policies route on message timing and are compared on
// epsilon by the figure benches instead.
//
// Flags:
//   --quick      smaller tuple count (CI smoke)
//   --check      exit 1 on any parity violation across backends
//   --out=PATH   JSON output path (default BENCH_backends.json)
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "dsjoin/core/experiment.hpp"
#include "dsjoin/core/system.hpp"
#include "dsjoin/runtime/engine.hpp"

namespace {

using namespace dsjoin;

struct Entry {
  std::string policy;
  std::string backend;
  bool clean = false;
  std::uint64_t reported_pairs = 0;
  std::uint64_t exact_pairs = 0;
  std::uint64_t false_pairs = 0;
  std::uint64_t decode_failures = 0;
  double epsilon = 0.0;
  std::uint64_t frames = 0;
  double wall_ms = 0.0;
  double results_per_second = 0.0;
};

core::SystemConfig golden_config(core::PolicyKind policy, bool quick) {
  core::SystemConfig config;
  config.nodes = 4;
  config.seed = 7;
  config.workload = "ZIPF";
  config.queries.front().policy = policy;
  config.tuples_per_node = quick ? 120 : 300;
  config.arrivals_per_second = 50.0;
  config.queries.front().join_half_width_s = 2.0;
  config.dft_window = 256;
  config.kappa = 32.0;
  config.summary_epoch_tuples = 64;
  // No backpressure feedback: the simulator's on-the-fly arrivals then
  // equal the materialized ArrivalSchedule bit for bit, so all backends
  // ingest the identical tuple sequence.
  config.max_backlog_s = 0.0;
  return config;
}

Entry run_one(core::PolicyKind policy, core::Backend backend, bool quick) {
  const auto config = golden_config(policy, quick);
  runtime::EngineOptions options;
  options.backend = backend;
  const auto start = std::chrono::steady_clock::now();
  const auto result = runtime::run_experiment(config, options);
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  Entry e;
  e.policy = core::to_string(policy);
  e.backend = core::to_string(backend);
  e.clean = result.clean;
  e.reported_pairs = result.reported_pairs;
  e.exact_pairs = result.exact_pairs;
  e.false_pairs = result.false_pairs;
  e.decode_failures = result.decode_failures;
  e.epsilon = result.epsilon;
  e.frames = result.traffic.total_frames();
  e.wall_ms = wall_s * 1e3;
  e.results_per_second =
      wall_s > 0.0 ? static_cast<double>(result.reported_pairs) / wall_s : 0.0;
  return e;
}

void write_json(const std::vector<Entry>& entries, const std::string& path) {
  std::ofstream out(path);
  // Every backend contributes rows; the per-row "backend" field names it.
  out << "{\n  \"meta\": " << bench::json_meta("all")
      << ",\n  \"entries\": [\n";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const Entry& e = entries[i];
    char buf[512];
    std::snprintf(
        buf, sizeof buf,
        "  {\"policy\": \"%s\", \"backend\": \"%s\", \"clean\": %s, "
        "\"reported_pairs\": %llu, \"exact_pairs\": %llu, "
        "\"epsilon\": %.6f, \"decode_failures\": %llu, \"frames\": %llu, "
        "\"wall_ms\": %.2f, \"results_per_second\": %.1f}%s\n",
        e.policy.c_str(), e.backend.c_str(), e.clean ? "true" : "false",
        static_cast<unsigned long long>(e.reported_pairs),
        static_cast<unsigned long long>(e.exact_pairs), e.epsilon,
        static_cast<unsigned long long>(e.decode_failures),
        static_cast<unsigned long long>(e.frames), e.wall_ms,
        e.results_per_second, i + 1 < entries.size() ? "," : "");
    out << buf;
  }
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  bool check = false;
  std::string out_path = "BENCH_backends.json";
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
                   "usage: bench_backend_parity [--quick] [--check] "
                   "[--out=PATH]\n");
      return 2;
    }
  }

  const core::Backend backends[] = {core::Backend::kSim,
                                    core::Backend::kTcpInprocess,
                                    core::Backend::kMultiprocess};
  std::puts(
      "Cross-backend parity: one golden config on every engine backplane.");
  std::printf("%-6s %-14s %6s %8s %8s %9s %8s %10s %12s\n", "policy",
              "backend", "clean", "pairs", "exact", "epsilon", "frames",
              "wall_ms", "results/s");

  std::vector<Entry> entries;
  bool violation = false;
  for (const auto policy :
       {core::PolicyKind::kRoundRobin, core::PolicyKind::kBase}) {
    const Entry* reference = nullptr;
    for (const auto backend : backends) {
      entries.push_back(run_one(policy, backend, quick));
      const Entry& e = entries.back();
      std::printf("%-6s %-14s %6s %8llu %8llu %9.4f %8llu %10.2f %12.1f\n",
                  e.policy.c_str(), e.backend.c_str(), e.clean ? "yes" : "NO",
                  static_cast<unsigned long long>(e.reported_pairs),
                  static_cast<unsigned long long>(e.exact_pairs), e.epsilon,
                  static_cast<unsigned long long>(e.frames), e.wall_ms,
                  e.results_per_second);
      if (!e.clean || e.decode_failures != 0 || e.false_pairs != 0) {
        violation = true;
      }
      if (reference == nullptr) {
        reference = &entries.back();
      } else if (e.reported_pairs != reference->reported_pairs ||
                 e.exact_pairs != reference->exact_pairs ||
                 e.epsilon != reference->epsilon) {
        violation = true;
      }
    }
  }
  write_json(entries, out_path);
  std::printf("\nwrote %s (%zu entries)\n", out_path.c_str(), entries.size());

  if (violation) {
    std::fprintf(stderr,
                 "%s: backends disagree on the golden config (or a run was "
                 "unclean / reported false pairs)\n",
                 check ? "FAIL" : "warning");
    if (check) return 1;
  }
  return 0;
}
