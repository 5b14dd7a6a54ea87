// Parallel simulator scaling: serial vs epoch-parallel wall clock.
//
// Runs the same experiment twice per cluster size — worker_threads = 0 (the
// historical serial driver) and worker_threads = W — and reports wall-clock
// seconds and speedup. The parallel driver is bit-identical to serial (see
// DESIGN.md section 6), which the harness asserts on every row by comparing
// |Psi-hat| and total frames; any divergence aborts the bench.
//
// The oracle is disabled for these runs: it is inherently global/serial and
// at scaling-bench rates would dominate the serial fraction (Amdahl), hiding
// the driver's own scaling. Epsilon is therefore not reported here.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "bench_util.hpp"

using namespace dsjoin;

namespace {

double run_timed(const core::SystemConfig& config, core::ExperimentResult* out) {
  const auto start = std::chrono::steady_clock::now();
  *out = core::run_experiment(config);
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(stop - start).count();
}

}  // namespace

int main(int argc, char** argv) {
  common::CliFlags flags("Parallel driver scaling: serial vs epoch-parallel");
  flags.add_int("tuples", 2500, "tuples per node per side");
  flags.add_int("workers", 8, "strands for the parallel runs");
  flags.add_double("rate", 120.0, "arrivals per second per node per side");
  flags.add_double("window", 30.0, "join half-width in seconds");
  flags.add_int("seed", 42, "experiment seed");
  if (auto s = flags.parse(argc, argv); !s) {
    return s.code() == common::ErrorCode::kFailedPrecondition ? 0 : 1;
  }
  const auto tuples = static_cast<std::uint64_t>(flags.get_int("tuples"));
  if (flags.get_int("workers") < 1) {
    std::fprintf(stderr, "error: --workers must be >= 1, got %lld\n",
                 static_cast<long long>(flags.get_int("workers")));
    return 1;
  }
  const auto workers = static_cast<std::uint32_t>(flags.get_int("workers"));

  const unsigned cores = std::thread::hardware_concurrency();
  std::printf("hardware_concurrency: %u\n", cores);
  if (cores < 2) {
    std::puts(
        "NOTE: single-hardware-thread host — wall-clock speedup cannot "
        "exceed ~1x here; the table below still verifies bit-identity and "
        "measures the epoch machinery's overhead.");
  }

  common::TablePrinter table(
      "Parallel scaling (DFTT, ZIPF, " + std::to_string(workers) +
          " strands, oracle off)",
      {"nodes", "serial_s", "parallel_s", "speedup", "pairs", "frames"});
  for (std::uint32_t n : {4u, 8u, 16u, 20u}) {
    auto config = bench::figure_config("ZIPF", n, tuples,
                                       static_cast<std::uint64_t>(
                                           flags.get_int("seed")));
    config.queries.front().policy = core::PolicyKind::kDftt;
    config.arrivals_per_second = flags.get_double("rate");
    config.queries.front().join_half_width_s = flags.get_double("window");
    config.oracle_enabled = false;
    // Pure-latency WAN: bandwidth shaping off keeps the run compute-bound
    // at these rates and keeps backpressure — the one documented
    // serial/parallel divergence caveat — from ever engaging (the identity
    // assertion below would catch it).
    config.wan.unlimited_bandwidth = true;

    core::ExperimentResult serial;
    config.worker_threads = 0;
    const double serial_s = run_timed(config, &serial);

    core::ExperimentResult parallel;
    config.worker_threads = workers;
    const double parallel_s = run_timed(config, &parallel);

    if (parallel.reported_pairs != serial.reported_pairs ||
        parallel.traffic.total_frames() != serial.traffic.total_frames()) {
      std::fprintf(stderr,
                   "FATAL: parallel run diverged from serial at N=%u "
                   "(pairs %llu vs %llu, frames %llu vs %llu)\n",
                   n,
                   static_cast<unsigned long long>(parallel.reported_pairs),
                   static_cast<unsigned long long>(serial.reported_pairs),
                   static_cast<unsigned long long>(
                       parallel.traffic.total_frames()),
                   static_cast<unsigned long long>(
                       serial.traffic.total_frames()));
      return 1;
    }
    table.add(n, serial_s, parallel_s, serial_s / parallel_s,
              serial.reported_pairs, serial.traffic.total_frames());
  }
  bench::emit(table);

  std::puts("Shape check: speedup grows with N (more independent strands per");
  std::puts("epoch); at N=16 with 8 strands the target is >= 2x over serial.");
  return 0;
}
