// Data-plane batching payoff: tuple throughput of the in-process TCP
// backend with frame coalescing + batch ingest on vs the per-tuple
// baseline (coalesce_frames = 1: one wire record, one handler invocation
// and one ingest lock acquisition per tuple).
//
// The measured metric is end-to-end ingest throughput — total arrivals
// divided by wall-clock makespan (run start to drain complete) — at the
// Figure 11 experiment scale. The batched path must win by sharing length
// headers (one write(2) per record), amortizing the delivery lock across a
// whole decoded record, and slicing the arrival schedule into
// NodeHost::ingest_batch calls (one ingest lock acquisition per slice).
//
// Flags:
//   --quick          smaller run (CI smoke)
//   --check          exit 1 if the batched path is slower than
//                    --min-speedup x baseline, or any run is unclean
//   --min-speedup=X  gate for --check (default 1.5; CI machines are noisy,
//                    the committed BENCH_wire.json records the full-scale
//                    ratio)
//   --out=PATH       JSON output path (default BENCH_wire.json)
//   --coalesce-frames / --coalesce-bytes   batched-mode budgets
#include "bench_util.hpp"

#include <chrono>
#include <fstream>

using namespace dsjoin;

namespace {

struct Entry {
  std::string mode;
  std::uint32_t coalesce_frames = 0;
  bool clean = false;
  std::uint64_t total_arrivals = 0;
  std::uint64_t frames = 0;
  std::uint64_t wire_records = 0;
  std::uint64_t header_bytes_saved = 0;
  double makespan_s = 0.0;
  double tuples_per_second = 0.0;
};

Entry run_mode(core::SystemConfig config, const std::string& mode) {
  const auto result =
      bench::run_with_backend(core::Backend::kTcpInprocess, config);
  Entry e;
  e.mode = mode;
  e.coalesce_frames = config.coalesce_frames;
  e.clean = result.clean;
  e.total_arrivals = result.total_arrivals;
  e.frames = result.traffic.total_frames();
  e.wire_records = result.traffic.wire_records;
  e.header_bytes_saved = result.traffic.header_bytes_saved;
  e.makespan_s = result.makespan_s;
  e.tuples_per_second = result.ingest_per_second;
  return e;
}

void write_json(const std::vector<Entry>& entries, double speedup,
                const std::string& path) {
  std::ofstream out(path);
  out << "{\n  \"meta\": " << bench::json_meta("tcp-inprocess")
      << ",\n  \"entries\": [\n";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const Entry& e = entries[i];
    char buf[512];
    std::snprintf(
        buf, sizeof buf,
        "    {\"mode\": \"%s\", \"coalesce_frames\": %u, \"clean\": %s, "
        "\"total_arrivals\": %llu, \"frames\": %llu, \"wire_records\": %llu, "
        "\"header_bytes_saved\": %llu, \"makespan_s\": %.4f, "
        "\"tuples_per_second\": %.1f}%s\n",
        e.mode.c_str(), e.coalesce_frames, e.clean ? "true" : "false",
        static_cast<unsigned long long>(e.total_arrivals),
        static_cast<unsigned long long>(e.frames),
        static_cast<unsigned long long>(e.wire_records),
        static_cast<unsigned long long>(e.header_bytes_saved), e.makespan_s,
        e.tuples_per_second, i + 1 < entries.size() ? "," : "");
    out << buf;
  }
  char tail[64];
  std::snprintf(tail, sizeof tail, "  ],\n  \"speedup\": %.2f\n}\n", speedup);
  out << tail;
}

}  // namespace

int main(int argc, char** argv) {
  common::CliFlags flags(
      "Socket data-plane throughput: coalesced wire records + batch ingest "
      "vs the per-tuple baseline (tcp-inprocess backend)");
  flags.add_bool("quick", false, "smaller run for CI smoke");
  flags.add_bool("check", false,
                 "exit 1 unless batched >= min-speedup x baseline");
  flags.add_double("min-speedup", 1.5, "gate for --check");
  flags.add_string("out", "BENCH_wire.json", "JSON output path");
  bench::add_coalesce_flags(flags);
  if (auto s = flags.parse(argc, argv); !s) {
    return s.code() == common::ErrorCode::kFailedPrecondition ? 0 : 1;
  }
  const bool quick = flags.get_bool("quick");
  const bool check = flags.get_bool("check");
  const double min_speedup = flags.get_double("min-speedup");

  // Figure 11's measurement scale (8 nodes, ZIPF), routed round-robin so
  // the data plane — not summary math — dominates; no backpressure and no
  // in-run oracle, so makespan is pure transport + node work.
  auto config = bench::figure_config("ZIPF", quick ? 4u : 8u,
                                     quick ? 300u : 1400u);
  config.policy = core::PolicyKind::kRoundRobin;
  config.max_backlog_s = 0.0;
  config.oracle_enabled = false;
  bench::apply_coalesce_flags(flags, config);

  auto baseline_config = config;
  baseline_config.coalesce_frames = 1;
  if (config.coalesce_frames <= 1) {
    std::fprintf(stderr,
                 "error: --coalesce-frames must be > 1 to compare against "
                 "the per-tuple baseline\n");
    return 1;
  }

  std::puts("Wire throughput: per-tuple baseline vs batched data plane.");
  std::printf("%-10s %8s %10s %10s %12s %12s %12s\n", "mode", "frames/rec",
              "arrivals", "records", "hdr_saved", "makespan_s", "tuples/s");
  std::vector<Entry> entries;
  for (int i = 0; i < 2; ++i) {
    const bool batched = i == 1;
    Entry e = run_mode(batched ? config : baseline_config,
                       batched ? "batched" : "per-tuple");
    std::printf("%-10s %8u %10llu %10llu %12llu %12.4f %12.1f\n",
                e.mode.c_str(), e.coalesce_frames,
                static_cast<unsigned long long>(e.total_arrivals),
                static_cast<unsigned long long>(e.wire_records),
                static_cast<unsigned long long>(e.header_bytes_saved),
                e.makespan_s, e.tuples_per_second);
    entries.push_back(std::move(e));
  }
  const double speedup = entries[0].tuples_per_second > 0.0
                             ? entries[1].tuples_per_second /
                                   entries[0].tuples_per_second
                             : 0.0;
  std::printf("\nbatched / per-tuple speedup: %.2fx\n", speedup);
  write_json(entries, speedup, flags.get_string("out"));
  std::printf("wrote %s\n", flags.get_string("out").c_str());

  const bool unclean = !entries[0].clean || !entries[1].clean;
  if (unclean || (check && speedup < min_speedup)) {
    std::fprintf(stderr, "%s: %s\n", check ? "FAIL" : "warning",
                 unclean ? "a run did not drain cleanly"
                         : "batched path below the speedup gate");
    if (check) return 1;
  }
  return 0;
}
