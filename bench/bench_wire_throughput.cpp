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
// One ratio of two sub-second makespans swings by 2x from run to run, so
// the bench runs kPairs per-tuple/batched pairs, alternating which mode
// goes first, and reports the median pair ratio as the speedup.
//
// Flags:
//   --quick          smaller runs (CI smoke)
//   --check          exit 1 if the median batched/per-tuple ratio is below
//                    --min-speedup, or any run is unclean
//   --min-speedup=X  gate for --check (default 1.5; CI machines are noisy,
//                    the committed BENCH_wire.json records the full-scale
//                    ratio)
//   --out=PATH       JSON output path (default BENCH_wire.json)
//   --coalesce-frames / --coalesce-bytes   batched-mode budgets
#include "bench_util.hpp"

#include <algorithm>
#include <fstream>

using namespace dsjoin;

namespace {

/// Per-tuple/batched pairs per invocation; odd, so the median is one pair.
constexpr int kPairs = 5;

struct Entry {
  int pair = 0;  ///< which per-tuple/batched pair the run belongs to
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

Entry run_mode(core::SystemConfig config, int pair, const std::string& mode) {
  const auto result =
      bench::run_with_backend(core::Backend::kTcpInprocess, config);
  Entry e;
  e.pair = pair;
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
        "    {\"pair\": %d, \"mode\": \"%s\", \"coalesce_frames\": %u, "
        "\"clean\": %s, \"total_arrivals\": %llu, \"frames\": %llu, "
        "\"wire_records\": %llu, \"header_bytes_saved\": %llu, "
        "\"makespan_s\": %.4f, \"tuples_per_second\": %.1f}%s\n",
        e.pair, e.mode.c_str(), e.coalesce_frames, e.clean ? "true" : "false",
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
                 "exit 1 unless the median batched/per-tuple ratio is >= "
                 "min-speedup");
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
  config.queries.front().policy = core::PolicyKind::kRoundRobin;
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
  std::printf("%4s %-10s %8s %10s %10s %12s %12s %12s\n", "pair", "mode",
              "frames/rec", "arrivals", "records", "hdr_saved", "makespan_s",
              "tuples/s");
  std::vector<Entry> entries;
  std::vector<double> ratios;
  bool unclean = false;
  for (int pair = 0; pair < kPairs; ++pair) {
    // Odd pairs run the batched mode first, so neither mode always gets
    // the machine in the same state.
    double tuples_per_second[2] = {0.0, 0.0};  // per-tuple, batched
    for (int k = 0; k < 2; ++k) {
      const bool batched = (k == 0) == (pair % 2 == 1);
      Entry e = run_mode(batched ? config : baseline_config, pair,
                         batched ? "batched" : "per-tuple");
      std::printf("%4d %-10s %8u %10llu %10llu %12llu %12.4f %12.1f\n", pair,
                  e.mode.c_str(), e.coalesce_frames,
                  static_cast<unsigned long long>(e.total_arrivals),
                  static_cast<unsigned long long>(e.wire_records),
                  static_cast<unsigned long long>(e.header_bytes_saved),
                  e.makespan_s, e.tuples_per_second);
      tuples_per_second[batched ? 1 : 0] = e.tuples_per_second;
      unclean |= !e.clean;
      entries.push_back(std::move(e));
    }
    ratios.push_back(tuples_per_second[0] > 0.0
                         ? tuples_per_second[1] / tuples_per_second[0]
                         : 0.0);
  }
  std::sort(ratios.begin(), ratios.end());
  const double speedup = ratios[kPairs / 2];
  std::printf("\nbatched / per-tuple speedup: median %.2fx over %d pairs "
              "(range %.2fx-%.2fx)\n",
              speedup, kPairs, ratios.front(), ratios.back());
  write_json(entries, speedup, flags.get_string("out"));
  std::printf("wrote %s\n", flags.get_string("out").c_str());

  if (unclean || (check && speedup < min_speedup)) {
    std::fprintf(stderr, "%s: %s\n", check ? "FAIL" : "warning",
                 unclean ? "a run did not drain cleanly"
                         : "batched path below the speedup gate");
    if (check) return 1;
  }
  return 0;
}
