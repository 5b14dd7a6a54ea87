// dsjoin_perfbench: one workload, one seed, one measurement.
//
//   dsjoin_perfbench --workload tcp-rr --seed 42 --seconds 10 --trace 0
//
// --trace 0 runs the workload's production entry point untraced for
// --seconds, cycling through the workload's schedules (configs derived
// from the seed), and reports the end-to-end metrics, with the timings on
// the reference clock of reference.hpp. --trace 1 alternates untraced
// runs with traced twins of the same configs and reports the per-layer
// metrics. Both modes check every run's outputs (checks.hpp) and print,
// as the last line of stdout, one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "checks.hpp"
#include "metrics.hpp"
#include "reference.hpp"
#include "runs.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;
namespace core = dsjoin::core;

struct Options {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10.0;
  bool trace = false;
};

[[noreturn]] void usage(const char* message) {
  std::fprintf(stderr,
               "error: %s\nusage: dsjoin_perfbench --workload NAME [--seed N] "
               "[--seconds S] [--trace 0|1]\nworkloads:",
               message);
  for (const Workload& w : workloads()) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || value[0] == '-' || *end != '\0') usage("bad --seed");
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(options.seconds > 0.0) || options.seconds > 600.0) {
        usage("--seconds must be in (0, 600]");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace must be 0 or 1");
      options.trace = value == "1";
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (options.workload.empty()) usage("--workload is required");
  return options;
}

double arrivals_per_s(const RunOutcome& outcome) {
  return outcome.timing.window_s > 0.0
             ? static_cast<double>(outcome.result.total_arrivals) /
                   outcome.timing.window_s
             : 0.0;
}

/// Every run of one invocation with its check outcome.
class Ledger {
 public:
  Ledger(const Workload& workload, std::vector<core::SystemConfig> configs)
      : workload_(workload),
        configs_(std::move(configs)),
        reference_(configs_.size()),
        arrivals_(configs_.size()) {}

  /// Runs schedule `k`, untraced or traced. A run that throws counts as
  /// one failed run.
  std::optional<RunOutcome> run(std::size_t k, bool traced) {
    try {
      return traced ? run_traced(workload_, configs_[k])
                    : run_untraced(workload_, configs_[k]);
    } catch (const std::exception& e) {
      record(k, {std::string(traced ? "traced" : "untraced") +
                 " run threw: " + e.what()});
      return std::nullopt;
    }
  }

  /// Checks one completed run. The first untraced run of each schedule is
  /// its reference: later untraced runs must repeat its deterministic
  /// outputs, and traced runs must reproduce them.
  void check(std::size_t k, const RunOutcome& outcome, bool traced) {
    std::vector<std::string> problems = result_problems(outcome.result);
    const bool sim = workload_.backend == core::Backend::kSim;
    if (!traced && !reference_[k]) {
      // Keep references small so peak_rss_mb measures the runs: only the
      // simulator's join check reads pairs later, and only per query.
      reference_[k] = outcome.result;
      reference_[k]->pairs = {};
      if (!sim) {
        for (auto& query : reference_[k]->per_query) query.pairs = {};
      }
    } else if (!reference_[k]) {
      problems.push_back("traced run has no untraced twin");
    } else if (const auto diff = deterministic_difference(
                   *reference_[k], outcome.result, /*result_frames=*/sim);
               !diff.empty()) {
      problems.push_back(traced ? "traced run differs from its untraced twin in " + diff
                                : "rerun of the same config changed " + diff);
    }
    if (traced && sim && !arrivals_[k]) arrivals_[k] = outcome.arrivals;
    record(k, problems);
  }

  /// Cross-run checks once the timed runs are done. Socket workloads: each
  /// config's epsilon equals the serial simulator's (returns the
  /// simulator's arrivals/s samples). Simulator workloads: the exact join
  /// recomputed from the emitted arrivals.
  std::vector<double> finish() {
    std::vector<double> baseline;
    for (std::size_t k = 0; k < configs_.size(); ++k) {
      if (!reference_[k]) continue;
      try {
        if (workload_.backend == core::Backend::kSim) {
          check_sim_join(k);
        } else {
          baseline.push_back(check_parity(k));
        }
      } catch (const std::exception& e) {
        fail_schedule(k, std::string("check run threw: ") + e.what());
      }
    }
    return baseline;
  }

  const std::vector<std::optional<core::ExperimentResult>>& references() const {
    return reference_;
  }
  std::size_t attempted() const { return runs_.size(); }
  std::size_t failed() const {
    std::size_t n = 0;
    for (const auto& run : runs_) n += run.ok ? 0 : 1;
    return n;
  }
  void note(const std::string& problem) { problems_.push_back(problem); }
  const std::vector<std::string>& problems() const { return problems_; }

 private:
  struct RunRecord {
    std::size_t schedule;
    bool ok;
  };

  void record(std::size_t k, const std::vector<std::string>& problems) {
    runs_.push_back(RunRecord{k, problems.empty()});
    for (const auto& p : problems) note(schedule_label(k) + p);
  }

  void fail_schedule(std::size_t k, const std::string& problem) {
    note(schedule_label(k) + problem);
    for (auto& run : runs_) {
      if (run.schedule == k) run.ok = false;
    }
  }

  std::string schedule_label(std::size_t k) const {
    return "seed " + std::to_string(configs_[k].seed) + ": ";
  }

  double check_parity(std::size_t k) {
    const RunOutcome sim = run_sim_baseline(configs_[k]);
    for (const auto& p : result_problems(sim.result)) {
      fail_schedule(k, "simulator reference: " + p);
    }
    if (sim.result.epsilon != reference_[k]->epsilon) {
      char buffer[160];
      std::snprintf(buffer, sizeof buffer,
                    "epsilon %.9f differs from the serial simulator's %.9f",
                    reference_[k]->epsilon, sim.result.epsilon);
      fail_schedule(k, buffer);
    }
    return arrivals_per_s(sim);
  }

  void check_sim_join(std::size_t k) {
    if (!arrivals_[k]) {
      const RunOutcome twin = run_traced(workload_, configs_[k]);
      if (const auto diff = deterministic_difference(
              *reference_[k], twin.result, /*result_frames=*/true);
          !diff.empty()) {
        fail_schedule(k, "traced twin differs in " + diff);
      }
      arrivals_[k] = twin.arrivals;
    }
    for (const auto& p :
         sim_join_problems(configs_[k], *arrivals_[k], *reference_[k])) {
      fail_schedule(k, p);
    }
  }

  const Workload& workload_;
  std::vector<core::SystemConfig> configs_;
  std::vector<std::optional<core::ExperimentResult>> reference_;
  std::vector<std::optional<std::vector<dsjoin::stream::Tuple>>> arrivals_;
  std::vector<RunRecord> runs_;
  std::vector<std::string> problems_;
};

/// Prints the metric table (n/a where a metric does not apply to the
/// workload's backend) and `note`, then the result line.
void print_result(const Ledger& ledger, const std::vector<MetricDef>& defs,
                  const std::map<std::string, double>& values, bool sockets,
                  const std::string& note = "") {
  bool finite = true;
  std::string json;
  std::printf("%-36s %18s  %s\n", "metric", "value", "unit");
  for (const MetricDef& def : defs) {
    const bool applies = sockets ? def.on_sockets : def.on_sim;
    const auto it = values.find(def.name);
    double value = applies && it != values.end() ? it->second : 0.0;
    if (!std::isfinite(value)) {
      finite = false;
      value = 0.0;
    }
    if (applies) {
      std::printf("%-36s %18.6g  %s\n", def.name, value, def.unit);
    } else {
      std::printf("%-36s %18s  %s\n", def.name, "n/a", def.unit);
    }
    char entry[160];
    std::snprintf(entry, sizeof entry, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  json.empty() ? "" : ", ", def.name, value, def.unit);
    json += entry;
  }
  if (!note.empty()) std::printf("%s\n", note.c_str());
  for (const auto& problem : ledger.problems()) {
    std::fprintf(stderr, "check failed: %s\n", problem.c_str());
  }
  const bool correct = finite && ledger.problems().empty();
  // A problem no run owns (a non-finite metric) still counts as a failure.
  const std::size_t failed =
      std::max<std::size_t>(ledger.failed(), correct ? 0 : 1);
  std::printf(
      "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {%s}}\n",
      correct ? "true" : "false", ledger.attempted(), failed, json.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse(argc, argv);
  const Workload* workload = find_workload(options.workload);
  if (workload == nullptr) usage(("unknown workload " + options.workload).c_str());
  std::vector<core::SystemConfig> configs;
  try {
    for (std::size_t k = 0; k < workload->schedules; ++k) {
      configs.push_back(make_config(*workload, schedule_seed(options.seed, k)));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: bad workload config: %s\n", e.what());
    return 2;
  }
  const std::size_t schedules = configs.size();
  const bool sockets = workload->backend != core::Backend::kSim;
  Ledger ledger(*workload, configs);

  // Timed runs: every schedule at least once, then round-robin over the
  // schedules until --seconds is spent. Trace mode alternates which twin
  // runs first so neither always gets the warmer caches. Without tracing,
  // the reference work is timed before the first run and after each one.
  // A run's rate is multiplied, and its set-up times divided, by the mean
  // slowdown of the two measurements around it.
  std::vector<double> untraced_rate;  // wall clock
  std::vector<double> traced_rate;
  std::vector<double> wall_setup;
  std::vector<double> steady_rate;  // reference clock
  std::vector<double> steady_setup;
  std::vector<double> slowdowns;
  std::optional<ReferenceWork> reference;
  if (!options.trace) {
    reference.emplace();
    slowdowns.push_back(reference->slowdown());
  }
  std::map<std::string, std::vector<double>> layers;
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(options.seconds));
  double rss_mb = 0.0;
  for (std::size_t i = 0; i < schedules || Clock::now() < deadline; ++i) {
    const std::size_t k = i % schedules;
    std::optional<RunOutcome> plain;
    std::optional<RunOutcome> traced;
    if (options.trace && i % 2 == 1) traced = ledger.run(k, true);
    plain = ledger.run(k, false);
    if (options.trace && i % 2 == 0) traced = ledger.run(k, true);
    if (plain) ledger.check(k, *plain, false);
    if (traced) ledger.check(k, *traced, true);
    std::vector<double> setup;
    if (plain) {
      untraced_rate.push_back(arrivals_per_s(*plain));
      setup.push_back(plain->timing.setup_s);
    }
    if (traced) {
      traced_rate.push_back(arrivals_per_s(*traced));
      for (const auto& [name, value] : layer_values(*traced)) {
        layers[name].push_back(value);
      }
    }
    if (!options.trace && !sockets) {
      // The simulator's setup is one short constructor: sample it a few
      // more times per run so its median is steady.
      for (int extra = 0; extra < 4; ++extra) {
        setup.push_back(sim_setup_sample(configs[k]));
      }
    }
    if (reference) {
      slowdowns.push_back(reference->slowdown());
      const double slow = 0.5 * (slowdowns[i] + slowdowns[i + 1]);
      if (plain) steady_rate.push_back(untraced_rate.back() * slow);
      for (const double s : setup) steady_setup.push_back(s / slow);
    }
    wall_setup.insert(wall_setup.end(), setup.begin(), setup.end());
    // Peak memory of one pass over the schedules: later repeats only add
    // allocator fragmentation, which would tie the figure to how many runs
    // fit in --seconds.
    // The reference buffers are resident from before the first run on, so
    // they add their exact size to the peak; it is not the program's.
    if (i + 1 == schedules) {
      rss_mb = peak_rss_mb();
      if (reference) {
        rss_mb -= static_cast<double>(reference->resident_bytes()) / (1 << 20);
      }
    }
  }
  const std::vector<double> baseline = ledger.finish();

  std::map<std::string, double> values;
  if (options.trace) {
    for (const auto& [name, samples] : layers) values[name] = median(samples);
    values["baseline.sim_arrivals_per_s"] = median(baseline);
    const double untraced = median(untraced_rate);
    values["trace.overhead"] =
        untraced > 0.0 ? median(traced_rate) / untraced - 1.0 : 0.0;
    print_result(ledger, per_layer_metrics(), values, sockets);
    return 0;
  }
  std::vector<const core::ExperimentResult*> firsts;
  for (const auto& reference : ledger.references()) {
    if (reference) firsts.push_back(&*reference);
  }
  if (firsts.size() != schedules) ledger.note("a schedule never completed");
  const Pooled pooled = pool(firsts);
  values["arrivals_per_s"] = median(steady_rate);
  values["setup_s"] = median(steady_setup);
  values["epsilon"] = pooled.epsilon;
  values["bytes_per_result"] = pooled.bytes_per_result;
  values["messages_per_result"] = pooled.messages_per_result;
  values["peak_rss_mb"] = rss_mb;
  char note[200];
  std::snprintf(note, sizeof note,
                "wall clock: arrivals_per_s %.6g, setup_s %.6g; reference "
                "slowdown %.4f (median of %zu)",
                median(untraced_rate), median(wall_setup), median(slowdowns),
                slowdowns.size());
  print_result(ledger, end_to_end_metrics(), values, sockets, note);
  return 0;
}
