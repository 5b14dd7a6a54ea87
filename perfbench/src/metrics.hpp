// The benchmark's metrics: the end-to-end set (untraced runs) and the
// per-layer set (traced runs), with the arithmetic that derives them.
//
// BENCHMARK.json declares the same names and units; run.py checks the
// declaration against the benchmark contract and refuses a result whose
// metric set differs from it.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "runs.hpp"

namespace perfbench {

struct MetricDef {
  const char* name;
  const char* unit;
  bool on_sockets;  ///< false: n/a on tcp-* (reported as 0)
  bool on_sim;      ///< false: n/a on sim-* (reported as 0)
};

const std::vector<MetricDef>& end_to_end_metrics();
const std::vector<MetricDef>& per_layer_metrics();

/// Median of `values` (0 when empty).
double median(std::vector<double> values);

/// Pooled quality and wire cost over one run's distinct schedules: the
/// sums of their counts, so each schedule weighs by its exact join size.
struct Pooled {
  double epsilon = 0.0;
  double bytes_per_result = 0.0;
  double messages_per_result = 0.0;
};
Pooled pool(std::span<const dsjoin::core::ExperimentResult* const> results);

/// Per-layer values of one traced run, except baseline.sim_arrivals_per_s
/// and trace.overhead, which compare runs and are filled by the caller.
std::map<std::string, double> layer_values(const RunOutcome& traced);

/// Peak resident set of this process so far, in MB.
double peak_rss_mb();

}  // namespace perfbench
