#include "dsjoin/core/calibration.hpp"

#include <algorithm>
#include <cmath>

namespace dsjoin::core {

namespace {

ExperimentResult run_at(SystemConfig config, double throttle) {
  for (QuerySpec& spec : config.queries) spec.throttle = throttle;
  return run_experiment(config);
}

}  // namespace

CalibrationResult calibrate_throttle(SystemConfig config, double target_epsilon,
                                     double tolerance, int max_bisections) {
  CalibrationResult out;
  const bool all_base =
      std::all_of(config.queries.begin(), config.queries.end(),
                  [](const QuerySpec& spec) {
                    return spec.policy == PolicyKind::kBase;
                  });
  if (all_base) {
    out.result = run_experiment(config);
    out.throttle = config.queries.front().throttle;
    out.converged = std::abs(out.result.epsilon - target_epsilon) <= tolerance;
    out.runs = 1;
    return out;
  }

  // Bracket: epsilon is nonincreasing in the throttle.
  double lo = 0.0, hi = 1.0;
  ExperimentResult at_lo = run_at(config, lo);
  out.runs++;
  if (std::abs(at_lo.epsilon - target_epsilon) <= tolerance) {
    out = CalibrationResult{lo, at_lo, true, out.runs};
    return out;
  }
  if (at_lo.epsilon < target_epsilon) {
    // Even the stingiest setting reports too much: cannot reach the target.
    out = CalibrationResult{lo, at_lo, false, out.runs};
    return out;
  }
  ExperimentResult at_hi = run_at(config, hi);
  out.runs++;
  if (std::abs(at_hi.epsilon - target_epsilon) <= tolerance) {
    out = CalibrationResult{hi, at_hi, true, out.runs};
    return out;
  }
  if (at_hi.epsilon > target_epsilon) {
    // Even broadcasting misses too much (should not happen in practice).
    out = CalibrationResult{hi, at_hi, false, out.runs};
    return out;
  }

  double best_throttle = hi;
  ExperimentResult best = at_hi;
  for (int i = 0; i < max_bisections; ++i) {
    const double mid = 0.5 * (lo + hi);
    const ExperimentResult at_mid = run_at(config, mid);
    out.runs++;
    const double err = std::abs(at_mid.epsilon - target_epsilon);
    if (err < std::abs(best.epsilon - target_epsilon)) {
      best = at_mid;
      best_throttle = mid;
    }
    if (err <= tolerance) break;
    if (at_mid.epsilon > target_epsilon) {
      lo = mid;  // too many misses: open the throttle
    } else {
      hi = mid;
    }
  }
  out.throttle = best_throttle;
  out.result = best;
  out.converged = std::abs(best.epsilon - target_epsilon) <= tolerance;
  return out;
}

}  // namespace dsjoin::core
