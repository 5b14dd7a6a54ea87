// Epsilon calibration.
//
// Figures 9 and 11 of the paper compare algorithms at a *fixed* error rate
// (epsilon = 15%). The paper does not describe its controller; we calibrate
// offline: the per-node forwarding budget (the policy throttle, which maps
// to T_i = (N-1)^throttle) is bisected until the measured epsilon lands in
// the target band, then the operating point's traffic and throughput are
// reported. Epsilon is monotonically nonincreasing in the throttle, so
// bisection converges; residual simulation noise is absorbed by the band.
#pragma once

#include "dsjoin/core/config.hpp"
#include "dsjoin/core/system.hpp"

namespace dsjoin::core {

struct CalibrationResult {
  double throttle = 0.0;       ///< operating point found
  ExperimentResult result;     ///< full run at that operating point
  bool converged = false;      ///< measured epsilon within the band
  int runs = 0;                ///< experiments executed
};

/// Finds a throttle whose measured epsilon is within +/- `tolerance` of
/// `target_epsilon` (both in [0, 1]), setting it on every query of
/// `config.queries` (the figures calibrate one query). BASE ignores the
/// throttle: an all-BASE query set is returned as-is after one run. If
/// even throttle 1 / 0 cannot reach the band (e.g. the policy's floor
/// error exceeds the target), the closest endpoint is returned with
/// converged = false.
CalibrationResult calibrate_throttle(SystemConfig config, double target_epsilon,
                                     double tolerance = 0.015,
                                     int max_bisections = 6);

}  // namespace dsjoin::core
