// Output checks every run must pass. A run failing any of them is one
// failed operation.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "dsjoin/core/config.hpp"
#include "dsjoin/core/experiment.hpp"
#include "dsjoin/stream/tuple.hpp"

namespace perfbench {

/// Problems in one result on its own: not clean, false pairs (socket
/// backends recompute the exact join from the schedule), decode failures,
/// late summaries. Empty when the result passes.
std::vector<std::string> result_problems(const dsjoin::core::ExperimentResult& result);

/// The simulator's false-pair check. With backpressure the simulator's
/// arrivals drift from the materialized ArrivalSchedule, so the exact join
/// is recomputed from the arrivals the run actually emitted (recorded by
/// the traced driver): per query, zero reported pairs outside it, and an
/// exact pair count equal to the in-run oracle's.
std::vector<std::string> sim_join_problems(
    const dsjoin::core::SystemConfig& config,
    std::span<const dsjoin::stream::Tuple> arrivals,
    const dsjoin::core::ExperimentResult& result);

/// The outputs that repeat exactly across runs of one config: epsilon,
/// reported and exact pair counts, and frame and byte counts of tuple, summary and control
/// traffic. Result frames repeat only when `result_frames` (the
/// simulator): over sockets a node ships the matches of one delivery
/// slice in one frame, so their count follows the wall-clock interleaving
/// while their content does not (the backend-parity tests exclude them
/// for the same reason). Returns what differs, or "" when nothing does.
std::string deterministic_difference(const dsjoin::core::ExperimentResult& a,
                                     const dsjoin::core::ExperimentResult& b,
                                     bool result_frames);

}  // namespace perfbench
