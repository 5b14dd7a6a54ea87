// Deterministic arrival generation — the single source of arrival truth.
//
// Every backend of the experiment engine must agree on the global tuple
// sequence: ids are the metrics dedup key, the oracle needs the full
// arrival order, and the distributed runtime regenerates each node's slice
// in-process from nothing but the config. Two views share one generator:
//
//   * ArrivalSource — the streaming form. Owns the rng tree (root seeded
//     seed ^ 0xa771'7a1e, one forked rng per (node, side) slot in slot
//     order), the workload's key streams, the per-slot quotas and the
//     dense global tuple-id counter. The simulator draws from it event by
//     event, which lets backpressure feedback shift arrival times (a
//     stalled source re-draws its next gap later, changing every
//     subsequent timestamp and key on that slot).
//
//   * ArrivalSchedule — the materialized form: the full global sequence as
//     a pure function of the SystemConfig, built by merging the source's
//     per-slot gap streams in (time, slot) order. Identical to what the
//     simulator emits whenever backpressure never engages
//     (max_backlog_s = 0, or traffic below the threshold).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "dsjoin/common/rng.hpp"
#include "dsjoin/core/config.hpp"
#include "dsjoin/stream/generator.hpp"
#include "dsjoin/stream/tuple.hpp"

namespace dsjoin::core {

/// Streaming arrival generator for one experiment. Single-run: draws are
/// consumed. Emission order across slots is the caller's responsibility
/// (global time order); each slot's gap stream is independent.
class ArrivalSource {
 public:
  explicit ArrivalSource(const SystemConfig& config);

  /// True once `node`'s `side` has emitted its full tuples_per_node quota.
  bool exhausted(net::NodeId node, stream::StreamSide side) const;

  /// Draws the next exponential inter-arrival gap for the slot.
  double next_gap(net::NodeId node, stream::StreamSide side);

  /// Emits the slot's next tuple at time `now`: assigns the next dense
  /// global id, draws the workload key, and counts it against the quota.
  /// Call in global time order — ids and key draws are order-sensitive.
  stream::Tuple emit(net::NodeId node, stream::StreamSide side, double now);

  /// Tuples emitted so far across all slots.
  std::uint64_t total_emitted() const noexcept { return total_emitted_; }

 private:
  std::uint64_t quota_;
  std::unique_ptr<stream::Workload> workload_;
  std::vector<common::Xoshiro256> rngs_;  // per (node, side) slot
  std::vector<std::uint64_t> emitted_;    // per (node, side) slot
  double rate_;
  std::uint64_t next_tuple_id_ = 1;
  std::uint64_t total_emitted_ = 0;
};

struct ArrivalSchedule {
  /// All arrivals of all nodes, in nondecreasing timestamp order (ties
  /// broken by (node, side) slot), with dense globally unique ids from 1.
  std::vector<stream::Tuple> tuples;
  /// Virtual time of the last arrival.
  double makespan_s = 0.0;

  /// Builds the schedule for `config` (workload, seed, rate, count).
  static ArrivalSchedule build(const SystemConfig& config);
};

/// Exact |Psi| for a schedule: distinct (r, s) pairs with equal keys and
/// |r.ts - s.ts| <= half_width, over all nodes' arrivals.
std::uint64_t exact_pairs(const ArrivalSchedule& schedule, double half_width);

/// Counts reported pairs that are NOT true join results of the schedule —
/// the graceful-degradation contract requires this to be zero even when
/// peers die mid-run (a lost peer may lose results, never invent them).
/// Precondition: ids are dense, tuples[i].id == i + 1, as build() and
/// ArrivalSource emit them. A pair naming id 0, an id past the end, or an
/// id whose slot holds another tuple counts as false, never as genuine.
std::uint64_t count_false_pairs(const ArrivalSchedule& schedule,
                                double half_width,
                                std::span<const stream::ResultPair> pairs);

}  // namespace dsjoin::core
