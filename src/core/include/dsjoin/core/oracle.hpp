// Exact-join oracle.
//
// Computes |Psi| of Eq. 1: the exact number of (r, s) pairs with equal keys
// and coexisting timestamps, over all tuples of all nodes, by streaming the
// arrivals in global timestamp order. The distributed system's deduplicated
// reports are measured against this total.
//
// Only a count is needed, so the oracle keeps no tuples: one FIFO of live
// (key, timestamp) entries per side, in arrival order, and a live count per
// key and side. Memory is bounded by the tuples inside one half-width of
// the newest arrival.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <unordered_map>

#include "dsjoin/stream/tuple.hpp"

namespace dsjoin::core {

class ExactJoinOracle {
 public:
  /// @param half_width  join window: |r.ts - s.ts| <= half_width.
  explicit ExactJoinOracle(double half_width);

  /// Feeds one arrival. Calls must be in nondecreasing timestamp order
  /// (the simulation's arrival events provide this for free).
  void observe(const stream::Tuple& tuple);

  /// Exact |Psi| over everything observed so far.
  std::uint64_t total_pairs() const noexcept { return pairs_; }

 private:
  struct Live {
    std::int64_t key;
    double timestamp;
  };

  double half_width_;
  std::array<std::deque<Live>, 2> live_;  // by side, arrival order
  /// Live entries per key, by side; a key leaves when both reach zero.
  std::unordered_map<std::int64_t, std::array<std::uint64_t, 2>> counts_;
  std::uint64_t pairs_ = 0;
};

}  // namespace dsjoin::core
