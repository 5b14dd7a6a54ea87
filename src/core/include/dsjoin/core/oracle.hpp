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
// the newest arrival. The counts live in an open-addressing table that
// allocates only when it grows, so keys entering and leaving the window
// cost no allocation.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <vector>

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

  /// Live entries of one key, by side. A slot whose counts are both zero
  /// is empty: a key leaves the table when both reach zero.
  struct Slot {
    std::int64_t key = 0;
    std::array<std::uint32_t, 2> count{};
    bool empty() const noexcept { return count[0] == 0 && count[1] == 0; }
  };

  std::size_t home(std::int64_t key) const noexcept {
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(key) * 0x9E3779B97F4A7C15ull) >> shift_);
  }
  /// The slot holding `key`, or the empty slot where it would go.
  std::size_t find(std::int64_t key) const noexcept;
  /// Empties slot `hole`, shifting later entries of its probe run back so
  /// every run stays unbroken (linear probing without tombstones).
  void erase(std::size_t hole) noexcept;
  /// Doubles the table (16 slots at first) and re-inserts every key.
  void grow();

  double half_width_;
  std::array<std::deque<Live>, 2> live_;  // by side, arrival order
  /// Linear-probing table of the live keys: a power-of-two size, at most
  /// half full.
  std::vector<Slot> slots_;
  std::size_t used_ = 0;
  unsigned shift_ = 64;  ///< 64 - log2(slots_.size())
  std::uint64_t pairs_ = 0;
};

}  // namespace dsjoin::core
