// Discrete-event scheduler in virtual time.
//
// The WAN prototype of the paper ran on twenty workstations with artificial
// latency and bandwidth shaping; our reproduction runs the same node logic
// under a deterministic virtual clock. Events fire in nondecreasing time
// order; ties break by insertion order (FIFO), which the simulated links
// rely on for TCP-like ordering.
//
// Epochs: the parallel driver consumes the queue in *epochs* — all events
// sharing the next virtual timestamp (or, with lookahead, all events inside
// a half-open window no wider than the minimum network latency, so nothing
// executed in the epoch can schedule a cross-node event back into it). It
// forms them from next_when()/next_is_barrier()/run_one(); *barrier*
// events must never share an epoch with per-node work (node restarts,
// topology changes). run_all()/run_one() treat barrier events like any
// other, so the serial path is unchanged.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

namespace dsjoin::net {

/// Virtual time in seconds.
using SimTime = double;

/// A min-heap of timestamped callbacks with deterministic tie-breaking.
class EventQueue {
 public:
  using Callback = std::function<void()>;

  /// Schedules `fn` at absolute virtual time `when` (>= now()).
  void schedule_at(SimTime when, Callback fn);

  /// Schedules a *barrier* event: the parallel driver's dispatch loop
  /// stops in front of it so it executes alone, after every earlier
  /// event's effects are fully applied. Serial execution order is
  /// identical to schedule_at.
  void schedule_barrier_at(SimTime when, Callback fn);

  /// Current virtual time (the timestamp of the last executed event).
  SimTime now() const noexcept { return now_; }

  bool empty() const noexcept { return heap_.empty(); }
  std::size_t pending() const noexcept { return heap_.size(); }

  /// Timestamp of the earliest pending event. Precondition: !empty().
  SimTime next_when() const noexcept { return heap_.top().when; }

  /// Whether the earliest pending event is a barrier event.
  /// Precondition: !empty().
  bool next_is_barrier() const noexcept { return heap_.top().barrier; }

  /// Executes the earliest event; returns false if none is pending.
  bool run_one();

  /// Runs events until the queue drains or `max_events` were executed.
  std::size_t run_all(std::size_t max_events = SIZE_MAX);

 private:
  struct Event {
    SimTime when;
    std::uint64_t sequence;  // insertion order for stable ties
    bool barrier;
    Callback fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const noexcept {
      if (a.when != b.when) return a.when > b.when;
      return a.sequence > b.sequence;
    }
  };

  std::priority_queue<Event, std::vector<Event>, Later> heap_;
  SimTime now_ = 0.0;
  std::uint64_t next_sequence_ = 0;
};

}  // namespace dsjoin::net
