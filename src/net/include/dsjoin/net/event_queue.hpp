// Discrete-event scheduler in virtual time.
//
// The WAN prototype of the paper ran on twenty workstations with artificial
// latency and bandwidth shaping; our reproduction runs the same node logic
// under a deterministic virtual clock. Events fire in nondecreasing time
// order; ties break by insertion order (FIFO), which the simulated links
// rely on for TCP-like ordering.
//
// Two kinds of event share one order: frame deliveries (SimTransport's
// per-frame traffic, stored as typed records so scheduling one builds no
// closure) and callbacks (arrivals, restarts). Each scheduled event of
// either kind takes one sequence number, so a tie between kinds breaks by
// scheduling order too. The heap holds small {when, seq, slot} keys over a
// slab of records; a run event's slot is reused by the next schedule.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "dsjoin/net/frame.hpp"
#include "dsjoin/net/transport.hpp"

namespace dsjoin::net {

/// Virtual time in seconds.
using SimTime = double;

/// A min-heap of timestamped events with deterministic tie-breaking.
class EventQueue {
 public:
  using Callback = std::function<void()>;

  /// Schedules `fn` at absolute virtual time `when` (>= now()).
  void schedule_at(SimTime when, Callback fn);

  /// Schedules the delivery of `frame` to `*handler` at `when` (>= now()).
  /// The handler is read when the delivery runs, so re-registering the
  /// slot `handler` points at redirects frames already in flight.
  void schedule_delivery_at(SimTime when, const DeliveryHandler* handler,
                            Frame&& frame);

  /// Current virtual time (the timestamp of the last executed event).
  SimTime now() const noexcept { return now_; }

  bool empty() const noexcept { return heap_.empty(); }
  std::size_t pending() const noexcept { return heap_.size(); }

  /// Executes the earliest event; returns false if none is pending.
  bool run_one();

  /// Runs events until the queue drains or `max_events` were executed.
  std::size_t run_all(std::size_t max_events = SIZE_MAX);

 private:
  // What the heap orders: (when, sequence) is a strict total order, so any
  // heap pops the same sequence.
  struct Key {
    SimTime when;
    std::uint64_t sequence;  // insertion order for stable ties
    std::uint32_t slot;      // the event's record in slab_
  };
  struct Later {
    bool operator()(const Key& a, const Key& b) const noexcept {
      if (a.when != b.when) return a.when > b.when;
      return a.sequence > b.sequence;
    }
  };
  // A frame delivery when `handler` is set, else a callback.
  struct Record {
    const DeliveryHandler* handler = nullptr;
    Frame frame;
    Callback fn;
  };

  /// A free slot of slab_ (reused, or appended).
  std::uint32_t acquire_slot();
  void push(SimTime when, std::uint32_t slot);

  std::vector<Key> heap_;
  std::vector<Record> slab_;
  std::vector<std::uint32_t> free_slots_;
  SimTime now_ = 0.0;
  std::uint64_t next_sequence_ = 0;
};

}  // namespace dsjoin::net
