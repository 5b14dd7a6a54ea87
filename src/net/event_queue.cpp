#include "dsjoin/net/event_queue.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace dsjoin::net {

std::uint32_t EventQueue::acquire_slot() {
  if (free_slots_.empty()) {
    slab_.emplace_back();
    return static_cast<std::uint32_t>(slab_.size() - 1);
  }
  const std::uint32_t slot = free_slots_.back();
  free_slots_.pop_back();
  return slot;
}

void EventQueue::push(SimTime when, std::uint32_t slot, bool barrier) {
  assert(when >= now_ && "cannot schedule into the past");
  heap_.push_back(Key{when < now_ ? now_ : when, next_sequence_++, slot, barrier});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

void EventQueue::schedule_at(SimTime when, Callback fn) {
  const std::uint32_t slot = acquire_slot();
  slab_[slot].fn = std::move(fn);
  push(when, slot, false);
}

void EventQueue::schedule_barrier_at(SimTime when, Callback fn) {
  const std::uint32_t slot = acquire_slot();
  slab_[slot].fn = std::move(fn);
  push(when, slot, true);
}

void EventQueue::schedule_delivery_at(SimTime when,
                                      const DeliveryHandler* handler,
                                      Frame&& frame) {
  const std::uint32_t slot = acquire_slot();
  Record& record = slab_[slot];
  record.handler = handler;
  record.frame = std::move(frame);
  push(when, slot, false);
}

bool EventQueue::run_one() {
  if (heap_.empty()) return false;
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Key key = heap_.back();
  heap_.pop_back();
  now_ = key.when;
  // Move the event out and free its slot before running it: the event may
  // schedule more, which can reuse the slot or grow the slab.
  Record& record = slab_[key.slot];
  if (record.handler != nullptr) {
    const DeliveryHandler* handler = std::exchange(record.handler, nullptr);
    Frame frame = std::move(record.frame);
    free_slots_.push_back(key.slot);
    (*handler)(std::move(frame));
  } else {
    Callback fn = std::move(record.fn);
    free_slots_.push_back(key.slot);
    fn();
  }
  return true;
}

std::size_t EventQueue::run_all(std::size_t max_events) {
  std::size_t executed = 0;
  while (executed < max_events && run_one()) ++executed;
  return executed;
}

}  // namespace dsjoin::net
