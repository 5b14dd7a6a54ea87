#include "dsjoin/net/event_queue.hpp"

#include <cassert>
#include <utility>

namespace dsjoin::net {

void EventQueue::schedule_at(SimTime when, Callback fn) {
  assert(when >= now_ && "cannot schedule into the past");
  heap_.push(Event{when < now_ ? now_ : when, next_sequence_++, false,
                   std::move(fn)});
}

void EventQueue::schedule_barrier_at(SimTime when, Callback fn) {
  assert(when >= now_ && "cannot schedule into the past");
  heap_.push(Event{when < now_ ? now_ : when, next_sequence_++, true,
                   std::move(fn)});
}

bool EventQueue::run_one() {
  if (heap_.empty()) return false;
  // priority_queue::top() is const; the callback must be moved out, so copy
  // the handle and pop before invoking (the callback may schedule more).
  Event ev = std::move(const_cast<Event&>(heap_.top()));
  heap_.pop();
  now_ = ev.when;
  ev.fn();
  return true;
}

std::size_t EventQueue::run_all(std::size_t max_events) {
  std::size_t executed = 0;
  while (executed < max_events && run_one()) ++executed;
  return executed;
}

}  // namespace dsjoin::net
