#include "dsjoin/net/event_queue.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace dsjoin::net {
namespace {

TEST(EventQueue, StartsEmptyAtTimeZero) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.now(), 0.0);
  EXPECT_FALSE(q.run_one());
}

TEST(EventQueue, ExecutesInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(3.0, [&] { order.push_back(3); });
  q.schedule_at(1.0, [&] { order.push_back(1); });
  q.schedule_at(2.0, [&] { order.push_back(2); });
  q.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), 3.0);
}

TEST(EventQueue, TiesBreakByInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule_at(5.0, [&order, i] { order.push_back(i); });
  }
  q.run_all();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueue, CallbacksMayScheduleMore) {
  EventQueue q;
  int fired = 0;
  std::function<void()> chain = [&] {
    ++fired;
    if (fired < 5) q.schedule_at(q.now() + 1.0, chain);
  };
  q.schedule_at(0.5, chain);
  q.run_all();
  EXPECT_EQ(fired, 5);
  EXPECT_DOUBLE_EQ(q.now(), 4.5);
}

TEST(EventQueue, ScheduleInIsRelativeToNow) {
  EventQueue q;
  double fired_at = -1.0;
  q.schedule_at(10.0, [&] {
    q.schedule_at(q.now() + 2.5, [&] { fired_at = q.now(); });
  });
  q.run_all();
  EXPECT_DOUBLE_EQ(fired_at, 12.5);
}

TEST(EventQueue, RunAllHonoursMaxEvents) {
  EventQueue q;
  int fired = 0;
  for (int i = 0; i < 10; ++i) q.schedule_at(i, [&] { ++fired; });
  EXPECT_EQ(q.run_all(4), 4u);
  EXPECT_EQ(fired, 4);
  EXPECT_EQ(q.pending(), 6u);
}

TEST(EventQueue, NextWhenAndBarrierInspection) {
  EventQueue q;
  q.schedule_at(2.0, [] {});
  q.schedule_barrier_at(1.0, [] {});
  EXPECT_EQ(q.next_when(), 1.0);
  EXPECT_TRUE(q.next_is_barrier());
  EXPECT_TRUE(q.run_one());
  EXPECT_EQ(q.next_when(), 2.0);
  EXPECT_FALSE(q.next_is_barrier());
}

TEST(EventQueue, BarrierRunsAloneEvenWhenTied) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(1.0, [&] { order.push_back(0); });
  q.schedule_barrier_at(1.0, [&] { order.push_back(100); });
  q.schedule_at(1.0, [&] { order.push_back(1); });
  // The parallel driver's epoch loop: per-node work runs until the next
  // event is a barrier, which then runs alone.
  EXPECT_FALSE(q.next_is_barrier());
  EXPECT_TRUE(q.run_one());
  EXPECT_EQ(order, (std::vector<int>{0}));
  EXPECT_EQ(q.next_when(), 1.0);
  EXPECT_TRUE(q.next_is_barrier());
  EXPECT_TRUE(q.run_one());
  EXPECT_EQ(order, (std::vector<int>{0, 100}));
  EXPECT_FALSE(q.next_is_barrier());
  EXPECT_TRUE(q.run_one());
  EXPECT_EQ(order, (std::vector<int>{0, 100, 1}));
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, EventsScheduledDuringEpochJoinFollowingEpochs) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(1.0, [&] {
    order.push_back(1);
    // Same-time insertion keeps the epoch's timestamp and runs before
    // anything later.
    q.schedule_at(1.0, [&] { order.push_back(2); });
    q.schedule_at(3.0, [&] { order.push_back(3); });
  });
  EXPECT_TRUE(q.run_one());
  EXPECT_EQ(q.next_when(), 1.0);
  EXPECT_TRUE(q.run_one());
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(q.next_when(), 3.0);
  EXPECT_TRUE(q.run_one());
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, ManyEventsStaySorted) {
  EventQueue q;
  double last = -1.0;
  bool monotone = true;
  // Insert in a scrambled order.
  for (int i = 0; i < 1000; ++i) {
    const double t = static_cast<double>((i * 7919) % 1000);
    q.schedule_at(t, [&, t] {
      if (t < last) monotone = false;
      last = t;
    });
  }
  q.run_all();
  EXPECT_TRUE(monotone);
}

}  // namespace
}  // namespace dsjoin::net
