#include "dsjoin/net/event_queue.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "dsjoin/net/sim_transport.hpp"

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

// A frame whose payload spells `tag`, so a delivery can be told apart.
Frame tagged(const std::string& tag) {
  Frame f;
  f.from = 0;
  f.to = 1;
  f.payload.assign(tag.begin(), tag.end());
  return f;
}

std::string tag_of(const Frame& f) {
  return std::string(f.payload.begin(), f.payload.end());
}

TEST(EventQueue, DeliveriesAndCallbacksTieInSchedulingOrder) {
  EventQueue q;
  std::vector<std::string> order;
  const DeliveryHandler handler = [&](Frame&& f) { order.push_back(tag_of(f)); };
  q.schedule_delivery_at(2.0, &handler, tagged("d0"));
  q.schedule_at(2.0, [&] { order.push_back("c1"); });
  q.schedule_at(1.0, [&] { order.push_back("early"); });
  q.schedule_delivery_at(2.0, &handler, tagged("d2"));
  q.schedule_at(2.0, [&] { order.push_back("c3"); });
  q.schedule_delivery_at(2.0, &handler, tagged("d4"));
  q.schedule_at(2.0, [&] { order.push_back("c5"); });
  EXPECT_EQ(q.run_all(), 7u);
  EXPECT_EQ(order, (std::vector<std::string>{"early", "d0", "c1", "d2", "c3",
                                             "d4", "c5"}));
}

TEST(EventQueue, EventScheduledWhileRunningReusesTheFreedSlotSafely) {
  EventQueue q;
  std::vector<std::string> order;
  DeliveryHandler handler;
  // Each delivery schedules a callback and a delivery of its own before it
  // reads its frame again: the new events take the slot it ran from, and
  // the frame in flight must be untouched by them.
  handler = [&](Frame&& f) {
    const std::string tag = tag_of(f);
    if (tag.size() < 4) {
      q.schedule_at(q.now(), [&order, tag] { order.push_back("after " + tag); });
      q.schedule_delivery_at(q.now() + 1.0, &handler, tagged(tag + "+"));
    }
    order.push_back(tag_of(f));
  };
  // A callback with a capture too large for std::function's inline buffer,
  // so its state lives on the heap and a reused slot would overwrite it.
  const std::string big(64, 'x');
  q.schedule_at(0.5, [&, big] {
    q.schedule_at(q.now(), [&] { order.push_back("nested"); });
    q.schedule_at(q.now() + 10.0, [&] { order.push_back("late"); });
    order.push_back(big.substr(0, 3));
  });
  q.schedule_delivery_at(1.0, &handler, tagged("a"));
  q.run_all();
  EXPECT_EQ(order,
            (std::vector<std::string>{"xxx", "nested", "a", "after a", "a+",
                                      "after a+", "a++", "after a++", "a+++",
                                      "late"}));
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, ReregisteredHandlerReceivesFramesInFlight) {
  EventQueue q;
  SimTransport transport(q, 2, WanProfile{}, 3);
  std::vector<std::string> first, second;
  transport.register_handler(0, [](Frame&&) {});
  transport.register_handler(1, [&](Frame&& f) { first.push_back(tag_of(f)); });
  ASSERT_TRUE(transport.send(tagged("early")));
  q.run_all();
  ASSERT_TRUE(transport.send(tagged("in flight 1")));
  ASSERT_TRUE(transport.send(tagged("in flight 2")));
  // A restart re-registers the node's handler while frames are queued.
  transport.register_handler(1, [&](Frame&& f) { second.push_back(tag_of(f)); });
  q.run_all();
  EXPECT_EQ(first, (std::vector<std::string>{"early"}));
  EXPECT_EQ(second, (std::vector<std::string>{"in flight 1", "in flight 2"}));
}

}  // namespace
}  // namespace dsjoin::net
