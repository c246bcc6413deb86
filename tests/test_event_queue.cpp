#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

namespace softcell {
namespace {

TEST(EventQueue, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.at(3.0, [&] { order.push_back(3); });
  q.at(1.0, [&] { order.push_back(1); });
  q.at(2.0, [&] { order.push_back(2); });
  EXPECT_EQ(q.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(q.now(), 3.0);
}

TEST(EventQueue, StableForEqualTimes) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) q.at(1.0, [&, i] { order.push_back(i); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, AfterSchedulesRelative) {
  EventQueue q;
  double fired_at = -1;
  q.at(2.0, [&] { q.after(0.5, [&] { fired_at = q.now(); }); });
  q.run();
  EXPECT_DOUBLE_EQ(fired_at, 2.5);
}

TEST(EventQueue, RejectsPastScheduling) {
  EventQueue q;
  q.at(5.0, [] {});
  q.run();
  EXPECT_THROW(q.at(1.0, [] {}), std::invalid_argument);
}

TEST(EventQueue, RunUntilLeavesLaterEvents) {
  EventQueue q;
  int ran = 0;
  q.at(1.0, [&] { ++ran; });
  q.at(2.0, [&] { ++ran; });
  q.at(3.0, [&] { ++ran; });
  EXPECT_EQ(q.run_until(2.5), 2u);
  EXPECT_EQ(ran, 2);
  EXPECT_DOUBLE_EQ(q.now(), 2.5);
  EXPECT_EQ(q.pending(), 1u);
}

TEST(EventQueue, RunUntilRejectsThePast) {
  // A run_until(t) with t < now() must not set the clock back: at() would
  // then accept events earlier than ones that already ran.
  EventQueue q;
  q.at(5.0, [] {});
  q.run();
  EXPECT_THROW(q.run_until(1.0), std::invalid_argument);
  EXPECT_DOUBLE_EQ(q.now(), 5.0);
  EXPECT_THROW(q.at(2.0, [] {}), std::invalid_argument);
  EXPECT_EQ(q.run_until(5.0), 0u);  // t == now() is allowed
  EXPECT_DOUBLE_EQ(q.now(), 5.0);
}

TEST(EventQueue, EventsCanScheduleEvents) {
  EventQueue q;
  int depth = 0;
  std::function<void()> recur = [&] {
    if (++depth < 10) q.after(1.0, recur);
  };
  q.at(0.0, recur);
  EXPECT_EQ(q.run(), 10u);
  EXPECT_EQ(depth, 10);
  EXPECT_DOUBLE_EQ(q.now(), 9.0);
}

TEST(EventQueue, RunCountsEveryCallbackOfAWheelTick) {
  // Three timers on one 1 ms tick run in one scheduling step; run() counts
  // callbacks, so it reports them all (and the heap event), not two steps.
  EventQueue q;
  int fired = 0;
  for (int i = 0; i < 3; ++i) q.timer_at(0.010, [&] { ++fired; });
  q.at(0.005, [&] { ++fired; });
  EXPECT_EQ(q.run(), 4u);
  EXPECT_EQ(fired, 4);

  // The cap counts callbacks too.  A tick's timers run together, so run(2)
  // stops after the first step that reaches two callbacks.
  EventQueue capped;
  int capped_fired = 0;
  for (int i = 0; i < 3; ++i)
    capped.timer_at(0.010, [&] { ++capped_fired; });
  capped.timer_at(0.020, [&] { ++capped_fired; });
  EXPECT_EQ(capped.run(2), 3u);
  EXPECT_EQ(capped_fired, 3);
  EXPECT_EQ(capped.timers_pending(), 1u);
  EXPECT_EQ(capped.run(), 1u);
}

TEST(EventQueue, RunWithCap) {
  EventQueue q;
  int ran = 0;
  for (int i = 0; i < 10; ++i) q.at(i, [&] { ++ran; });
  EXPECT_EQ(q.run(4), 4u);
  EXPECT_EQ(ran, 4);
  EXPECT_EQ(q.pending(), 6u);
}

}  // namespace
}  // namespace softcell
