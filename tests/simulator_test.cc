#include "simcore/simulator.h"

#include <vector>

#include <gtest/gtest.h>

namespace quasaq::sim {
namespace {

TEST(SimulatorTest, StartsAtTimeZero) {
  Simulator simulator;
  EXPECT_EQ(simulator.Now(), 0);
  EXPECT_EQ(simulator.pending_events(), 0u);
}

TEST(SimulatorTest, ExecutesInTimeOrder) {
  Simulator simulator;
  std::vector<int> order;
  simulator.ScheduleAt(30, [&] { order.push_back(3); });
  simulator.ScheduleAt(10, [&] { order.push_back(1); });
  simulator.ScheduleAt(20, [&] { order.push_back(2); });
  simulator.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(simulator.Now(), 30);
  EXPECT_EQ(simulator.executed_events(), 3u);
}

TEST(SimulatorTest, EqualTimestampsRunFifo) {
  Simulator simulator;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    simulator.ScheduleAt(10, [&order, i] { order.push_back(i); });
  }
  simulator.RunAll();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SimulatorTest, PastTimesClampToNow) {
  Simulator simulator;
  simulator.ScheduleAt(100, [] {});
  simulator.RunAll();
  bool ran = false;
  simulator.ScheduleAt(50, [&ran] { ran = true; });  // in the past
  simulator.RunAll();
  EXPECT_TRUE(ran);
  EXPECT_EQ(simulator.Now(), 100);
}

TEST(SimulatorTest, ScheduleAfterUsesRelativeDelay) {
  Simulator simulator;
  SimTime fired_at = -1;
  simulator.ScheduleAt(40, [&] {
    simulator.ScheduleAfter(5, [&] { fired_at = simulator.Now(); });
  });
  simulator.RunAll();
  EXPECT_EQ(fired_at, 45);
}

TEST(SimulatorTest, CancelPreventsExecution) {
  Simulator simulator;
  bool ran = false;
  EventId id = simulator.ScheduleAt(10, [&ran] { ran = true; });
  EXPECT_TRUE(simulator.Cancel(id));
  simulator.RunAll();
  EXPECT_FALSE(ran);
}

TEST(SimulatorTest, CancelTwiceFails) {
  Simulator simulator;
  EventId id = simulator.ScheduleAt(10, [] {});
  EXPECT_TRUE(simulator.Cancel(id));
  EXPECT_FALSE(simulator.Cancel(id));
}

TEST(SimulatorTest, CancelUnknownIdFails) {
  Simulator simulator;
  EXPECT_FALSE(simulator.Cancel(kInvalidEventId));
  EXPECT_FALSE(simulator.Cancel(9999));
}

TEST(SimulatorTest, CancelAfterRunFails) {
  Simulator simulator;
  EventId id = simulator.ScheduleAt(10, [] {});
  simulator.RunAll();
  EXPECT_FALSE(simulator.Cancel(id));
  EXPECT_EQ(simulator.pending_events(), 0u);
}

TEST(SimulatorTest, RunUntilStopsBeforeLaterEvents) {
  Simulator simulator;
  std::vector<int> order;
  simulator.ScheduleAt(10, [&] { order.push_back(1); });
  simulator.ScheduleAt(30, [&] { order.push_back(2); });
  simulator.RunUntil(20);
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_EQ(simulator.Now(), 20);  // clock advances to the limit
  simulator.RunUntil(40);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(SimulatorTest, RunUntilExecutesEventAtBoundary) {
  Simulator simulator;
  bool ran = false;
  simulator.ScheduleAt(20, [&ran] { ran = true; });
  simulator.RunUntil(20);
  EXPECT_TRUE(ran);
}

TEST(SimulatorTest, EventsCanScheduleMoreEvents) {
  Simulator simulator;
  int count = 0;
  std::function<void()> chain = [&] {
    ++count;
    if (count < 10) simulator.ScheduleAfter(1, chain);
  };
  simulator.ScheduleAfter(1, chain);
  simulator.RunAll();
  EXPECT_EQ(count, 10);
  EXPECT_EQ(simulator.Now(), 10);
}

TEST(SimulatorTest, StepReturnsFalseWhenEmpty) {
  Simulator simulator;
  EXPECT_FALSE(simulator.Step());
}

TEST(SimulatorTest, PendingEventsExcludesCancelled) {
  Simulator simulator;
  EventId a = simulator.ScheduleAt(1, [] {});
  simulator.ScheduleAt(2, [] {});
  EXPECT_EQ(simulator.pending_events(), 2u);
  simulator.Cancel(a);
  EXPECT_EQ(simulator.pending_events(), 1u);
}

TEST(PeriodicTaskTest, FiresAtFixedPeriod) {
  Simulator simulator;
  std::vector<SimTime> firings;
  PeriodicTask task(&simulator, 10, [&] { firings.push_back(simulator.Now()); });
  simulator.RunUntil(35);
  task.Stop();
  EXPECT_EQ(firings, (std::vector<SimTime>{10, 20, 30}));
}

TEST(PeriodicTaskTest, StopPreventsFutureFirings) {
  Simulator simulator;
  int count = 0;
  PeriodicTask task(&simulator, 10, [&] { ++count; });
  simulator.RunUntil(15);
  task.Stop();
  simulator.RunUntil(100);
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(task.stopped());
}

TEST(PeriodicTaskTest, CanStopItselfFromCallback) {
  Simulator simulator;
  int count = 0;
  PeriodicTask* handle = nullptr;
  PeriodicTask task(&simulator, 10, [&] {
    ++count;
    if (count == 3) handle->Stop();
  });
  handle = &task;
  simulator.RunUntil(1000);
  EXPECT_EQ(count, 3);
}

TEST(PeriodicTaskTest, DestructorStops) {
  Simulator simulator;
  int count = 0;
  {
    PeriodicTask task(&simulator, 10, [&] { ++count; });
    simulator.RunUntil(10);
  }
  simulator.RunUntil(100);
  EXPECT_EQ(count, 1);
}

}  // namespace
}  // namespace quasaq::sim
