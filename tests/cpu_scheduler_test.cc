#include "resource/cpu_scheduler.h"

#include <vector>

#include <gtest/gtest.h>

namespace quasaq::res {
namespace {

// Options with no context-switch cost so timings are exact.
TimeSharingCpuScheduler::Options ExactOptions() {
  TimeSharingCpuScheduler::Options options;
  options.context_switch_ms = 0.0;
  return options;
}

TEST(WorkQueueTaskTest, SubmitAndCompleteSingleItem) {
  sim::Simulator simulator;
  TimeSharingCpuScheduler scheduler(&simulator, ExactOptions());
  WorkQueueTask task(&scheduler);
  scheduler.AddTask(&task);
  SimTime completed_at = -1;
  task.Submit(5.0, [&](SimTime t) { completed_at = t; });
  simulator.RunAll();
  EXPECT_EQ(completed_at, MillisToSimTime(5.0));
  EXPECT_EQ(task.queued_items(), 0u);
}

TEST(WorkQueueTaskTest, PendingWorkSumsItems) {
  sim::Simulator simulator;
  TimeSharingCpuScheduler scheduler(&simulator, ExactOptions());
  WorkQueueTask task(&scheduler);
  // Not registered with AddTask: work only accumulates.
  task.Submit(2.0, nullptr);
  task.Submit(3.0, nullptr);
  EXPECT_DOUBLE_EQ(task.PendingWorkMs(), 5.0);
  EXPECT_EQ(task.queued_items(), 2u);
}

TEST(WorkQueueTaskTest, FifoCompletionOrder) {
  sim::Simulator simulator;
  TimeSharingCpuScheduler scheduler(&simulator, ExactOptions());
  WorkQueueTask task(&scheduler);
  scheduler.AddTask(&task);
  std::vector<int> order;
  task.Submit(1.0, [&](SimTime) { order.push_back(1); });
  task.Submit(1.0, [&](SimTime) { order.push_back(2); });
  task.Submit(1.0, [&](SimTime) { order.push_back(3); });
  simulator.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(TimeSharingTest, LargeJobRunsInQuanta) {
  sim::Simulator simulator;
  TimeSharingCpuScheduler scheduler(&simulator, ExactOptions());
  WorkQueueTask task(&scheduler);
  scheduler.AddTask(&task);
  SimTime completed_at = -1;
  task.Submit(35.0, [&](SimTime t) { completed_at = t; });  // 4 quanta
  simulator.RunAll();
  EXPECT_EQ(completed_at, MillisToSimTime(35.0));
}

TEST(TimeSharingTest, RoundRobinInterleavesTasks) {
  sim::Simulator simulator;
  TimeSharingCpuScheduler scheduler(&simulator, ExactOptions());
  WorkQueueTask a(&scheduler);
  WorkQueueTask b(&scheduler);
  scheduler.AddTask(&a);
  scheduler.AddTask(&b);
  SimTime a_done = -1;
  SimTime b_done = -1;
  a.Submit(20.0, [&](SimTime t) { a_done = t; });
  b.Submit(20.0, [&](SimTime t) { b_done = t; });
  simulator.RunAll();
  // Interleaved 10ms quanta: a finishes at 30ms, b at 40ms.
  EXPECT_EQ(a_done, MillisToSimTime(30.0));
  EXPECT_EQ(b_done, MillisToSimTime(40.0));
}

TEST(TimeSharingTest, ShortJobWaitsForLongQuantumHolder) {
  sim::Simulator simulator;
  TimeSharingCpuScheduler scheduler(&simulator, ExactOptions());
  WorkQueueTask hog(&scheduler);
  WorkQueueTask interactive(&scheduler);
  scheduler.AddTask(&hog, /*quantum_ms=*/200.0);
  scheduler.AddTask(&interactive);
  hog.Submit(200.0, nullptr);
  simulator.RunUntil(MillisToSimTime(1.0));  // hog now holds the CPU
  SimTime done = -1;
  interactive.Submit(1.0, [&](SimTime t) { done = t; });
  simulator.RunAll();
  // The interactive task waits for the hog's full 200 ms quantum.
  EXPECT_EQ(done, MillisToSimTime(201.0));
}

TEST(TimeSharingTest, IdleCpuServesNewWorkImmediately) {
  sim::Simulator simulator;
  TimeSharingCpuScheduler scheduler(&simulator, ExactOptions());
  WorkQueueTask task(&scheduler);
  scheduler.AddTask(&task);
  simulator.RunUntil(MillisToSimTime(100.0));
  SimTime done = -1;
  task.Submit(2.0, [&](SimTime t) { done = t; });
  simulator.RunAll();
  EXPECT_EQ(done, MillisToSimTime(102.0));
}

TEST(TimeSharingTest, RemoveTaskDropsItsWork) {
  sim::Simulator simulator;
  TimeSharingCpuScheduler scheduler(&simulator, ExactOptions());
  WorkQueueTask keeper(&scheduler);
  scheduler.AddTask(&keeper);
  bool removed_completed = false;
  SimTime keeper_done = -1;
  {
    WorkQueueTask removed(&scheduler);
    scheduler.AddTask(&removed);
    removed.Submit(50.0, [&](SimTime) { removed_completed = true; });
    keeper.Submit(5.0, [&](SimTime t) { keeper_done = t; });
    // Destructor unregisters `removed` mid-quantum.
  }
  simulator.RunAll();
  EXPECT_FALSE(removed_completed);
  EXPECT_GE(keeper_done, 0);
}

TEST(ReservationTest, AdmissionEnforcesCapacity) {
  sim::Simulator simulator;
  ReservationCpuScheduler::Options options;
  options.reservable_fraction = 0.9;
  options.scheduler_overhead_fraction = 0.1;
  ReservationCpuScheduler scheduler(&simulator, options);
  WorkQueueTask a(&scheduler);
  WorkQueueTask b(&scheduler);
  WorkQueueTask c(&scheduler);
  EXPECT_TRUE(scheduler.AddReservedTask(&a, 0.5).ok());
  EXPECT_TRUE(scheduler.AddReservedTask(&b, 0.3).ok());
  // 0.5 + 0.3 + 0.1 > 0.9 - 0.1 reservable.
  EXPECT_EQ(scheduler.AddReservedTask(&c, 0.1).code(),
            StatusCode::kResourceExhausted);
  EXPECT_NEAR(scheduler.reserved_fraction(), 0.8, 1e-12);
}

TEST(ReservationTest, RejectsNonPositiveReservation) {
  sim::Simulator simulator;
  ReservationCpuScheduler scheduler(&simulator,
                                    ReservationCpuScheduler::Options());
  WorkQueueTask task(&scheduler);
  EXPECT_EQ(scheduler.AddReservedTask(&task, 0.0).code(),
            StatusCode::kInvalidArgument);
}

TEST(ReservationTest, ReservedWorkServedPromptly) {
  sim::Simulator simulator;
  ReservationCpuScheduler::Options options;
  options.max_dispatch_latency_ms = 0.0;
  ReservationCpuScheduler scheduler(&simulator, options);
  WorkQueueTask task(&scheduler);
  ASSERT_TRUE(scheduler.AddReservedTask(&task, 0.1).ok());
  SimTime done = -1;
  task.Submit(3.0, [&](SimTime t) { done = t; });
  simulator.RunAll();
  EXPECT_EQ(done, MillisToSimTime(3.0));
}

TEST(ReservationTest, IndependentTasksDoNotDelayEachOther) {
  sim::Simulator simulator;
  ReservationCpuScheduler::Options options;
  options.max_dispatch_latency_ms = 0.0;
  ReservationCpuScheduler scheduler(&simulator, options);
  WorkQueueTask a(&scheduler);
  WorkQueueTask b(&scheduler);
  ASSERT_TRUE(scheduler.AddReservedTask(&a, 0.3).ok());
  ASSERT_TRUE(scheduler.AddReservedTask(&b, 0.3).ok());
  SimTime a_done = -1;
  SimTime b_done = -1;
  a.Submit(5.0, [&](SimTime t) { a_done = t; });
  b.Submit(5.0, [&](SimTime t) { b_done = t; });
  simulator.RunAll();
  EXPECT_EQ(a_done, MillisToSimTime(5.0));
  EXPECT_EQ(b_done, MillisToSimTime(5.0));
}

TEST(ReservationTest, WorkArrivingWhileBusyIsServedNext) {
  sim::Simulator simulator;
  ReservationCpuScheduler::Options options;
  options.max_dispatch_latency_ms = 0.0;
  ReservationCpuScheduler scheduler(&simulator, options);
  WorkQueueTask task(&scheduler);
  ASSERT_TRUE(scheduler.AddReservedTask(&task, 0.1).ok());
  std::vector<SimTime> completions;
  task.Submit(4.0, [&](SimTime t) { completions.push_back(t); });
  simulator.ScheduleAt(MillisToSimTime(1.0), [&] {
    task.Submit(2.0, [&](SimTime t) { completions.push_back(t); });
  });
  simulator.RunAll();
  ASSERT_EQ(completions.size(), 2u);
  EXPECT_EQ(completions[0], MillisToSimTime(4.0));
  EXPECT_EQ(completions[1], MillisToSimTime(6.0));
}

TEST(ReservationTest, RemoveTaskFreesReservation) {
  sim::Simulator simulator;
  ReservationCpuScheduler scheduler(&simulator,
                                    ReservationCpuScheduler::Options());
  {
    WorkQueueTask task(&scheduler);
    ASSERT_TRUE(scheduler.AddReservedTask(&task, 0.5).ok());
    EXPECT_NEAR(scheduler.reserved_fraction(), 0.5, 1e-12);
  }
  EXPECT_NEAR(scheduler.reserved_fraction(), 0.0, 1e-12);
}

TEST(ReservationTest, DispatchLatencyIsBounded) {
  sim::Simulator simulator;
  ReservationCpuScheduler::Options options;
  options.max_dispatch_latency_ms = 0.2;
  ReservationCpuScheduler scheduler(&simulator, options);
  WorkQueueTask task(&scheduler);
  ASSERT_TRUE(scheduler.AddReservedTask(&task, 0.1).ok());
  for (int i = 0; i < 20; ++i) {
    SimTime submitted = simulator.Now();
    SimTime done = -1;
    task.Submit(1.0, [&](SimTime t) { done = t; });
    simulator.RunAll();
    SimTime elapsed = done - submitted;
    EXPECT_GE(elapsed, MillisToSimTime(1.0));
    EXPECT_LE(elapsed, MillisToSimTime(1.2) + 1);
  }
}

}  // namespace
}  // namespace quasaq::res
