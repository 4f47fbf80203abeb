#ifndef QUASAQ_RESOURCE_CPU_SCHEDULER_H_
#define QUASAQ_RESOURCE_CPU_SCHEDULER_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "common/rng.h"
#include "common/sim_time.h"
#include "common/status.h"
#include "simcore/simulator.h"

// Frame-level CPU scheduling models — the mechanism behind Figure 5.
//
// TimeSharingCpuScheduler models the stock Solaris 2.6 time-sharing
// scheduler the original VDBMS ran on: a round-robin run queue with a
// 10 ms quantum. A streaming job "waits for its turn of CPU utilization
// most of the time; upon getting control it processes all the frames
// that are overdue" (paper §5.1) — which is exactly what emerges here.
//
// ReservationCpuScheduler models the DSRT soft-real-time user-level
// scheduler (QualMan) that QuaSAQ's Composite QoS API reserves CPU
// through: admitted tasks hold a CPU fraction and their work is served
// promptly and in isolation, at the price of a fixed dispatch overhead
// (0.4–0.8 ms per 10 ms reported by DSRT; 0.16 ms measured on the
// paper's hardware).

namespace quasaq::res {

// A consumer of CPU time. Tasks accumulate pending work (CPU-ms) and the
// scheduler calls back as it executes that work.
class CpuTask {
 public:
  virtual ~CpuTask() = default;

  /// CPU milliseconds of work currently pending.
  virtual double PendingWorkMs() const = 0;

  /// Informs the task that `work_ms` of its pending work finished
  /// executing at simulated time `completion_time`.
  virtual void OnWorkExecuted(double work_ms, SimTime completion_time) = 0;
};

// Scheduler interface shared by both CPU models.
class CpuScheduler {
 public:
  virtual ~CpuScheduler() = default;

  /// Must be called whenever a task's PendingWorkMs() increased.
  virtual void NotifyWorkArrived(CpuTask* task) = 0;

  /// Detaches a task; the scheduler never touches it again.
  virtual void RemoveTask(CpuTask* task) = 0;
};

// Round-robin time-sharing CPU (the "VDBMS without QoS" CPU).
class TimeSharingCpuScheduler : public CpuScheduler {
 public:
  struct Options {
    // Default time slice (Solaris TS gives interactive processes 10 ms).
    double quantum_ms = 10.0;
    double context_switch_ms = 0.05;   // per dispatch
  };

  TimeSharingCpuScheduler(sim::Simulator* simulator, const Options& options);

  /// Adds a best-effort task to the run queue. `quantum_ms` overrides
  /// the default time slice for this task: Solaris TS hands CPU-bound,
  /// priority-decayed processes much longer quanta (up to 200 ms), which
  /// is what starves interactive streaming jobs under contention.
  void AddTask(CpuTask* task, double quantum_ms = 0.0);

  void NotifyWorkArrived(CpuTask* task) override;
  void RemoveTask(CpuTask* task) override;

  size_t task_count() const { return tasks_.size(); }

 private:
  struct TaskEntry {
    CpuTask* task = nullptr;
    double quantum_ms = 10.0;
  };

  void Dispatch();

  sim::Simulator* simulator_;
  Options options_;
  std::vector<TaskEntry> tasks_;
  size_t cursor_ = 0;
  bool busy_ = false;
};

// Reservation-based CPU (the "QuaSAQ / DSRT" CPU). Each admitted task
// reserves a CPU fraction; admission keeps the sum within capacity net
// of the scheduler's own overhead. Admitted work is served eagerly with
// a small dispatch latency.
class ReservationCpuScheduler : public CpuScheduler {
 public:
  struct Options {
    // Fraction of the CPU the reservation scheduler may hand out.
    double reservable_fraction = 0.9;
    // The scheduler's own overhead, as a CPU fraction (paper: 1.6%).
    double scheduler_overhead_fraction = 0.016;
    // Dispatch latency per activation, uniform in [0, max].
    double max_dispatch_latency_ms = 0.2;
    uint64_t seed = 7;
  };

  ReservationCpuScheduler(sim::Simulator* simulator, const Options& options);

  /// Admits `task` with a reservation of `cpu_fraction` of the CPU.
  /// Fails with kResourceExhausted when the reservable capacity would be
  /// exceeded.
  Status AddReservedTask(CpuTask* task, double cpu_fraction);

  void NotifyWorkArrived(CpuTask* task) override;
  void RemoveTask(CpuTask* task) override;

  double reserved_fraction() const { return reserved_; }
  double reservable_fraction() const {
    return options_.reservable_fraction - options_.scheduler_overhead_fraction;
  }

 private:
  struct TaskState {
    CpuTask* task = nullptr;
    double fraction = 0.0;
    bool busy = false;
  };

  void Serve(size_t index);

  sim::Simulator* simulator_;
  Options options_;
  Rng rng_;
  std::vector<TaskState> tasks_;
  double reserved_ = 0.0;
};

// Helper CpuTask holding a FIFO of work items, each with a completion
// callback — the shape streaming sessions need (one item per frame).
// Partial execution is tracked across scheduler quanta.
class WorkQueueTask : public CpuTask {
 public:
  using CompletionCallback = std::function<void(SimTime)>;

  explicit WorkQueueTask(CpuScheduler* scheduler);
  ~WorkQueueTask() override;

  WorkQueueTask(const WorkQueueTask&) = delete;
  WorkQueueTask& operator=(const WorkQueueTask&) = delete;

  /// Enqueues `work_ms` of work; `on_complete` fires when the last of it
  /// has executed.
  void Submit(double work_ms, CompletionCallback on_complete);

  double PendingWorkMs() const override;
  void OnWorkExecuted(double work_ms, SimTime completion_time) override;

  size_t queued_items() const { return items_.size(); }

 private:
  struct Item {
    double remaining_ms = 0.0;
    CompletionCallback on_complete;
  };

  CpuScheduler* scheduler_;
  std::deque<Item> items_;
};

}  // namespace quasaq::res

#endif  // QUASAQ_RESOURCE_CPU_SCHEDULER_H_
