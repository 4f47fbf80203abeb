#include "resource/cpu_scheduler.h"

#include <algorithm>
#include <cassert>

namespace quasaq::res {

namespace {
// Work below this many CPU-ms counts as drained.
constexpr double kWorkEpsilonMs = 1e-9;
}  // namespace

// ---------------------------------------------------------------------------
// TimeSharingCpuScheduler

TimeSharingCpuScheduler::TimeSharingCpuScheduler(sim::Simulator* simulator,
                                                 const Options& options)
    : simulator_(simulator), options_(options) {
  assert(simulator_ != nullptr);
  assert(options_.quantum_ms > 0.0);
}

void TimeSharingCpuScheduler::AddTask(CpuTask* task, double quantum_ms) {
  assert(task != nullptr);
  tasks_.push_back(
      TaskEntry{task, quantum_ms > 0.0 ? quantum_ms : options_.quantum_ms});
}

void TimeSharingCpuScheduler::NotifyWorkArrived(CpuTask* task) {
  (void)task;  // round-robin does not prioritize the notifier
  if (!busy_) Dispatch();
}

void TimeSharingCpuScheduler::RemoveTask(CpuTask* task) {
  auto it = std::find_if(tasks_.begin(), tasks_.end(),
                         [task](const TaskEntry& e) { return e.task == task; });
  if (it == tasks_.end()) return;
  size_t index = static_cast<size_t>(it - tasks_.begin());
  tasks_.erase(it);
  if (cursor_ > index) --cursor_;
  if (!tasks_.empty()) cursor_ %= tasks_.size();
}

void TimeSharingCpuScheduler::Dispatch() {
  const size_t n = tasks_.size();
  CpuTask* chosen = nullptr;
  double quantum_ms = options_.quantum_ms;
  for (size_t k = 0; k < n; ++k) {
    size_t index = (cursor_ + k) % n;
    if (tasks_[index].task->PendingWorkMs() > kWorkEpsilonMs) {
      chosen = tasks_[index].task;
      quantum_ms = tasks_[index].quantum_ms;
      cursor_ = (index + 1) % n;
      break;
    }
  }
  if (chosen == nullptr) {
    busy_ = false;
    return;
  }
  busy_ = true;
  double work_ms = std::min(quantum_ms, chosen->PendingWorkMs());
  SimTime duration =
      MillisToSimTime(work_ms + options_.context_switch_ms);
  simulator_->ScheduleAfter(duration, [this, chosen, work_ms] {
    // The task may have been removed while its quantum ran.
    bool present = std::find_if(tasks_.begin(), tasks_.end(),
                                [chosen](const TaskEntry& e) {
                                  return e.task == chosen;
                                }) != tasks_.end();
    if (present) chosen->OnWorkExecuted(work_ms, simulator_->Now());
    Dispatch();
  });
}

// ---------------------------------------------------------------------------
// ReservationCpuScheduler

ReservationCpuScheduler::ReservationCpuScheduler(sim::Simulator* simulator,
                                                 const Options& options)
    : simulator_(simulator), options_(options), rng_(options.seed) {
  assert(simulator_ != nullptr);
}

Status ReservationCpuScheduler::AddReservedTask(CpuTask* task,
                                                double cpu_fraction) {
  assert(task != nullptr);
  if (cpu_fraction <= 0.0) {
    return Status::InvalidArgument("non-positive CPU reservation");
  }
  if (reserved_ + cpu_fraction > reservable_fraction() + 1e-12) {
    return Status::ResourceExhausted("CPU reservation capacity exceeded");
  }
  reserved_ += cpu_fraction;
  tasks_.push_back(TaskState{task, cpu_fraction, false});
  return Status::Ok();
}

void ReservationCpuScheduler::NotifyWorkArrived(CpuTask* task) {
  for (size_t i = 0; i < tasks_.size(); ++i) {
    if (tasks_[i].task == task) {
      Serve(i);
      return;
    }
  }
}

void ReservationCpuScheduler::RemoveTask(CpuTask* task) {
  for (auto it = tasks_.begin(); it != tasks_.end(); ++it) {
    if (it->task == task) {
      reserved_ -= it->fraction;
      if (reserved_ < 0.0) reserved_ = 0.0;
      tasks_.erase(it);
      return;
    }
  }
}

void ReservationCpuScheduler::Serve(size_t index) {
  TaskState& state = tasks_[index];
  if (state.busy) return;
  double pending = state.task->PendingWorkMs();
  if (pending <= kWorkEpsilonMs) return;
  state.busy = true;
  // Reserved work is served at full CPU speed after a bounded dispatch
  // latency; admission control guarantees global feasibility (fluid
  // approximation of DSRT's slice-per-period service).
  double latency_ms = rng_.Uniform(0.0, options_.max_dispatch_latency_ms);
  CpuTask* task = state.task;
  SimTime duration = MillisToSimTime(pending + latency_ms);
  simulator_->ScheduleAfter(duration, [this, task, pending] {
    for (size_t i = 0; i < tasks_.size(); ++i) {
      if (tasks_[i].task != task) continue;
      tasks_[i].busy = false;
      task->OnWorkExecuted(pending, simulator_->Now());
      // Work may have accumulated while this batch executed.
      Serve(i);
      return;
    }
  });
}

// ---------------------------------------------------------------------------
// WorkQueueTask

WorkQueueTask::WorkQueueTask(CpuScheduler* scheduler)
    : scheduler_(scheduler) {
  assert(scheduler_ != nullptr);
}

WorkQueueTask::~WorkQueueTask() { scheduler_->RemoveTask(this); }

void WorkQueueTask::Submit(double work_ms, CompletionCallback on_complete) {
  assert(work_ms > 0.0);
  items_.push_back(Item{work_ms, std::move(on_complete)});
  scheduler_->NotifyWorkArrived(this);
}

double WorkQueueTask::PendingWorkMs() const {
  double total = 0.0;
  for (const Item& item : items_) total += item.remaining_ms;
  return total;
}

void WorkQueueTask::OnWorkExecuted(double work_ms, SimTime completion_time) {
  while (work_ms > kWorkEpsilonMs && !items_.empty()) {
    Item& front = items_.front();
    double consumed = std::min(front.remaining_ms, work_ms);
    front.remaining_ms -= consumed;
    work_ms -= consumed;
    if (front.remaining_ms <= kWorkEpsilonMs) {
      CompletionCallback callback = std::move(front.on_complete);
      items_.pop_front();
      if (callback) callback(completion_time);
    }
  }
}

}  // namespace quasaq::res
