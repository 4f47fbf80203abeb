#include "simcore/simulator.h"

#include <cassert>
#include <utility>

namespace quasaq::sim {

EventId Simulator::ScheduleAt(SimTime when, EventCallback callback) {
  assert(callback);
  if (when < now_) when = now_;
  EventId id = next_id_++;
  queue_.push(Entry{when, id, std::move(callback)});
  pending_.insert(id);
  return id;
}

EventId Simulator::ScheduleAfter(SimTime delay, EventCallback callback) {
  assert(delay >= 0);
  return ScheduleAt(now_ + delay, std::move(callback));
}

bool Simulator::Cancel(EventId id) {
  // Lazy deletion: the queue entry stays and is skipped when popped.
  return pending_.erase(id) > 0;
}

bool Simulator::Step() {
  while (!queue_.empty()) {
    Entry entry = queue_.top();
    queue_.pop();
    if (pending_.erase(entry.id) == 0) continue;  // cancelled
    assert(entry.when >= now_);
    now_ = entry.when;
    ++executed_;
    entry.callback();
    return true;
  }
  return false;
}

void Simulator::RunUntil(SimTime until) {
  while (!queue_.empty()) {
    const Entry& top = queue_.top();
    if (!pending_.contains(top.id)) {  // cancelled
      queue_.pop();
      continue;
    }
    if (top.when > until) break;
    Step();
  }
  if (now_ < until) now_ = until;
}

void Simulator::RunAll() {
  while (Step()) {
  }
}

PeriodicTask::PeriodicTask(Simulator* simulator, SimTime period,
                           EventCallback callback)
    : simulator_(simulator), period_(period), callback_(std::move(callback)) {
  assert(simulator_ != nullptr);
  assert(period_ > 0);
  assert(callback_);
  Arm();
}

PeriodicTask::~PeriodicTask() { Stop(); }

void PeriodicTask::Stop() {
  if (stopped_) return;
  stopped_ = true;
  if (pending_ != kInvalidEventId) simulator_->Cancel(pending_);
  pending_ = kInvalidEventId;
}

void PeriodicTask::Arm() {
  pending_ = simulator_->ScheduleAfter(period_, [this] {
    if (stopped_) return;
    // Re-arm before running so the callback may Stop() this task.
    Arm();
    callback_();
  });
}

}  // namespace quasaq::sim
