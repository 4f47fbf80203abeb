#ifndef QUASAQ_SIMCORE_SIMULATOR_H_
#define QUASAQ_SIMCORE_SIMULATOR_H_

#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_set>
#include <vector>

#include "common/sim_time.h"

// Discrete-event simulation engine. The entire QuaSAQ testbed —
// CPU schedulers, network links, streaming sessions, query arrivals —
// runs on one Simulator so that every reported quantity is a function of
// reproducible simulated time.

namespace quasaq::sim {

using EventCallback = std::function<void()>;

// Handle for a scheduled event; valid ids are positive.
using EventId = int64_t;
inline constexpr EventId kInvalidEventId = 0;

// Time-ordered event executor. Events at the same timestamp run in
// scheduling order (FIFO), which keeps runs deterministic.
//
// Not thread-safe; each experiment owns one Simulator.
class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Returns the current simulated time.
  SimTime Now() const { return now_; }

  /// Schedules `callback` at absolute time `when`; times in the past are
  /// clamped to Now(). Returns a handle usable with Cancel().
  EventId ScheduleAt(SimTime when, EventCallback callback);

  /// Schedules `callback` after `delay` (>= 0) from Now().
  EventId ScheduleAfter(SimTime delay, EventCallback callback);

  /// Cancels a pending event. Returns false if the event already ran,
  /// was cancelled, or never existed.
  bool Cancel(EventId id);

  /// Executes the next pending event, if any. Returns false when the
  /// queue is empty.
  bool Step();

  /// Runs events until the queue empties or the next event lies strictly
  /// after `until`; then advances the clock to `until`.
  void RunUntil(SimTime until);

  /// Runs until no events remain.
  void RunAll();

  /// Returns the number of pending (non-cancelled) events.
  size_t pending_events() const { return pending_.size(); }

  /// Returns the number of events executed so far.
  uint64_t executed_events() const { return executed_; }

 private:
  struct Entry {
    SimTime when;
    EventId id;
    EventCallback callback;

    friend bool operator>(const Entry& a, const Entry& b) {
      if (a.when != b.when) return a.when > b.when;
      return a.id > b.id;  // FIFO among equal timestamps
    }
  };

  SimTime now_ = 0;
  EventId next_id_ = 1;
  uint64_t executed_ = 0;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> queue_;
  // Ids scheduled but neither run nor cancelled; a popped entry whose id
  // is missing here was cancelled.
  std::unordered_set<EventId> pending_;
};

// Re-arms a callback at a fixed period until stopped. Used for quantum
// ticks, metric sampling, and background load.
class PeriodicTask {
 public:
  /// Runs `callback` every `period` starting at Now() + `period`.
  PeriodicTask(Simulator* simulator, SimTime period, EventCallback callback);
  ~PeriodicTask();

  PeriodicTask(const PeriodicTask&) = delete;
  PeriodicTask& operator=(const PeriodicTask&) = delete;

  /// Stops future firings; safe to call from within the callback.
  void Stop();
  bool stopped() const { return stopped_; }

 private:
  void Arm();

  Simulator* simulator_;
  SimTime period_;
  EventCallback callback_;
  EventId pending_ = kInvalidEventId;
  bool stopped_ = false;
};

}  // namespace quasaq::sim

#endif  // QUASAQ_SIMCORE_SIMULATOR_H_
