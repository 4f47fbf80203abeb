#ifndef QUASAQ_RESOURCE_TELEMETRY_H_
#define QUASAQ_RESOURCE_TELEMETRY_H_

#include <limits>
#include <vector>

#include "common/resource_vector.h"
#include "common/sim_time.h"
#include "obs/metrics.h"
#include "resource/pool.h"

// Resource telemetry exposition: samples every declared (site, kind)
// bucket's utilization U_i / R_i into a labeled gauge family, each
// series keeping its own bounded TimeSeries history. A history holds one
// point per change: a bucket is recorded on its first sample and then
// only when its utilization differs from the last value its series
// recorded, so the history is the utilization's step function and
// ValueAt reads the same at every time as a sample per event would.
// Sampling is event-driven — the facade samples after every operation
// that acquires or releases resources (admission, renegotiation,
// cancel, pause, resume and completion), and harnesses may additionally
// drive Sample() from a periodic simulator task. A free-running
// background sampler is deliberately not provided: the simulator's
// RunAll() runs until the event queue drains, so a self-rescheduling
// task would never let it terminate.
//
// Thread-compatible, like the pool it reads: callers serialize Sample
// (in a MediaDbSystem, the facade lock or the simulator rule does).

namespace quasaq::res {

class PoolTelemetry {
 public:
  /// Both pointers must outlive the telemetry object. Gauge series for
  /// every bucket already declared are resolved here (see Prime), so a
  /// telemetry object built after pool setup samples without ever
  /// touching the registry again.
  PoolTelemetry(const ResourcePool* pool, obs::MetricsRegistry* registry);

  /// Resolves the gauge series of every currently declared bucket.
  /// Call again after declaring buckets post-construction; afterwards
  /// Sample never touches the registry.
  void Prime();

  /// Records at `now` the utilization of every declared bucket that was
  /// never sampled or has changed since its last recorded value.
  void Sample(SimTime now);

 private:
  struct Series {
    obs::Gauge* gauge = nullptr;  // nullptr until resolved
    // The value last recorded; NaN differs from every fill, so a
    // bucket's first sample is always recorded.
    double last = std::numeric_limits<double>::quiet_NaN();
  };

  bool Resolved(size_t slot) const {
    return slot < series_.size() && series_[slot].gauge != nullptr;
  }
  // Resolves (declaring on first sight) the gauge series of the bucket
  // at `slot`.
  void Resolve(size_t slot);

  const ResourcePool* pool_;
  obs::MetricsRegistry* registry_;
  // Buckets are never undeclared, so resolved series are kept for the
  // pool's lifetime. Indexed by ResourcePool::Slot.
  std::vector<Series> series_;
};

}  // namespace quasaq::res

#endif  // QUASAQ_RESOURCE_TELEMETRY_H_
