#ifndef QUASAQ_RESOURCE_TELEMETRY_H_
#define QUASAQ_RESOURCE_TELEMETRY_H_

#include <vector>

#include "common/resource_vector.h"
#include "common/sim_time.h"
#include "obs/metrics.h"
#include "resource/pool.h"

// Resource telemetry exposition: samples every declared (site, kind)
// bucket's utilization U_i / R_i into a labeled gauge family, each
// series keeping its own bounded TimeSeries history. Sampling is
// event-driven — the facade samples on every session start and
// completion (the only moments utilization moves), and harnesses may
// additionally drive Sample() from a periodic simulator task. A
// free-running background sampler is deliberately not provided: the
// simulator's RunAll() runs until the event queue drains, so a
// self-rescheduling task would never let it terminate.

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

  /// Records one utilization sample per declared bucket at `now`.
  void Sample(SimTime now);

 private:
  // Resolves (declaring on first sight) the gauge series for `bucket`.
  obs::Gauge* GaugeFor(const BucketId& bucket);

  const ResourcePool* pool_;
  obs::MetricsRegistry* registry_;
  // Buckets are never undeclared, so resolved series pointers are
  // cached for the pool's lifetime. Indexed by ResourcePool::Slot;
  // nullptr marks a bucket not yet resolved.
  std::vector<obs::Gauge*> gauges_;
};

}  // namespace quasaq::res

#endif  // QUASAQ_RESOURCE_TELEMETRY_H_
