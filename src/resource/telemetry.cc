#include "resource/telemetry.h"

#include <cassert>
#include <string>
#include <vector>

namespace quasaq::res {

PoolTelemetry::PoolTelemetry(const ResourcePool* pool,
                             obs::MetricsRegistry* registry)
    : pool_(pool), registry_(registry) {
  assert(pool_ != nullptr);
  assert(registry_ != nullptr);
  Prime();
}

void PoolTelemetry::Prime() {
  pool_->ForEachFill([this](size_t slot, double) {
    if (!Resolved(slot)) Resolve(slot);
  });
}

void PoolTelemetry::Resolve(size_t slot) {
  if (slot >= series_.size()) series_.resize(slot + 1);
  const BucketId bucket = ResourcePool::BucketAt(slot);
  series_[slot].gauge = registry_->GetGauge(
      "quasaq_resource_utilization_ratio",
      "Bucket fill U_i / R_i the LRB cost model reads",
      {{"site", std::to_string(bucket.site.value())},
       {"kind", std::string(ResourceKindName(bucket.kind))}});
}

void PoolTelemetry::Sample(SimTime now) {
  pool_->ForEachFill([this, now](size_t slot, double fill) {
    // After Prime every declared bucket is resolved.
    if (!Resolved(slot)) Resolve(slot);
    Series& series = series_[slot];
    if (fill == series.last) return;
    series.last = fill;
    series.gauge->Sample(now, fill);
  });
}

}  // namespace quasaq::res
