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
  for (const BucketId& bucket : pool_->Buckets()) {
    GaugeFor(bucket);
  }
}

obs::Gauge* PoolTelemetry::GaugeFor(const BucketId& bucket) {
  const size_t slot = ResourcePool::Slot(bucket);
  if (slot >= gauges_.size()) gauges_.resize(slot + 1, nullptr);
  obs::Gauge*& gauge = gauges_[slot];
  if (gauge != nullptr) return gauge;
  gauge = registry_->GetGauge(
      "quasaq_resource_utilization_ratio",
      "Bucket fill U_i / R_i the LRB cost model reads",
      {{"site", std::to_string(bucket.site.value())},
       {"kind", std::string(ResourceKindName(bucket.kind))}});
  return gauge;
}

void PoolTelemetry::Sample(SimTime now) {
  // After Prime every bucket's gauge is resolved, so GaugeFor never
  // mutates gauges_.
  for (const auto& [bucket, utilization] : pool_->UtilizationSnapshot()) {
    GaugeFor(bucket)->Sample(now, utilization);
  }
}

}  // namespace quasaq::res
