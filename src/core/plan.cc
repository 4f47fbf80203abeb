#include "core/plan.h"

#include <algorithm>
#include <cassert>
#include <cstdio>

namespace quasaq::core {

std::string Plan::ToString() const {
  std::string out = "oid" + std::to_string(replica_oid.value()) + "@site" +
                    std::to_string(source_site.value());
  if (IsRelayed()) {
    out += "->site" + std::to_string(delivery_site.value());
  }
  out += " ";
  out += media::FrameDropStrategyName(transform.drop);
  if (transform.transcode_target.has_value()) {
    out += " transcode(" +
           media::AppQosToString(*transform.transcode_target) + ")";
  }
  if (transform.encryption != media::EncryptionAlgorithm::kNone) {
    out += " ";
    out += media::EncryptionAlgorithmName(transform.encryption);
  }
  if (IsCacheServed()) {
    char buf[24];
    std::snprintf(buf, sizeof(buf), " cache(%.0f%%)", cache_fraction * 100.0);
    out += buf;
  }
  return out;
}

double DiskStartupSeconds(bool relayed, bool transcoded,
                          const PlanCostConstants& constants) {
  double seconds = constants.startup_base_seconds + constants.buffer_seconds;
  if (relayed) seconds += constants.startup_relay_seconds;
  if (transcoded) seconds += constants.startup_transcode_seconds;
  return seconds;
}

double RelayForwardCpu(const media::ReplicaInfo& replica,
                       const PlanCostConstants& constants) {
  net::StreamTransform plain;  // forwarding the stored bytes untouched
  return net::StreamCpuFraction(replica, plain, constants.streaming_cost) *
         constants.relay_cpu_factor;
}

void FinalizePlan(Plan& plan, const media::ReplicaInfo& replica,
                  const PlanCostConstants& constants) {
  net::StreamRates rates = net::ComputeStreamRates(
      replica,
      net::MakeTranscodeStage(replica, plan.transform.transcode_target),
      plan.transform.drop, constants.streaming_cost);
  double forward_cpu =
      plan.IsRelayed() ? RelayForwardCpu(replica, constants) : 0.0;
  FinalizePlan(plan, replica, rates, forward_cpu, constants);
}

void FinalizePlan(Plan& plan, const media::ReplicaInfo& replica,
                  const net::StreamRates& rates, double forward_cpu,
                  const PlanCostConstants& constants) {
  assert(replica.id == plan.replica_oid);
  assert(replica.site == plan.source_site);

  assert(plan.cache_fraction >= 0.0 && plan.cache_fraction <= 1.0);

  plan.delivered_qos = rates.delivered_qos;
  plan.wire_rate_kbps = rates.wire_rate_kbps;
  plan.startup_seconds =
      DiskStartupSeconds(plan.IsRelayed(),
                         plan.transform.transcode_target.has_value(),
                         constants);
  if (plan.IsCacheServed()) {
    plan.startup_seconds = std::max(
        plan.startup_seconds -
            constants.startup_cache_seconds * plan.cache_fraction,
        0.0);
  }

  ResourceVector resources;
  // Retrieval: sequential disk read at the stored bitrate, minus the
  // share served from the source site's segment cache — those bytes are
  // charged to the memory-bandwidth bucket instead.
  double disk_kbps = replica.bitrate_kbps * (1.0 - plan.cache_fraction);
  if (disk_kbps > 0.0) {
    resources.Add({plan.source_site, ResourceKind::kDiskBandwidth},
                  disk_kbps);
  }
  if (plan.IsCacheServed()) {
    resources.Add({plan.source_site, ResourceKind::kMemoryBandwidth},
                  replica.bitrate_kbps * plan.cache_fraction);
  }

  if (plan.IsRelayed()) {
    // Server-to-server transfer of the stored stream: outbound bandwidth
    // at the source plus a (cheaper) relay CPU share at both ends.
    resources.Add({plan.source_site, ResourceKind::kNetworkBandwidth},
                  replica.bitrate_kbps);
    resources.Add({plan.source_site, ResourceKind::kCpu}, forward_cpu);
    resources.Add({plan.delivery_site, ResourceKind::kCpu}, forward_cpu);
  }

  // Server activities + packetization run at the delivery site.
  resources.Add({plan.delivery_site, ResourceKind::kCpu},
                rates.CpuFraction(plan.transform.encryption));
  // Client-facing stream leaves the delivery site.
  resources.Add({plan.delivery_site, ResourceKind::kNetworkBandwidth},
                plan.wire_rate_kbps);
  // Staging buffers.
  resources.Add({plan.delivery_site, ResourceKind::kMemory},
                plan.wire_rate_kbps * constants.buffer_seconds);

  plan.resources = std::move(resources);
}

Plan CacheServedTwin(const Plan& disk_plan, const media::ReplicaInfo& replica,
                     double cache_fraction,
                     const PlanCostConstants& constants) {
  assert(!disk_plan.IsCacheServed());
  assert(cache_fraction > 0.0 && cache_fraction <= 1.0);
  Plan twin = disk_plan;
  twin.cache_fraction = cache_fraction;
  twin.startup_seconds = std::max(
      twin.startup_seconds - constants.startup_cache_seconds * cache_fraction,
      0.0);
  twin.resources.Set({twin.source_site, ResourceKind::kDiskBandwidth},
                     replica.bitrate_kbps * (1.0 - cache_fraction));
  twin.resources.Add({twin.source_site, ResourceKind::kMemoryBandwidth},
                     replica.bitrate_kbps * cache_fraction);
  return twin;
}

}  // namespace quasaq::core
