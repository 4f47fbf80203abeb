#ifndef QUASAQ_CORE_PLAN_H_
#define QUASAQ_CORE_PLAN_H_

#include <string>

#include "common/ids.h"
#include "common/resource_vector.h"
#include "media/video.h"
#include "net/rtp.h"

// QoS-aware execution plans (paper §3.4). A plan is one ordered choice
// from the disjoint activity sets:
//   A1 object retrieval — which physical replica,
//   A2 target site      — which server streams to the client,
//   A3 frame dropping   — runtime adaptation strategy,
//   A4 transcoding      — online format/quality conversion,
//   A5 encryption       — stream protection.
// Each plan carries the resource vector the Plan Generator computed for
// it; the Runtime Cost Evaluator ranks plans by costing that vector
// against current bucket usage.

namespace quasaq::core {

struct Plan {
  // A1: the chosen physical copy and the site storing it.
  PhysicalOid replica_oid;
  SiteId source_site;
  // A2: the site that performs the server activities and streams to the
  // client. When it differs from source_site the object is relayed
  // across the server network first (Fig. 2's solid-line example).
  SiteId delivery_site;
  // A3–A5.
  net::StreamTransform transform;
  // Fraction of the replica's bytes retrieved from the source site's
  // in-memory segment cache instead of disk (src/cache/). Plan variants
  // with a positive fraction swap that share of disk bandwidth for the
  // (far larger) memory-bandwidth bucket, so the cost evaluator ranks
  // them ahead of disk-bound plans whenever the disk is the hot bucket.
  double cache_fraction = 0.0;

  // --- Derived by FinalizePlan ---------------------------------------
  // Quality the client observes (after transcode and frame dropping).
  media::AppQos delivered_qos;
  // Average bytes/second on the client-facing wire.
  double wire_rate_kbps = 0.0;
  // Estimated startup latency before the first frame plays at the
  // client — the plan-dependent part of Table 1's Time Guarantee.
  double startup_seconds = 0.0;
  // Everything the plan consumes while it runs.
  ResourceVector resources;

  bool IsRelayed() const { return source_site != delivery_site; }
  bool IsCacheServed() const { return cache_fraction > 0.0; }

  /// Renders e.g. "oid7@site1 ->site0 half-B transcode(352x288/...) enc2".
  std::string ToString() const;
};

// Cost-model constants shared by plan finalization and execution.
struct PlanCostConstants {
  media::StreamingCpuCost streaming_cost;
  // CPU of relaying a stream between servers, as a fraction of the
  // plain streaming cost of the same bytes.
  double relay_cpu_factor = 0.25;
  // Staging buffer at the delivery site, seconds of wire rate.
  double buffer_seconds = 2.0;
  // Startup-latency model: fixed session setup, extra setup per relay
  // hop, online-transcoder pipeline warmup, and the client's startup
  // buffer (one buffer_seconds' worth of media must arrive first).
  double startup_base_seconds = 0.5;
  double startup_relay_seconds = 0.3;
  double startup_transcode_seconds = 1.0;
  // Startup saved by a fully cache-served retrieval (no disk seek /
  // read-ahead before the first frame); scaled by the cache fraction.
  double startup_cache_seconds = 0.2;
};

/// Fills the derived fields of `plan` (delivered_qos, wire_rate_kbps,
/// resources) from the replica it serves. `replica` must match
/// `plan.replica_oid`.
void FinalizePlan(Plan& plan, const media::ReplicaInfo& replica,
                  const PlanCostConstants& constants);

/// FinalizePlan from figures the caller already holds: `rates` is
/// net::ComputeStreamRates of the plan's (transcode target, drop) choice
/// and `forward_cpu` is RelayForwardCpu(replica) (read only for relayed
/// plans). Fills the same fields with the same doubles.
void FinalizePlan(Plan& plan, const media::ReplicaInfo& replica,
                  const net::StreamRates& rates, double forward_cpu,
                  const PlanCostConstants& constants);

/// Startup latency of a disk-served plan: fixed setup, the client
/// buffer, and the relay and transcoder warm-ups when present.
double DiskStartupSeconds(bool relayed, bool transcoded,
                          const PlanCostConstants& constants);

/// CPU share that relaying `replica`'s stored stream costs at each end
/// of the server-to-server hop.
double RelayForwardCpu(const media::ReplicaInfo& replica,
                       const PlanCostConstants& constants);

/// The cache-served twin of the finalized disk-served `disk_plan`
/// (cache_fraction 0): disk bandwidth shrinks to bitrate·(1−f) (the
/// entry goes when that is 0), memory bandwidth gains bitrate·f and
/// startup becomes max(s − startup_cache_seconds·f, 0). Equals
/// FinalizePlan of the twin, bit for bit, without re-deriving it.
Plan CacheServedTwin(const Plan& disk_plan, const media::ReplicaInfo& replica,
                     double cache_fraction,
                     const PlanCostConstants& constants);

}  // namespace quasaq::core

#endif  // QUASAQ_CORE_PLAN_H_
