#ifndef QUASAQ_RESOURCE_COMPOSITE_API_H_
#define QUASAQ_RESOURCE_COMPOSITE_API_H_

#include <cstdint>
#include <unordered_map>

#include "common/resource_vector.h"
#include "common/status.h"
#include "obs/metrics.h"
#include "resource/pool.h"

// Composite QoS API (paper §3.5): the single entry point that hides the
// per-resource managers (CPU / network / disk, GARA-style) behind one
// interface offering the three operations QoS control needs —
// admission control, resource reservation, and renegotiation.
// Reservations are all-or-nothing across every bucket a plan touches.
//
// Thread-compatible: the API takes no lock. Its callers serialize, and
// in a MediaDbSystem they do so under the facade's one lock, which also
// keeps release-then-acquire renegotiation atomic with respect to other
// reservations (docs/ARCHITECTURE.md "Threading model"). The
// reservation counters live only in the metrics registry.

namespace quasaq::res {

using ReservationId = int64_t;
inline constexpr ReservationId kInvalidReservationId = 0;

class CompositeQosApi {
 public:
  struct Stats {
    uint64_t admitted = 0;
    uint64_t rejected = 0;
    uint64_t released = 0;
    uint64_t renegotiations = 0;
    uint64_t renegotiation_failures = 0;
  };

  // Per-resource-kind accounting, mirroring GARA's per-resource managers
  // (CPU / network / disk / memory each with its own manager): how often
  // each kind was requested and how often it was the one that vetoed an
  // admission — i.e. which resource is the system's bottleneck.
  struct KindStats {
    uint64_t requests = 0;
    uint64_t denials = 0;
  };

  /// `pool` and `registry` must outlive the API object. The
  /// reservation counters are registered in `registry` here.
  CompositeQosApi(ResourcePool* pool, obs::MetricsRegistry& registry);

  /// Admission control: true when `demand` fits the current system
  /// status without reserving anything.
  bool Admissible(const ResourceVector& demand) const;

  /// Reserves `demand` for the lifetime of a delivery job. On success
  /// the buckets are charged and a reservation handle is returned.
  Result<ReservationId> Reserve(const ResourceVector& demand);

  /// Releases a reservation completely.
  Status Release(ReservationId id);

  /// Renegotiation: atomically replaces the reservation's demand with
  /// `new_demand` (used when the user changes QoS mid-playback or a
  /// degraded plan is adopted). On failure the old reservation stands.
  Status Renegotiate(ReservationId id, const ResourceVector& new_demand);

  /// Returns the reserved vector for `id`, or nullptr. The pointee is
  /// stable until the reservation is released or renegotiated.
  const ResourceVector* Find(ReservationId id) const;

  size_t active_reservations() const { return reservations_.size(); }
  /// Reads the registry counters.
  Stats stats() const;
  KindStats kind_stats(ResourceKind kind) const {
    return kind_stats_[static_cast<size_t>(kind)];
  }
  const ResourcePool& pool() const { return *pool_; }

  /// The resource kind that vetoed the most reservations so far, or
  /// empty when nothing has been denied — the operator's first answer
  /// to "what do we buy more of?".
  std::string BottleneckReport() const;

 private:
  // Registry handles, resolved at construction.
  struct Metrics {
    explicit Metrics(obs::MetricsRegistry& registry);
    obs::Counter* reserve_accepted;
    obs::Counter* reserve_rejected;
    obs::Counter* released;
    obs::Counter* renegotiate_accepted;
    obs::Counter* renegotiate_rejected;
  };

  // Charges per-kind request/denial accounting for one attempt;
  // `overflowed` is what the pool reported for a failed Acquire.
  void AccountAttempt(const ResourceVector& demand,
                      const ResourcePool::KindCounts& overflowed);

  ResourcePool* pool_;  // set at construction, never reassigned
  const Metrics metrics_;
  ReservationId next_id_ = 1;
  std::unordered_map<ReservationId, ResourceVector> reservations_;
  KindStats kind_stats_[kNumResourceKinds] = {};
};

}  // namespace quasaq::res

#endif  // QUASAQ_RESOURCE_COMPOSITE_API_H_
