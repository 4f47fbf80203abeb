#include "resource/composite_api.h"

#include <cassert>
#include <cstdio>

namespace quasaq::res {

void CompositeQosApi::AccountAttempt(
    const ResourceVector& demand, const ResourcePool::KindCounts& overflowed) {
  for (const ResourceVector::Entry& e : demand.entries()) {
    ++kind_stats_[static_cast<size_t>(e.bucket.kind)].requests;
  }
  // A denial is charged to the kind of every entry that overflowed.
  for (int i = 0; i < kNumResourceKinds; ++i) {
    kind_stats_[i].denials += overflowed[static_cast<size_t>(i)];
  }
}

std::string CompositeQosApi::BottleneckReport() const {
  const char* worst = nullptr;
  uint64_t worst_denials = 0;
  uint64_t total_denials = 0;
  for (int i = 0; i < kNumResourceKinds; ++i) {
    total_denials += kind_stats_[i].denials;
    if (kind_stats_[i].denials > worst_denials) {
      worst_denials = kind_stats_[i].denials;
      worst = ResourceKindName(static_cast<ResourceKind>(i)).data();
    }
  }
  if (worst == nullptr) return "";
  char buf[96];
  std::snprintf(buf, sizeof(buf),
                "bottleneck: %s (%llu of %llu denials)", worst,
                static_cast<unsigned long long>(worst_denials),
                static_cast<unsigned long long>(total_denials));
  return std::string(buf);
}

CompositeQosApi::Metrics::Metrics(obs::MetricsRegistry& registry)
    : reserve_accepted(
          registry.GetCounter("quasaq_resource_reserve_accepted_total",
                              "Reservations admission control granted")),
      reserve_rejected(
          registry.GetCounter("quasaq_resource_reserve_rejected_total",
                              "Reservations admission control denied")),
      released(registry.GetCounter("quasaq_resource_released_total",
                                   "Reservations released")),
      renegotiate_accepted(
          registry.GetCounter("quasaq_resource_renegotiate_accepted_total",
                              "In-place reservation swaps that fit")),
      renegotiate_rejected(
          registry.GetCounter("quasaq_resource_renegotiate_rejected_total",
                              "In-place reservation swaps that did not fit")) {}

CompositeQosApi::CompositeQosApi(ResourcePool* pool,
                                 obs::MetricsRegistry& registry)
    : pool_(pool), metrics_(registry) {
  assert(pool_ != nullptr);
}

CompositeQosApi::Stats CompositeQosApi::stats() const {
  Stats snapshot;
  snapshot.admitted =
      static_cast<uint64_t>(metrics_.reserve_accepted->value());
  snapshot.rejected =
      static_cast<uint64_t>(metrics_.reserve_rejected->value());
  snapshot.released = static_cast<uint64_t>(metrics_.released->value());
  snapshot.renegotiations =
      static_cast<uint64_t>(metrics_.renegotiate_accepted->value());
  snapshot.renegotiation_failures =
      static_cast<uint64_t>(metrics_.renegotiate_rejected->value());
  return snapshot;
}

bool CompositeQosApi::Admissible(const ResourceVector& demand) const {
  return pool_->Fits(demand);
}

Result<ReservationId> CompositeQosApi::Reserve(const ResourceVector& demand) {
  ResourcePool::KindCounts overflowed{};
  Status status = pool_->Acquire(demand, &overflowed);
  AccountAttempt(demand, overflowed);
  if (!status.ok()) {
    metrics_.reserve_rejected->Increment();
    return status;
  }
  metrics_.reserve_accepted->Increment();
  ReservationId id = next_id_++;
  reservations_.emplace(id, demand);
  return id;
}

Status CompositeQosApi::Release(ReservationId id) {
  auto it = reservations_.find(id);
  if (it == reservations_.end()) {
    return Status::NotFound("unknown reservation");
  }
  // A failed pool release means the reservation table and the usage
  // vectors disagree — surface it instead of reporting a clean release.
  Status released = pool_->Release(it->second);
  reservations_.erase(it);
  metrics_.released->Increment();
  return released;
}

Status CompositeQosApi::Renegotiate(ReservationId id,
                                    const ResourceVector& new_demand) {
  auto it = reservations_.find(id);
  if (it == reservations_.end()) {
    return Status::NotFound("unknown reservation");
  }
  // Tentatively release the old demand, then try the new one; restore on
  // failure so a failed renegotiation leaves the session running at its
  // previously agreed quality. Callers serialize, so no other
  // reservation can slip into the momentarily freed capacity.
  Status freed = pool_->Release(it->second);
  assert(freed.ok());
  (void)freed;
  Status status = pool_->Acquire(new_demand);
  if (!status.ok()) {
    Status restored = pool_->Acquire(it->second);
    assert(restored.ok());
    (void)restored;
    metrics_.renegotiate_rejected->Increment();
    return status;
  }
  it->second = new_demand;
  metrics_.renegotiate_accepted->Increment();
  return Status::Ok();
}

const ResourceVector* CompositeQosApi::Find(ReservationId id) const {
  auto it = reservations_.find(id);
  return it == reservations_.end() ? nullptr : &it->second;
}

}  // namespace quasaq::res
