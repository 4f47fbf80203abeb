#include "resource/pool.h"

#include <algorithm>
#include <cstdio>

namespace quasaq::res {

namespace {
// Tolerance for floating-point accumulation when checking capacity.
constexpr double kSlack = 1e-9;
}  // namespace

Status ResourcePool::DeclareBucket(const BucketId& bucket, double capacity) {
  if (capacity <= 0.0) {
    return Status::InvalidArgument("bucket " + BucketIdToString(bucket) +
                                   " declared with non-positive capacity");
  }
  MutexLock lock(&mu_);
  auto [it, inserted] = buckets_.try_emplace(bucket);
  it->second.capacity = capacity;
  fill_index_stale_ = true;
  if (inserted) {
    ordered_buckets_.insert(std::lower_bound(ordered_buckets_.begin(),
                                             ordered_buckets_.end(), bucket),
                            bucket);
  }
  return Status::Ok();
}

const std::vector<ResourcePool::Fill>& ResourcePool::FillIndexLocked() const {
  if (fill_index_stale_) {
    fill_index_.clear();
    fill_index_.reserve(ordered_buckets_.size());
    for (const BucketId& bucket : ordered_buckets_) {
      const BucketState& state = buckets_.find(bucket)->second;
      if (state.capacity <= 0.0) continue;
      fill_index_.push_back(Fill{state.used / state.capacity, bucket});
    }
    std::sort(fill_index_.begin(), fill_index_.end(),
              [](const Fill& a, const Fill& b) { return a.fill > b.fill; });
    fill_index_stale_ = false;
  }
  return fill_index_;
}

double ResourcePool::OverlayMaxFill(const ResourceVector& demand) const {
  MutexLock lock(&mu_);
  double max_fill = 0.0;
  for (const ResourceVector::Entry& e : demand.entries()) {
    auto it = buckets_.find(e.bucket);
    if (it == buckets_.end() || it->second.capacity <= 0.0) continue;
    max_fill =
        std::max(max_fill, (it->second.used + e.amount) / it->second.capacity);
  }
  // Every bucket `demand` leaves alone keeps its fill U_i / R_i, so the
  // fullest of them bounds the rest.
  const std::vector<ResourceVector::Entry>& entries = demand.entries();
  for (const Fill& entry : FillIndexLocked()) {
    bool touched = std::any_of(entries.begin(), entries.end(),
                               [&](const ResourceVector::Entry& e) {
                                 return e.bucket == entry.bucket;
                               });
    if (!touched) return std::max(max_fill, entry.fill);
  }
  return max_fill;
}

double ResourcePool::OverlaySquaredFill(const ResourceVector& demand) const {
  MutexLock lock(&mu_);
  double total = 0.0;
  for (const BucketId& bucket : ordered_buckets_) {
    const BucketState& state = buckets_.find(bucket)->second;
    if (state.capacity <= 0.0) continue;
    double fill = (state.used + demand.Get(bucket)) / state.capacity;
    total += fill * fill;
  }
  return total;
}

double ResourcePool::FractionalDemand(const ResourceVector& demand) const {
  MutexLock lock(&mu_);
  double total = 0.0;
  for (const ResourceVector::Entry& e : demand.entries()) {
    auto it = buckets_.find(e.bucket);
    if (it == buckets_.end() || it->second.capacity <= 0.0) continue;
    total += e.amount / it->second.capacity;
  }
  return total;
}

std::vector<std::pair<BucketId, double>> ResourcePool::UtilizationSnapshot()
    const {
  MutexLock lock(&mu_);
  std::vector<std::pair<BucketId, double>> out;
  out.reserve(ordered_buckets_.size());
  for (const BucketId& bucket : ordered_buckets_) {
    const BucketState& state = buckets_.find(bucket)->second;
    out.emplace_back(bucket, state.capacity > 0.0
                                 ? state.used / state.capacity
                                 : 0.0);
  }
  return out;
}

bool ResourcePool::HasBucket(const BucketId& bucket) const {
  MutexLock lock(&mu_);
  return buckets_.count(bucket) > 0;
}

double ResourcePool::Capacity(const BucketId& bucket) const {
  MutexLock lock(&mu_);
  auto it = buckets_.find(bucket);
  return it == buckets_.end() ? 0.0 : it->second.capacity;
}

double ResourcePool::Used(const BucketId& bucket) const {
  MutexLock lock(&mu_);
  auto it = buckets_.find(bucket);
  return it == buckets_.end() ? 0.0 : it->second.used;
}

double ResourcePool::Utilization(const BucketId& bucket) const {
  MutexLock lock(&mu_);
  auto it = buckets_.find(bucket);
  if (it == buckets_.end() || it->second.capacity <= 0.0) return 0.0;
  return it->second.used / it->second.capacity;
}

bool ResourcePool::FitsLocked(const ResourceVector& demand,
                              KindCounts* overflowed) const {
  bool fits = true;
  for (const ResourceVector::Entry& e : demand.entries()) {
    auto it = buckets_.find(e.bucket);
    if (it == buckets_.end()) return false;
    if (it->second.used + e.amount > it->second.capacity * (1.0 + kSlack)) {
      if (overflowed == nullptr) return false;
      ++(*overflowed)[static_cast<size_t>(e.bucket.kind)];
      fits = false;
    }
  }
  return fits;
}

bool ResourcePool::Fits(const ResourceVector& demand) const {
  MutexLock lock(&mu_);
  return FitsLocked(demand);
}

Status ResourcePool::Acquire(const ResourceVector& demand,
                             KindCounts* overflowed) {
  MutexLock lock(&mu_);
  for (const ResourceVector::Entry& e : demand.entries()) {
    if (buckets_.count(e.bucket) == 0) {
      return Status::NotFound("undeclared bucket " +
                              BucketIdToString(e.bucket));
    }
  }
  if (!FitsLocked(demand, overflowed)) {
    return Status::ResourceExhausted("bucket would overflow");
  }
  for (const ResourceVector::Entry& e : demand.entries()) {
    buckets_[e.bucket].used += e.amount;
  }
  fill_index_stale_ = true;
  return Status::Ok();
}

Status ResourcePool::Release(const ResourceVector& demand) {
  MutexLock lock(&mu_);
  Status status = Status::Ok();
  fill_index_stale_ = true;
  for (const ResourceVector::Entry& e : demand.entries()) {
    auto it = buckets_.find(e.bucket);
    if (it == buckets_.end()) {
      status = Status::FailedPrecondition("release touches undeclared bucket " +
                                          BucketIdToString(e.bucket));
      continue;
    }
    if (e.amount > it->second.used + it->second.capacity * kSlack) {
      status = Status::FailedPrecondition(
          "over-release on bucket " + BucketIdToString(e.bucket) +
          " (usage clamped to zero)");
    }
    it->second.used = std::max(0.0, it->second.used - e.amount);
    // Snap accumulated floating-point residue to a clean zero; real
    // reservations are many orders of magnitude above this.
    if (it->second.used < it->second.capacity * 1e-9) {
      it->second.used = 0.0;
    }
  }
  return status;
}

std::vector<BucketId> ResourcePool::BucketsLocked() const {
  return ordered_buckets_;
}

std::vector<BucketId> ResourcePool::Buckets() const {
  MutexLock lock(&mu_);
  return BucketsLocked();
}

double ResourcePool::MaxUtilization() const {
  MutexLock lock(&mu_);
  double max_util = 0.0;
  for (const auto& [id, state] : buckets_) {
    if (state.capacity <= 0.0) continue;
    max_util = std::max(max_util, state.used / state.capacity);
  }
  return max_util;
}

std::string ResourcePool::DebugString() const {
  MutexLock lock(&mu_);
  std::string out;
  for (const BucketId& id : BucketsLocked()) {
    auto it = buckets_.find(id);
    double util = it->second.capacity > 0.0
                      ? it->second.used / it->second.capacity
                      : 0.0;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%s=%.2f ",
                  BucketIdToString(id).c_str(), util);
    out += buf;
  }
  if (!out.empty()) out.pop_back();
  return out;
}

}  // namespace quasaq::res
