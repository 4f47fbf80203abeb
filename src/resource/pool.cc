#include "resource/pool.h"

#include <algorithm>
#include <cstdio>

namespace quasaq::res {

namespace {
// Capacities stay below 2^52 units, where every count is an exact
// double and double(n) / double(R) is above 1 exactly when n > R.
constexpr double kMaxCapacityUnits = 0x1p52;
}  // namespace

Status ResourcePool::DeclareBucket(const BucketId& bucket, double capacity) {
  // Checked before it is converted (NaN fails too): 1 to 2^52 - 1 units.
  const double scaled = capacity * kResourceUnitsPerAmount;
  if (!(scaled >= 0.5 && scaled < kMaxCapacityUnits - 0.5)) {
    return Status::InvalidArgument("bucket " + BucketIdToString(bucket) +
                                   " needs a capacity of 1 to 2^52 - 1 units");
  }
  if (!bucket.site.valid()) {
    return Status::InvalidArgument("bucket " + BucketIdToString(bucket) +
                                   " declared at an invalid site");
  }
  const size_t slot = Slot(bucket);
  if (slot >= buckets_.size()) buckets_.resize(slot + 1);
  if (buckets_[slot].capacity != 0) {
    return Status::AlreadyExists("bucket " + BucketIdToString(bucket) +
                                 " is already declared");
  }
  // A new bucket is empty, so the max fill stands.
  buckets_[slot].capacity = ToResourceUnits(capacity);
  return Status::Ok();
}

const ResourcePool::BucketState* ResourcePool::Find(
    const BucketId& bucket) const {
  if (!bucket.site.valid()) return nullptr;
  const size_t slot = Slot(bucket);
  if (slot >= buckets_.size() || buckets_[slot].capacity == 0) {
    return nullptr;
  }
  return &buckets_[slot];
}

double ResourcePool::OverlayMaxFill(const ResourceVector& demand) const {
  double max_fill = max_fill_;
  for (const ResourceVector::Entry& e : demand.entries()) {
    const BucketState* state = Find(e.bucket);
    if (state == nullptr) continue;
    max_fill =
        std::max(max_fill, Fill(state->used + e.units, state->capacity));
  }
  return max_fill;
}

double ResourcePool::OverlaySquaredFill(const ResourceVector& demand) const {
  double total = 0.0;
  for (size_t slot = 0; slot < buckets_.size(); ++slot) {
    const BucketState& state = buckets_[slot];
    if (state.capacity == 0) continue;
    double fill =
        Fill(state.used + demand.Units(BucketAt(slot)), state.capacity);
    total += fill * fill;
  }
  return total;
}

double ResourcePool::FractionalDemand(const ResourceVector& demand) const {
  double total = 0.0;
  for (const ResourceVector::Entry& e : demand.entries()) {
    const BucketState* state = Find(e.bucket);
    if (state == nullptr) continue;
    total += Fill(e.units, state->capacity);
  }
  return total;
}

double ResourcePool::Capacity(const BucketId& bucket) const {
  const BucketState* state = Find(bucket);
  return state == nullptr ? 0.0 : FromResourceUnits(state->capacity);
}

double ResourcePool::Used(const BucketId& bucket) const {
  const BucketState* state = Find(bucket);
  return state == nullptr ? 0.0 : FromResourceUnits(state->used);
}

double ResourcePool::Utilization(const BucketId& bucket) const {
  const BucketState* state = Find(bucket);
  return state == nullptr ? 0.0 : Fill(state->used, state->capacity);
}

bool ResourcePool::Fits(const ResourceVector& demand,
                        KindCounts* overflowed) const {
  bool fits = true;
  for (const ResourceVector::Entry& e : demand.entries()) {
    const BucketState* state = Find(e.bucket);
    if (state == nullptr) return false;
    if (e.units > state->capacity - state->used) {
      if (overflowed == nullptr) return false;
      ++(*overflowed)[static_cast<size_t>(e.bucket.kind)];
      fits = false;
    }
  }
  return fits;
}

Status ResourcePool::Acquire(const ResourceVector& demand,
                             KindCounts* overflowed) {
  for (const ResourceVector::Entry& e : demand.entries()) {
    if (Find(e.bucket) == nullptr) {
      return Status::NotFound("undeclared bucket " +
                              BucketIdToString(e.bucket));
    }
  }
  if (!Fits(demand, overflowed)) {
    return Status::ResourceExhausted("bucket would overflow");
  }
  // Usage only grows here, so only the touched buckets can raise the
  // max fill.
  for (const ResourceVector::Entry& e : demand.entries()) {
    BucketState& state = buckets_[Slot(e.bucket)];
    state.used += e.units;
    max_fill_ = std::max(max_fill_, Fill(state.used, state.capacity));
  }
  return Status::Ok();
}

Status ResourcePool::Release(const ResourceVector& demand) {
  Status status = Status::Ok();
  for (const ResourceVector::Entry& e : demand.entries()) {
    if (Find(e.bucket) == nullptr) {
      status = Status::FailedPrecondition("release touches undeclared bucket " +
                                          BucketIdToString(e.bucket));
      continue;
    }
    BucketState& state = buckets_[Slot(e.bucket)];
    if (e.units > state.used) {
      status = Status::FailedPrecondition(
          "over-release on bucket " + BucketIdToString(e.bucket) +
          " (usage clamped to zero)");
    }
    state.used = std::max<int64_t>(0, state.used - e.units);
  }
  // Fills only fell, so the max is found again over every bucket.
  max_fill_ = 0.0;
  for (const BucketState& state : buckets_) {
    if (state.capacity == 0) continue;
    max_fill_ = std::max(max_fill_, Fill(state.used, state.capacity));
  }
  return status;
}

std::vector<BucketId> ResourcePool::Buckets() const {
  std::vector<BucketId> out;
  for (size_t slot = 0; slot < buckets_.size(); ++slot) {
    if (buckets_[slot].capacity != 0) out.push_back(BucketAt(slot));
  }
  return out;
}

double ResourcePool::MaxUtilization() const {
  return max_fill_;
}

std::string ResourcePool::DebugString() const {
  std::string out;
  ForEachFill([&out](size_t slot, double fill) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%s=%.2f ",
                  BucketIdToString(BucketAt(slot)).c_str(), fill);
    out += buf;
  });
  if (!out.empty()) out.pop_back();
  return out;
}

}  // namespace quasaq::res
