#include "common/resource_vector.h"

#include <algorithm>
#include <cassert>
#include <cstdio>

namespace quasaq {

std::string_view ResourceKindName(ResourceKind kind) {
  switch (kind) {
    case ResourceKind::kCpu:
      return "cpu";
    case ResourceKind::kNetworkBandwidth:
      return "net";
    case ResourceKind::kDiskBandwidth:
      return "disk";
    case ResourceKind::kMemory:
      return "mem";
    case ResourceKind::kMemoryBandwidth:
      return "membw";
  }
  return "unknown";
}

std::string BucketIdToString(const BucketId& id) {
  std::string out = "site" + std::to_string(id.site.value());
  out += "/";
  out += ResourceKindName(id.kind);
  return out;
}

void ResourceVector::Add(const BucketId& bucket, double amount) {
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), bucket,
      [](const Entry& e, const BucketId& b) { return e.bucket < b; });
  if (it != entries_.end() && it->bucket == bucket) {
    it->amount = std::max(0.0, it->amount + amount);
    return;
  }
  entries_.insert(it, Entry{bucket, std::max(0.0, amount)});
}

void ResourceVector::Set(const BucketId& bucket, double amount) {
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), bucket,
      [](const Entry& e, const BucketId& b) { return e.bucket < b; });
  const bool present = it != entries_.end() && it->bucket == bucket;
  if (amount <= 0.0) {
    if (present) entries_.erase(it);
  } else if (present) {
    it->amount = amount;
  } else {
    entries_.insert(it, Entry{bucket, amount});
  }
}

double ResourceVector::Get(const BucketId& bucket) const {
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), bucket,
      [](const Entry& e, const BucketId& b) { return e.bucket < b; });
  if (it != entries_.end() && it->bucket == bucket) return it->amount;
  return 0.0;
}

void ResourceVector::Merge(const ResourceVector& other) {
  for (const Entry& e : other.entries_) Add(e.bucket, e.amount);
}

void ResourceVector::Scale(double factor) {
  assert(factor >= 0.0);
  for (Entry& e : entries_) e.amount *= factor;
}

std::string ResourceVector::ToString() const {
  std::string out = "{";
  bool first = true;
  for (const Entry& e : entries_) {
    if (!first) out += ", ";
    first = false;
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.3g", e.amount);
    out += BucketIdToString(e.bucket) + ": " + buf;
  }
  out += "}";
  return out;
}

}  // namespace quasaq
