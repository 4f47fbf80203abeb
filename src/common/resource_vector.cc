#include "common/resource_vector.h"

#include <algorithm>
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
  Put(bucket, ToResourceUnits(amount), /*accumulate=*/true);
}

void ResourceVector::Set(const BucketId& bucket, double amount) {
  Put(bucket, ToResourceUnits(amount), /*accumulate=*/false);
}

void ResourceVector::Put(const BucketId& bucket, int64_t units,
                         bool accumulate) {
  auto it = std::lower_bound(entries_.begin(), entries_.end(), bucket);
  const bool present = it != entries_.end() && it->bucket == bucket;
  if (accumulate && present) units += it->units;
  if (units <= 0) {
    if (present) entries_.erase(it);
  } else if (present) {
    it->units = units;
  } else {
    entries_.insert(it, Entry{bucket, units});
  }
}

int64_t ResourceVector::Units(const BucketId& bucket) const {
  auto it = std::lower_bound(entries_.begin(), entries_.end(), bucket);
  return it != entries_.end() && it->bucket == bucket ? it->units : 0;
}

std::string ResourceVector::ToString() const {
  std::string out = "{";
  bool first = true;
  for (const Entry& e : entries_) {
    if (!first) out += ", ";
    first = false;
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.3g", FromResourceUnits(e.units));
    out += BucketIdToString(e.bucket) + ": " + buf;
  }
  out += "}";
  return out;
}

}  // namespace quasaq
