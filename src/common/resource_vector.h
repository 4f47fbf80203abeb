#ifndef QUASAQ_COMMON_RESOURCE_VECTOR_H_
#define QUASAQ_COMMON_RESOURCE_VECTOR_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/ids.h"

// Resource accounting types. A QuaSAQ execution plan is costed by the
// vector of resources it would consume: CPU, network bandwidth and disk
// bandwidth at specific sites (plus memory). Each (site, kind) pair is
// one "bucket" in the Lowest Resource Bucket cost model (paper §3.4).

namespace quasaq {

// The system/network-level resource kinds of Table 1 that the prototype
// manages. Memory buffers are tracked but never the bottleneck in the
// paper's experiments.
enum class ResourceKind {
  kCpu = 0,            // fraction of one server CPU, 0..1
  kNetworkBandwidth,   // server outbound link, KB/s
  kDiskBandwidth,      // storage read bandwidth, KB/s
  kMemory,             // staging buffers, KB
  kMemoryBandwidth,    // cache-served read bandwidth, KB/s
};

inline constexpr int kNumResourceKinds = 5;

/// Returns a short stable name, e.g. "cpu", "net", "disk", "mem",
/// "membw".
std::string_view ResourceKindName(ResourceKind kind);

// Names one reservable resource instance: a kind at a site.
struct BucketId {
  SiteId site;
  ResourceKind kind = ResourceKind::kCpu;

  friend bool operator==(const BucketId& a, const BucketId& b) {
    return a.site == b.site && a.kind == b.kind;
  }
  friend auto operator<=>(const BucketId& a, const BucketId& b) = default;
};

/// Renders e.g. "site2/net".
std::string BucketIdToString(const BucketId& id);

// The ledger's one unit: amounts are held as whole counts of 10^-6 of
// the resource's own unit (KB/s, KB, CPU fraction), so usage is added,
// compared and subtracted exactly, in any order.
inline constexpr double kResourceUnitsPerAmount = 1e6;

/// The nearest unit count to `amount` (halves away from zero).
inline int64_t ToResourceUnits(double amount) {
  const double scaled = amount * kResourceUnitsPerAmount;
  return static_cast<int64_t>(scaled < 0.0 ? scaled - 0.5 : scaled + 0.5);
}

inline double FromResourceUnits(int64_t units) {
  return static_cast<double>(units) / kResourceUnitsPerAmount;
}

// Sparse map from bucket to a positive number of units, quantized once
// as amounts are added. Small (a plan touches at most a handful of
// buckets), so it is a flat sorted vector.
class ResourceVector {
 public:
  struct Entry {
    BucketId bucket;
    int64_t units = 0;

    friend bool operator<(const Entry& e, const BucketId& b) {
      return e.bucket < b;
    }
  };

  ResourceVector() = default;

  /// Adds `amount` to the bucket. Negative deltas are allowed; an entry
  /// left at zero units or less is removed, and none is created.
  void Add(const BucketId& bucket, double amount);

  /// Replaces the bucket's amount; an amount of zero units or less
  /// removes the entry.
  void Set(const BucketId& bucket, double amount);

  /// Removes every entry and keeps the capacity, so a vector refilled
  /// over and over allocates only while it grows.
  void Clear() { entries_.clear(); }

  /// Returns the units held for `bucket` (0 if absent).
  int64_t Units(const BucketId& bucket) const;

  /// Returns the amount for `bucket` (0 if absent).
  double Get(const BucketId& bucket) const {
    return FromResourceUnits(Units(bucket));
  }

  bool empty() const { return entries_.empty(); }
  size_t size() const { return entries_.size(); }
  const std::vector<Entry>& entries() const { return entries_; }

  /// Renders e.g. "{site0/cpu: 0.05, site0/net: 190}".
  std::string ToString() const;

 private:
  // Stores `units`, added to the present entry's when `accumulate`.
  void Put(const BucketId& bucket, int64_t units, bool accumulate);

  std::vector<Entry> entries_;  // sorted by bucket
};

}  // namespace quasaq

#endif  // QUASAQ_COMMON_RESOURCE_VECTOR_H_
