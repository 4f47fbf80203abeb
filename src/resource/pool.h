#ifndef QUASAQ_RESOURCE_POOL_H_
#define QUASAQ_RESOURCE_POOL_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/resource_vector.h"
#include "common/status.h"

// Registry of the system's resource buckets: each (site, kind) bucket
// has a fixed capacity R_i and a current usage U_i. This is the state
// the LRB cost model reads ("the height of the filled part of bucket i
// is the percentage of resource i being used", paper §3.4) and the
// state admission control mutates. The buckets live in one flat
// vector indexed by the dense slot site * kNumResourceKinds + kind,
// next to the pool's current max fill.
//
// Thread-compatible: the pool takes no lock. Its callers serialize, and
// in a MediaDbSystem they do so under the facade's one lock
// (docs/ARCHITECTURE.md "Threading model").

namespace quasaq::res {

class ResourcePool {
 public:
  /// Declares a bucket with capacity `capacity`, 1 to 2^52 - 1 resource
  /// units. Fails with kInvalidArgument on a capacity outside that range
  /// or an invalid site, and with kAlreadyExists on a declared bucket;
  /// nothing changes on failure. Storage is dense in the site id, so
  /// sites are expected to be numbered from 0.
  Status DeclareBucket(const BucketId& bucket, double capacity);

  double Capacity(const BucketId& bucket) const;
  double Used(const BucketId& bucket) const;

  /// U_i / R_i for one bucket, in [0, 1].
  double Utilization(const BucketId& bucket) const;

  // Per resource kind, how many entries of a demand overflow their
  // bucket.
  using KindCounts = std::array<uint64_t, kNumResourceKinds>;

  /// True when every entry of `demand` fits: U_i + r_i <= R_i for all
  /// touched buckets (and every touched bucket is declared). Stops at
  /// the first overflow unless `overflowed` is non-null, in which case
  /// every overflowing entry is counted into it by kind.
  bool Fits(const ResourceVector& demand,
            KindCounts* overflowed = nullptr) const;

  /// Atomically adds `demand` to usage. Fails with kResourceExhausted
  /// (nothing is changed) when any bucket would overflow, and
  /// kNotFound when `demand` touches an undeclared bucket. On
  /// kResourceExhausted, adds to `overflowed` (when non-null) the
  /// entries that overflowed, by kind, judged by the same fit test.
  Status Acquire(const ResourceVector& demand,
                 KindCounts* overflowed = nullptr);

  /// Subtracts `demand` from usage. Usage never goes negative: an
  /// over-release is clamped to zero and reported as
  /// kFailedPrecondition (as is a release touching an undeclared
  /// bucket) so accounting bugs surface in release builds instead of
  /// silently corrupting the usage vectors the cost model reads.
  Status Release(const ResourceVector& demand);

  /// All declared buckets, sorted by id.
  std::vector<BucketId> Buckets() const;

  /// Overlay fill — the LRB inner loop: max over every declared bucket
  /// of (U_i + demand_i) / R_i, above 1 exactly when a bucket overflows.
  /// A touched bucket's overlay is never below its own fill U_i / R_i,
  /// so this is the max of the pool's current max fill and the touched
  /// buckets' overlays: O(|demand|), and the same double a full scan of
  /// every bucket computes.
  double OverlayMaxFill(const ResourceVector& demand) const;

  /// Overlay quadratic fill: sum over declared buckets — in sorted id
  /// order, so the floating-point accumulation is reproducible — of
  /// ((U_i + demand_i) / R_i)^2.
  double OverlaySquaredFill(const ResourceVector& demand) const;

  /// Sum over `demand`'s entries (in entry order) of amount / capacity;
  /// undeclared buckets contribute nothing.
  double FractionalDemand(const ResourceVector& demand) const;

  /// The dense slot of `bucket`: site * kNumResourceKinds + kind, so
  /// slot order is BucketId order. Requires a valid site.
  static size_t Slot(const BucketId& bucket) {
    return static_cast<size_t>(bucket.site.value()) * kNumResourceKinds +
           static_cast<size_t>(bucket.kind);
  }

  /// The bucket at dense slot `slot` (Slot's inverse).
  static BucketId BucketAt(size_t slot) {
    return BucketId{SiteId(static_cast<int64_t>(slot / kNumResourceKinds)),
                    static_cast<ResourceKind>(slot % kNumResourceKinds)};
  }

  /// Calls fn(slot, U_i / R_i) for every declared bucket in slot (so
  /// sorted id) order, reading the fills in place (telemetry's bulk
  /// Utilization).
  template <typename Fn>
  void ForEachFill(Fn&& fn) const {
    for (size_t slot = 0; slot < buckets_.size(); ++slot) {
      const BucketState& state = buckets_[slot];
      if (state.capacity != 0) fn(slot, Fill(state.used, state.capacity));
    }
  }

  /// The highest utilization across all declared buckets (a cached
  /// scalar, kept current by Acquire and Release).
  double MaxUtilization() const;

  /// Renders a one-line fill report, e.g. "site0/cpu=0.42 ...".
  std::string DebugString() const;

 private:
  // Resource units. A slot with capacity 0 was never declared
  // (DeclareBucket rejects capacities below one unit).
  struct BucketState {
    int64_t capacity = 0;
    int64_t used = 0;
  };

  static double Fill(int64_t units, int64_t capacity) {
    return static_cast<double>(units) / static_cast<double>(capacity);
  }

  // The declared bucket's state, or nullptr when `bucket` is undeclared.
  const BucketState* Find(const BucketId& bucket) const;

  // Indexed by Slot(); buckets are never undeclared.
  std::vector<BucketState> buckets_;
  // max of U_i / R_i over declared buckets (0 when there are none).
  double max_fill_ = 0.0;
};

}  // namespace quasaq::res

#endif  // QUASAQ_RESOURCE_POOL_H_
