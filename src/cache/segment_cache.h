#ifndef QUASAQ_CACHE_SEGMENT_CACHE_H_
#define QUASAQ_CACHE_SEGMENT_CACHE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>

#include "common/ids.h"
#include "common/sim_time.h"
#include "cache/eviction.h"
#include "cache/segment.h"
#include "obs/metrics.h"

// One site's in-memory segment cache. Streamed segments pass through the
// cache read-through style: a resident segment is served from memory (a
// hit), a missing one is read from disk and filled in, evicting the
// policy's lowest-scored segments until it fits. All timing comes from
// the caller-supplied simulated clock, so cache contents — and therefore
// hit/miss sequences — are a deterministic function of the access
// sequence.
//
// Thread-compatible: the cache takes no lock. Its callers serialize, and
// in a MediaDbSystem they do so under the facade's one lock
// (docs/ARCHITECTURE.md "Threading model").

namespace quasaq::cache {

class SegmentCache {
 public:
  struct Options {
    // Memory budget for cached segments, KB.
    double capacity_kb = 256.0 * 1024.0;
    // Eviction policy name (see MakeEvictionPolicy): "lru" or "utility".
    std::string policy = "utility";
    // Idle time that halves a segment's stored access mass.
    SimTime popularity_half_life = 120 * kSecond;
  };

  struct Counters {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t inserts = 0;
    uint64_t evictions = 0;
    // A segment larger than the whole cache is never admitted.
    uint64_t rejected = 0;
    double hit_kb = 0.0;
    double miss_kb = 0.0;
    double inserted_kb = 0.0;
    double evicted_kb = 0.0;

    double HitRatio() const {
      uint64_t total = hits + misses;
      return total > 0 ? static_cast<double>(hits) /
                             static_cast<double>(total)
                       : 0.0;
    }
  };

  explicit SegmentCache(const Options& options);
  /// Test seam: takes an explicit policy instance.
  SegmentCache(const Options& options,
               std::unique_ptr<EvictionPolicy> policy);

  /// The streaming read path: returns true (a hit) when `key` is
  /// resident, touching its recency/popularity; on a miss the segment is
  /// filled in (unless larger than the cache), evicting as needed. All
  /// counters are charged.
  bool Access(const SegmentKey& key, double size_kb, SimTime now);

  /// Inserts without hit/miss accounting (warm-up / prefetch). Returns
  /// false when the segment cannot be admitted. Re-inserting a resident
  /// segment only touches it.
  bool Insert(const SegmentKey& key, double size_kb, SimTime now);

  /// Residency check with no side effects (the planner's admission-time
  /// peek must not distort recency or the hit ratio).
  bool Contains(const SegmentKey& key) const;

  /// Drops one segment if resident.
  void Erase(const SegmentKey& key);

  /// Invalidates every segment of `replica` (e.g. after the replica is
  /// evicted from storage). Returns the number of segments dropped.
  /// Not charged as evictions — nothing was displaced by pressure.
  size_t EraseReplica(PhysicalOid replica);

  /// Total resident KB of `replica`'s segments.
  double CachedKbOf(PhysicalOid replica) const;

  /// Number of resident segments of `replica`.
  int CachedSegmentsOf(PhysicalOid replica) const;

  double used_kb() const { return used_kb_; }
  double capacity_kb() const { return options_.capacity_kb; }
  size_t segment_count() const { return segments_.size(); }
  Counters counters() const { return counters_; }
  std::string_view policy_name() const { return policy_->name(); }

  /// One-line operator report: policy, fill, hit ratio.
  std::string ReportString() const;

  /// Mirrors the counters into `registry` as a site-labeled series
  /// (`site_label` is the label value, normally the site id). nullptr
  /// detaches. The registry must outlive the cache; call before the
  /// first Access so registry totals match counters().
  void set_metrics(obs::MetricsRegistry* registry, std::string_view site_label);

 private:
  // Registry handles resolved once in set_metrics; all nullptr when
  // unobserved.
  struct Metrics {
    obs::Counter* hits = nullptr;
    obs::Counter* misses = nullptr;
    obs::Counter* inserts = nullptr;
    obs::Counter* evictions = nullptr;
    obs::Counter* rejected = nullptr;
    obs::Counter* hit_kb = nullptr;
    obs::Counter* miss_kb = nullptr;
    obs::Counter* evicted_kb = nullptr;
    obs::Gauge* used_kb = nullptr;
  };

  void Touch(SegmentMeta& meta, SimTime now);
  // Evicts lowest-scored segments until `needed_kb` fits. Returns false
  // when the cache cannot make enough room (needed_kb > capacity).
  bool EvictFor(double needed_kb, SimTime now);

  Options options_;                         // immutable after construction
  std::unique_ptr<EvictionPolicy> policy_;  // immutable after construction
  std::unordered_map<SegmentKey, SegmentMeta> segments_;
  // Resident KB per replica, for O(1) warmth lookups by the planner.
  std::unordered_map<PhysicalOid, double> replica_kb_;
  std::unordered_map<PhysicalOid, int> replica_segments_;
  double used_kb_ = 0.0;
  Counters counters_;
  Metrics metrics_;
};

}  // namespace quasaq::cache

#endif  // QUASAQ_CACHE_SEGMENT_CACHE_H_
