#ifndef QUASAQ_CACHE_CACHE_MANAGER_H_
#define QUASAQ_CACHE_CACHE_MANAGER_H_

#include <memory>
#include <string>
#include <vector>

#include "common/ids.h"
#include "common/sim_time.h"
#include "cache/segment.h"
#include "cache/segment_cache.h"
#include "media/video.h"

// Site-level coordination of the segment caches. One SegmentCache per
// site; the manager translates replica records into segment accesses and
// answers the planner's admission-time warmth queries. It implements the
// read-only CacheView interface that the Plan Generator consults to emit
// cache-served plan variants without depending on the cache machinery.
//
// Thread-compatible, like the per-site caches it owns: it takes no lock,
// and in a MediaDbSystem every call runs under the facade's one lock
// (docs/ARCHITECTURE.md "Threading model").

namespace quasaq::cache {

// What plan generation may ask about cache state. Implementations must
// be side-effect free: admission-time peeks may not distort recency or
// hit/miss counters.
class CacheView {
 public:
  virtual ~CacheView() = default;

  /// Fraction of `replica`'s bytes resident in `site`'s cache, in
  /// [0, 1]; 0 when the site has no cache.
  virtual double CachedFraction(SiteId site,
                                const media::ReplicaInfo& replica) const = 0;
};

class CacheManager : public CacheView {
 public:
  struct Options {
    SegmentCache::Options cache;     // applied to every site's cache
    SegmentLayout::Options layout;
  };

  CacheManager(const std::vector<SiteId>& sites, const Options& options);

  /// The cache of `site`, or nullptr for unknown sites.
  SegmentCache* at(SiteId site);
  const SegmentCache* at(SiteId site) const;

  double CachedFraction(SiteId site,
                        const media::ReplicaInfo& replica) const override;

  /// Streams `replica` through `site`'s cache at `now`: every segment is
  /// accessed in order — residents are served from memory (hits), the
  /// rest are filled from disk (misses) — modelling a read-through
  /// streaming cache at session granularity.
  void OnStream(SiteId site, const media::ReplicaInfo& replica, SimTime now);

  /// Invalidates `replica`'s segments at every site (the physical copy
  /// is gone; its cached bytes are undeliverable).
  void EraseReplica(PhysicalOid replica);

  /// Counters summed over all sites.
  SegmentCache::Counters TotalCounters() const;

  /// Attaches every site's cache to `registry` as one site-labeled
  /// family per counter (nullptr detaches). Call before streaming so
  /// the registry totals reconcile with TotalCounters().
  void set_metrics(obs::MetricsRegistry* registry);

  const SegmentLayout::Options& layout_options() const {
    return options_.layout;
  }

  /// One line per site plus a totals line.
  std::string ReportString() const;

 private:
  // The site list and the cache array are fixed at construction.
  std::vector<SiteId> sites_;
  Options options_;
  std::vector<std::unique_ptr<SegmentCache>> caches_;  // parallel to sites_
};

}  // namespace quasaq::cache

#endif  // QUASAQ_CACHE_CACHE_MANAGER_H_
