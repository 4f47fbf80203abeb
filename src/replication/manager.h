#ifndef QUASAQ_REPLICATION_MANAGER_H_
#define QUASAQ_REPLICATION_MANAGER_H_

#include <memory>
#include <vector>

#include "cache/cache_manager.h"
#include "common/ids.h"
#include "media/library.h"
#include "metadata/metadata_store.h"
#include "replication/access_tracker.h"
#include "replication/policy.h"
#include "simcore/simulator.h"
#include "storage/object_store.h"

// Dynamic online replication and migration (paper §2 item 1 — deferred
// to a follow-up paper there, implemented here). A periodic manager
// observes per-(content, quality) demand, asks the policy which replicas
// to materialize or evict, and executes the actions: creation is offline
// transcoding from a master copy (it takes simulated time proportional
// to the object size before the new replica becomes plannable), eviction
// frees storage and unregisters distribution metadata immediately.

namespace quasaq::repl {

class ReplicationManager {
 public:
  struct Options {
    SimTime period = 30 * kSecond;        // planning cycle
    SimTime demand_window = 120 * kSecond;
    PolicyOptions policy;
    // Offline transcoder throughput (output KB/s); creation of a
    // replica of size S takes S / throughput seconds.
    double transcode_throughput_kbps = 4000.0;
  };

  struct Stats {
    uint64_t cycles = 0;
    uint64_t created = 0;
    uint64_t dropped = 0;
    uint64_t create_failures = 0;  // lost source / storage races
  };

  /// `metadata` and every object store must outlive the manager.
  /// Stores must already hold the initial replicas. `first_dynamic_oid`
  /// seeds the physical-OID allocator for created replicas.
  ReplicationManager(sim::Simulator* simulator,
                     meta::MetadataStore* metadata,
                     std::vector<storage::ObjectStore*> stores,
                     const media::QualityLadder& ladder,
                     int64_t first_dynamic_oid, const Options& options);

  /// Begins the periodic planning cycles.
  void Start();
  void Stop();

  /// Records one query's demand: `content` served best by a
  /// `ladder_level` replica.
  void RecordDemand(LogicalOid content, int ladder_level);

  /// Runs one planning cycle immediately (also used by Start's timer).
  void RunCycle();

  const Stats& stats() const { return stats_; }
  const AccessTracker& tracker() const { return tracker_; }

  /// Attaches the per-site segment caches (non-owning; nullptr
  /// detaches). Snapshots then carry each replica's cache warmth into
  /// the eviction ranking, and dropping a replica invalidates its
  /// cached segments everywhere.
  void set_cache(cache::CacheManager* cache) { cache_ = cache; }

 private:
  PlacementSnapshot BuildSnapshot();
  void ExecuteCreate(const ReplicationAction& action);
  void ExecuteDrop(const ReplicationAction& action);
  storage::ObjectStore* StoreFor(SiteId site);

  sim::Simulator* simulator_;
  meta::MetadataStore* metadata_;
  std::vector<storage::ObjectStore*> stores_;
  media::QualityLadder ladder_;
  Options options_;
  cache::CacheManager* cache_ = nullptr;
  AccessTracker tracker_;
  int64_t next_oid_;
  Stats stats_;
  std::unique_ptr<sim::PeriodicTask> timer_;
};

}  // namespace quasaq::repl

#endif  // QUASAQ_REPLICATION_MANAGER_H_
