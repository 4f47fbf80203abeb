#include "replication/manager.h"

#include <cassert>

#include "common/logging.h"

namespace quasaq::repl {

ReplicationManager::ReplicationManager(
    sim::Simulator* simulator, meta::MetadataStore* metadata,
    std::vector<storage::ObjectStore*> stores,
    const media::QualityLadder& ladder, int64_t first_dynamic_oid,
    const Options& options)
    : simulator_(simulator),
      metadata_(metadata),
      stores_(std::move(stores)),
      ladder_(ladder),
      options_(options),
      tracker_(options.demand_window),
      next_oid_(first_dynamic_oid) {
  assert(simulator_ != nullptr);
  assert(metadata_ != nullptr);
  assert(!stores_.empty());
}

void ReplicationManager::Start() {
  if (timer_ != nullptr) return;
  timer_ = std::make_unique<sim::PeriodicTask>(
      simulator_, options_.period, [this] { RunCycle(); });
}

void ReplicationManager::Stop() {
  if (timer_ != nullptr) timer_->Stop();
}

void ReplicationManager::RecordDemand(LogicalOid content, int ladder_level) {
  tracker_.Record(content, ladder_level, simulator_->Now());
}

storage::ObjectStore* ReplicationManager::StoreFor(SiteId site) {
  for (storage::ObjectStore* store : stores_) {
    if (store->site() == site) return store;
  }
  return nullptr;
}

PlacementSnapshot ReplicationManager::BuildSnapshot() {
  PlacementSnapshot snapshot;
  for (storage::ObjectStore* store : stores_) {
    snapshot.sites.push_back(store->site());
    if (store->capacity_kb() > 0.0) {
      snapshot.free_kb.emplace_back(
          store->site(),
          store->capacity_kb() - store->used_kb());
    }
  }
  // Placement: every replica registered in metadata whose quality matches
  // a ladder level.
  for (const media::VideoContent* content : metadata_->AllContents()) {
    for (const media::ReplicaInfo* replica :
         metadata_->ReplicasOf(content->id)) {
      for (size_t level = 0; level < ladder_.levels.size(); ++level) {
        if (replica->qos == ladder_.levels[level]) {
          double warmth =
              cache_ != nullptr
                  ? cache_->CachedFraction(replica->site, *replica)
                  : 0.0;
          snapshot.replicas.push_back(PlacementEntry{
              replica->id, content->id, static_cast<int>(level),
              replica->site, replica->size_kb, warmth});
          break;
        }
      }
    }
  }
  snapshot.demand = tracker_.RankedDemand(simulator_->Now());
  // Sizing estimate per demanded (content, level).
  for (const auto& [key, rate] : snapshot.demand) {
    double kb = 0.0;
    if (key.ladder_level >= 0 &&
        key.ladder_level < static_cast<int>(ladder_.levels.size())) {
      const media::VideoContent* content =
          metadata_->FindContent(key.content);
      if (content != nullptr) {
        kb = media::EstimateBitrateKBps(
                 ladder_.levels[static_cast<size_t>(key.ladder_level)]) *
             content->duration_seconds;
      }
    }
    snapshot.demand_replica_kb.push_back(kb);
  }
  return snapshot;
}

void ReplicationManager::RunCycle() {
  ++stats_.cycles;
  PlacementSnapshot snapshot = BuildSnapshot();
  std::vector<ReplicationAction> actions =
      PlanReplicationActions(snapshot, options_.policy);
  for (const ReplicationAction& action : actions) {
    if (action.kind == ReplicationAction::Kind::kDrop) {
      ExecuteDrop(action);
    } else {
      ExecuteCreate(action);
    }
  }
}

void ReplicationManager::ExecuteDrop(const ReplicationAction& action) {
  // Free the physical copy (if any store holds it) and unregister the
  // distribution metadata so the planner stops seeing the replica.
  // In-flight sessions keep their reservations; eviction only removes
  // the replica as a future plan option.
  for (storage::ObjectStore* store : stores_) {
    if (store->Contains(action.victim)) {
      Status status = store->Delete(action.victim);
      assert(status.ok());
      (void)status;
      break;
    }
  }
  if (cache_ != nullptr) cache_->EraseReplica(action.victim);
  Status status = metadata_->EraseReplica(action.victim);
  if (status.ok()) {
    ++stats_.dropped;
    QUASAQ_LOG(kDebug) << "replication: " << action.ToString();
  }
}

void ReplicationManager::ExecuteCreate(const ReplicationAction& action) {
  const media::VideoContent* content = metadata_->FindContent(action.content);
  if (content == nullptr) {
    ++stats_.create_failures;
    return;
  }
  media::ReplicaInfo replica;
  replica.id = PhysicalOid(next_oid_++);
  replica.content = action.content;
  replica.site = action.site;
  replica.qos = ladder_.levels[static_cast<size_t>(action.ladder_level)];
  replica.duration_seconds = content->duration_seconds;
  replica.frame_seed = static_cast<uint64_t>(replica.id.value()) * 97 + 5;
  media::FinalizeReplicaSizing(replica);

  // Offline transcoding takes simulated time before the copy exists.
  SimTime transcode_time = SecondsToSimTime(
      replica.size_kb / options_.transcode_throughput_kbps);
  simulator_->ScheduleAfter(transcode_time, [this, replica] {
    storage::ObjectStore* store = StoreFor(replica.site);
    if (store == nullptr) {
      ++stats_.create_failures;
      return;
    }
    Status status = store->Put(replica);
    if (!status.ok()) {
      // Lost a space race with another creation; count and move on.
      ++stats_.create_failures;
      return;
    }
    status = metadata_->InsertReplica(replica);
    if (!status.ok()) {
      ++stats_.create_failures;
      Status undo = store->Delete(replica.id);
      (void)undo;
      return;
    }
    ++stats_.created;
    QUASAQ_LOG(kDebug) << "replication: materialized oid"
                       << replica.id.value() << " ("
                       << media::AppQosToString(replica.qos) << ") at site"
                       << replica.site.value();
  });
}

}  // namespace quasaq::repl
