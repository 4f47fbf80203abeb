#include "replication/manager.h"

#include <gtest/gtest.h>

#include "replication/access_tracker.h"
#include "replication/policy.h"

namespace quasaq::repl {
namespace {

// --- AccessTracker ---------------------------------------------------------

TEST(AccessTrackerTest, RateCountsWindowOnly) {
  AccessTracker tracker(10 * kSecond);
  tracker.Record(LogicalOid(1), 0, 0);
  tracker.Record(LogicalOid(1), 0, 5 * kSecond);
  auto ranked = tracker.RankedDemand(5 * kSecond);
  ASSERT_EQ(ranked.size(), 1u);
  EXPECT_NEAR(ranked[0].second, 0.2, 1e-9);
  // The t=0 event expires once the window slides past it.
  ranked = tracker.RankedDemand(12 * kSecond);
  ASSERT_EQ(ranked.size(), 1u);
  EXPECT_NEAR(ranked[0].second, 0.1, 1e-9);
  // A key whose events all expired drops out of the ranking.
  EXPECT_TRUE(tracker.RankedDemand(30 * kSecond).empty());
}

TEST(AccessTrackerTest, SeparatesLevelsAndContents) {
  AccessTracker tracker(10 * kSecond);
  tracker.Record(LogicalOid(1), 0, 0);
  tracker.Record(LogicalOid(1), 2, 0);
  tracker.Record(LogicalOid(2), 0, 0);
  auto ranked = tracker.RankedDemand(0);
  ASSERT_EQ(ranked.size(), 3u);
  // Equal rates rank by content, then by ladder level.
  EXPECT_EQ(ranked[0].first, (DemandKey{LogicalOid(1), 0}));
  EXPECT_EQ(ranked[1].first, (DemandKey{LogicalOid(1), 2}));
  EXPECT_EQ(ranked[2].first, (DemandKey{LogicalOid(2), 0}));
  for (const auto& [key, rate] : ranked) EXPECT_GT(rate, 0.0);
  EXPECT_EQ(tracker.total_requests(), 3u);
}

TEST(AccessTrackerTest, RankedDemandSortsDescending) {
  AccessTracker tracker(10 * kSecond);
  for (int i = 0; i < 5; ++i) tracker.Record(LogicalOid(7), 1, 0);
  for (int i = 0; i < 2; ++i) tracker.Record(LogicalOid(3), 0, 0);
  auto ranked = tracker.RankedDemand(0);
  ASSERT_EQ(ranked.size(), 2u);
  EXPECT_EQ(ranked[0].first.content, LogicalOid(7));
  EXPECT_GT(ranked[0].second, ranked[1].second);
}

// --- policy ----------------------------------------------------------------

PlacementSnapshot BaseSnapshot() {
  PlacementSnapshot snapshot;
  snapshot.sites = {SiteId(0), SiteId(1)};
  // One master (level 0) of content 0 per site.
  snapshot.replicas.push_back(
      PlacementEntry{PhysicalOid(0), LogicalOid(0), 0, SiteId(0), 1000.0});
  snapshot.replicas.push_back(
      PlacementEntry{PhysicalOid(1), LogicalOid(0), 0, SiteId(1), 1000.0});
  return snapshot;
}

TEST(PolicyTest, NoDemandNoActions) {
  PlacementSnapshot snapshot = BaseSnapshot();
  EXPECT_TRUE(PlanReplicationActions(snapshot, PolicyOptions()).empty());
}

TEST(PolicyTest, CreatesHotMissingReplicasOnEverySite) {
  PlacementSnapshot snapshot = BaseSnapshot();
  snapshot.demand = {{DemandKey{LogicalOid(0), 2}, 1.0}};
  snapshot.demand_replica_kb = {100.0};
  auto actions = PlanReplicationActions(snapshot, PolicyOptions());
  ASSERT_EQ(actions.size(), 2u);
  for (const ReplicationAction& action : actions) {
    EXPECT_EQ(action.kind, ReplicationAction::Kind::kCreate);
    EXPECT_EQ(action.content, LogicalOid(0));
    EXPECT_EQ(action.ladder_level, 2);
  }
  EXPECT_NE(actions[0].site, actions[1].site);
}

TEST(PolicyTest, ColdDemandBelowThresholdIsIgnored) {
  PlacementSnapshot snapshot = BaseSnapshot();
  snapshot.demand = {{DemandKey{LogicalOid(0), 2}, 0.01}};
  snapshot.demand_replica_kb = {100.0};
  EXPECT_TRUE(PlanReplicationActions(snapshot, PolicyOptions()).empty());
}

TEST(PolicyTest, ExistingPlacementIsNotDuplicated) {
  PlacementSnapshot snapshot = BaseSnapshot();
  snapshot.replicas.push_back(
      PlacementEntry{PhysicalOid(5), LogicalOid(0), 2, SiteId(0), 100.0});
  snapshot.demand = {{DemandKey{LogicalOid(0), 2}, 1.0}};
  snapshot.demand_replica_kb = {100.0};
  auto actions = PlanReplicationActions(snapshot, PolicyOptions());
  ASSERT_EQ(actions.size(), 1u);
  EXPECT_EQ(actions[0].site, SiteId(1));
}

TEST(PolicyTest, ActionBudgetIsRespected) {
  PlacementSnapshot snapshot = BaseSnapshot();
  snapshot.demand = {{DemandKey{LogicalOid(0), 1}, 2.0},
                     {DemandKey{LogicalOid(0), 2}, 1.5},
                     {DemandKey{LogicalOid(0), 3}, 1.0}};
  snapshot.demand_replica_kb = {100.0, 60.0, 20.0};
  PolicyOptions options;
  options.max_actions_per_cycle = 3;
  auto actions = PlanReplicationActions(snapshot, options);
  EXPECT_EQ(actions.size(), 3u);
}

TEST(PolicyTest, EvictsColdReplicaToMakeRoom) {
  PlacementSnapshot snapshot = BaseSnapshot();
  // Site 0 holds a cold level-3 replica and has no free space.
  snapshot.replicas.push_back(
      PlacementEntry{PhysicalOid(9), LogicalOid(4), 3, SiteId(0), 150.0});
  snapshot.free_kb = {{SiteId(0), 50.0}, {SiteId(1), 1000.0}};
  snapshot.demand = {{DemandKey{LogicalOid(0), 2}, 1.0}};
  snapshot.demand_replica_kb = {120.0};
  auto actions = PlanReplicationActions(snapshot, PolicyOptions());
  // Expect: drop the cold replica at site 0, create at both sites.
  int drops = 0;
  int creates = 0;
  for (const ReplicationAction& action : actions) {
    if (action.kind == ReplicationAction::Kind::kDrop) {
      ++drops;
      EXPECT_EQ(action.victim, PhysicalOid(9));
    } else {
      ++creates;
    }
  }
  EXPECT_EQ(drops, 1);
  EXPECT_EQ(creates, 2);
}

TEST(PolicyTest, NeverEvictsMasterCopies) {
  PlacementSnapshot snapshot;
  snapshot.sites = {SiteId(0)};
  snapshot.replicas.push_back(
      PlacementEntry{PhysicalOid(0), LogicalOid(0), 0, SiteId(0), 1000.0});
  snapshot.replicas.push_back(
      PlacementEntry{PhysicalOid(1), LogicalOid(1), 0, SiteId(0), 1000.0});
  snapshot.free_kb = {{SiteId(0), 10.0}};
  snapshot.demand = {{DemandKey{LogicalOid(0), 2}, 5.0}};
  snapshot.demand_replica_kb = {200.0};
  auto actions = PlanReplicationActions(snapshot, PolicyOptions());
  // Only masters exist, nothing evictable -> nothing created either.
  EXPECT_TRUE(actions.empty());
}

TEST(PolicyTest, DoesNotEvictHotterThanNewcomer) {
  PlacementSnapshot snapshot = BaseSnapshot();
  snapshot.replicas.push_back(
      PlacementEntry{PhysicalOid(9), LogicalOid(4), 3, SiteId(0), 150.0});
  snapshot.free_kb = {{SiteId(0), 0.0}};
  // The existing replica's stream is hotter than the candidate.
  snapshot.demand = {{DemandKey{LogicalOid(4), 3}, 2.0},
                     {DemandKey{LogicalOid(0), 2}, 0.5}};
  snapshot.demand_replica_kb = {150.0, 100.0};
  auto actions = PlanReplicationActions(snapshot, PolicyOptions());
  for (const ReplicationAction& action : actions) {
    EXPECT_NE(action.victim, PhysicalOid(9));
  }
}

TEST(PolicyTest, NoMasterAnywhereNoCreate) {
  PlacementSnapshot snapshot;
  snapshot.sites = {SiteId(0)};
  snapshot.replicas.push_back(
      PlacementEntry{PhysicalOid(2), LogicalOid(0), 2, SiteId(0), 100.0});
  snapshot.demand = {{DemandKey{LogicalOid(0), 1}, 5.0}};
  snapshot.demand_replica_kb = {200.0};
  auto actions = PlanReplicationActions(snapshot, PolicyOptions());
  EXPECT_TRUE(actions.empty());
}

TEST(PolicyConsolidationTest, DropsColdExtraCopies) {
  PlacementSnapshot snapshot = BaseSnapshot();
  for (int site = 0; site < 2; ++site) {
    snapshot.replicas.push_back(PlacementEntry{
        PhysicalOid(20 + site), LogicalOid(0), 2, SiteId(site), 100.0});
  }
  PolicyOptions options;
  options.consolidate_cold_replicas = true;
  options.min_copies = 1;
  auto actions = PlanReplicationActions(snapshot, options);
  ASSERT_EQ(actions.size(), 1u);
  EXPECT_EQ(actions[0].kind, ReplicationAction::Kind::kDrop);
  // One of the two level-2 copies goes; masters are untouched.
  EXPECT_GE(actions[0].victim.value(), 20);
}

TEST(PolicyConsolidationTest, WarmGroupsSurvive) {
  PlacementSnapshot snapshot = BaseSnapshot();
  for (int site = 0; site < 2; ++site) {
    snapshot.replicas.push_back(PlacementEntry{
        PhysicalOid(20 + site), LogicalOid(0), 2, SiteId(site), 100.0});
  }
  snapshot.demand = {{DemandKey{LogicalOid(0), 2}, 0.01}};
  snapshot.demand_replica_kb = {100.0};
  PolicyOptions options;
  options.consolidate_cold_replicas = true;
  // Warm (non-zero demand), and 0.01 < create threshold: no action of
  // either kind.
  EXPECT_TRUE(PlanReplicationActions(snapshot, options).empty());
}

TEST(PolicyConsolidationTest, MastersAreNeverConsolidated) {
  PlacementSnapshot snapshot = BaseSnapshot();  // two cold masters
  PolicyOptions options;
  options.consolidate_cold_replicas = true;
  EXPECT_TRUE(PlanReplicationActions(snapshot, options).empty());
}

TEST(PolicyConsolidationTest, FreedSpaceFeedsCreationsInSameCycle) {
  PlacementSnapshot snapshot = BaseSnapshot();
  // Site 0 is full, holding a cold level-3 replica of another content.
  snapshot.replicas.push_back(
      PlacementEntry{PhysicalOid(30), LogicalOid(4), 3, SiteId(0), 150.0});
  snapshot.replicas.push_back(
      PlacementEntry{PhysicalOid(31), LogicalOid(4), 3, SiteId(1), 150.0});
  snapshot.free_kb = {{SiteId(0), 10.0}, {SiteId(1), 1000.0}};
  snapshot.demand = {{DemandKey{LogicalOid(0), 2}, 1.0}};
  snapshot.demand_replica_kb = {120.0};
  PolicyOptions options;
  options.consolidate_cold_replicas = true;
  options.min_copies = 1;
  auto actions = PlanReplicationActions(snapshot, options);
  bool created_at_site0 = false;
  for (const ReplicationAction& action : actions) {
    if (action.kind == ReplicationAction::Kind::kCreate &&
        action.site == SiteId(0)) {
      created_at_site0 = true;
    }
  }
  EXPECT_TRUE(created_at_site0)
      << "consolidation-freed space should enable the hot creation";
}

// --- manager end to end -----------------------------------------------------

class ReplicationManagerTest : public ::testing::Test {
 protected:
  ReplicationManagerTest()
      : sites_({SiteId(0), SiteId(1)}) {
    for (SiteId site : sites_) {
      // Unlimited space by default.
      stores_.push_back(std::make_unique<storage::ObjectStore>(site));
    }
    // Two contents, master copies only, on both sites.
    for (int c = 0; c < 2; ++c) {
      media::VideoContent content;
      content.id = LogicalOid(c);
      content.title = "video" + std::to_string(c);
      content.duration_seconds = 60.0;
      content.master_quality = media::QualityLadder::Standard().levels[0];
      EXPECT_TRUE(metadata_.InsertContent(content).ok());
      for (size_t s = 0; s < sites_.size(); ++s) {
        media::ReplicaInfo replica;
        replica.id = PhysicalOid(c * 10 + static_cast<int64_t>(s));
        replica.content = content.id;
        replica.site = sites_[s];
        replica.qos = content.master_quality;
        replica.duration_seconds = content.duration_seconds;
        media::FinalizeReplicaSizing(replica);
        EXPECT_TRUE(metadata_.InsertReplica(replica).ok());
        EXPECT_TRUE(stores_[s]->Put(replica).ok());
      }
    }
  }

  ReplicationManager MakeManager(ReplicationManager::Options options = {}) {
    std::vector<storage::ObjectStore*> raw;
    for (auto& store : stores_) raw.push_back(store.get());
    return ReplicationManager(&simulator_, &metadata_, raw,
                              media::QualityLadder::Standard(), 1000,
                              options);
  }

  sim::Simulator simulator_;
  std::vector<SiteId> sites_;
  meta::MetadataStore metadata_;
  std::vector<std::unique_ptr<storage::ObjectStore>> stores_;
};

TEST_F(ReplicationManagerTest, HotDemandMaterializesReplicas) {
  ReplicationManager manager = MakeManager();
  for (int i = 0; i < 20; ++i) {
    manager.RecordDemand(LogicalOid(0), 2);
  }
  manager.RunCycle();
  // Creation is asynchronous (offline transcoding time).
  EXPECT_EQ(manager.stats().created, 0u);
  simulator_.RunAll();
  EXPECT_EQ(manager.stats().created, 2u);  // one per site
  // The planner-visible metadata now lists the new level-2 replicas.
  int level2 = 0;
  for (const media::ReplicaInfo* replica :
       metadata_.ReplicasOf(LogicalOid(0))) {
    if (replica->qos == media::QualityLadder::Standard().levels[2]) ++level2;
  }
  EXPECT_EQ(level2, 2);
}

TEST_F(ReplicationManagerTest, CreationTakesTranscodeTime) {
  ReplicationManager::Options options;
  options.transcode_throughput_kbps = 100.0;  // slow transcoder
  ReplicationManager manager = MakeManager(options);
  for (int i = 0; i < 20; ++i) manager.RecordDemand(LogicalOid(0), 3);
  manager.RunCycle();
  // Level-3 replica of a 60 s video ~ 370 KB -> ~3.7 s at 100 KB/s.
  simulator_.RunUntil(1 * kSecond);
  EXPECT_EQ(manager.stats().created, 0u);
  simulator_.RunAll();
  EXPECT_EQ(manager.stats().created, 2u);
}

TEST_F(ReplicationManagerTest, ColdSystemCreatesNothing) {
  ReplicationManager manager = MakeManager();
  manager.RunCycle();
  simulator_.RunAll();
  EXPECT_EQ(manager.stats().created, 0u);
  EXPECT_EQ(manager.stats().dropped, 0u);
}

TEST_F(ReplicationManagerTest, PeriodicCyclesRunWhenStarted) {
  ReplicationManager::Options options;
  options.period = 10 * kSecond;
  ReplicationManager manager = MakeManager(options);
  manager.Start();
  for (int i = 0; i < 20; ++i) manager.RecordDemand(LogicalOid(1), 2);
  simulator_.RunUntil(35 * kSecond);
  manager.Stop();
  EXPECT_GE(manager.stats().cycles, 3u);
  EXPECT_GE(manager.stats().created, 2u);
}

TEST_F(ReplicationManagerTest, DropRemovesStorageAndMetadata) {
  ReplicationManager manager = MakeManager();
  for (int i = 0; i < 20; ++i) manager.RecordDemand(LogicalOid(0), 2);
  manager.RunCycle();
  simulator_.RunAll();
  // Find a created replica and evict it manually through the policy
  // execution path.
  PhysicalOid victim;
  for (const media::ReplicaInfo* replica :
       metadata_.ReplicasOf(LogicalOid(0))) {
    if (replica->qos == media::QualityLadder::Standard().levels[2]) {
      victim = replica->id;
      break;
    }
  }
  ASSERT_TRUE(victim.valid());
  ASSERT_TRUE(metadata_.EraseReplica(victim).ok());
  for (const media::ReplicaInfo* replica :
       metadata_.ReplicasOf(LogicalOid(0))) {
    EXPECT_NE(replica->id, victim);
  }
}

}  // namespace
}  // namespace quasaq::repl
