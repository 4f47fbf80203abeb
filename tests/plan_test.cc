#include "core/plan.h"

#include <gtest/gtest.h>

#include "media/library.h"

namespace quasaq::core {
namespace {

media::ReplicaInfo MakeReplica(int level, int site) {
  media::ReplicaInfo replica;
  replica.id = PhysicalOid(level * 10 + site);
  replica.content = LogicalOid(0);
  replica.site = SiteId(site);
  replica.qos = media::QualityLadder::Standard().levels[
      static_cast<size_t>(level)];
  replica.duration_seconds = 60.0;
  replica.frame_seed = 1;
  media::FinalizeReplicaSizing(replica);
  return replica;
}

BucketId Bucket(int site, ResourceKind kind) {
  return {SiteId(site), kind};
}

TEST(PlanTest, LocalPlanTouchesOneSiteOnly) {
  media::ReplicaInfo replica = MakeReplica(1, 0);
  Plan plan;
  plan.replica_oid = replica.id;
  plan.source_site = replica.site;
  plan.delivery_site = replica.site;
  FinalizePlan(plan, replica, PlanCostConstants{});
  EXPECT_FALSE(plan.IsRelayed());
  for (const ResourceVector::Entry& e : plan.resources.entries()) {
    EXPECT_EQ(e.bucket.site, SiteId(0));
  }
  EXPECT_NEAR(plan.resources.Get(Bucket(0, ResourceKind::kNetworkBandwidth)),
              replica.bitrate_kbps, 1e-9);
  EXPECT_NEAR(plan.resources.Get(Bucket(0, ResourceKind::kDiskBandwidth)),
              replica.bitrate_kbps, 1e-9);
  EXPECT_GT(plan.resources.Get(Bucket(0, ResourceKind::kCpu)), 0.0);
  EXPECT_GT(plan.resources.Get(Bucket(0, ResourceKind::kMemory)), 0.0);
}

TEST(PlanTest, RelayedPlanChargesBothSites) {
  media::ReplicaInfo replica = MakeReplica(1, 1);
  Plan plan;
  plan.replica_oid = replica.id;
  plan.source_site = replica.site;
  plan.delivery_site = SiteId(0);
  FinalizePlan(plan, replica, PlanCostConstants{});
  EXPECT_TRUE(plan.IsRelayed());
  // Source pays disk + transfer bandwidth + relay CPU.
  EXPECT_GT(plan.resources.Get(Bucket(1, ResourceKind::kDiskBandwidth)), 0.0);
  EXPECT_NEAR(plan.resources.Get(Bucket(1, ResourceKind::kNetworkBandwidth)),
              replica.bitrate_kbps, 1e-9);
  EXPECT_GT(plan.resources.Get(Bucket(1, ResourceKind::kCpu)), 0.0);
  // Delivery pays streaming CPU + client bandwidth + buffers.
  EXPECT_GT(plan.resources.Get(Bucket(0, ResourceKind::kCpu)),
            plan.resources.Get(Bucket(1, ResourceKind::kCpu)));
  EXPECT_NEAR(plan.resources.Get(Bucket(0, ResourceKind::kNetworkBandwidth)),
              plan.wire_rate_kbps, 1e-9);
}

TEST(PlanTest, RelayedPlanCostsMoreThanLocal) {
  media::ReplicaInfo local = MakeReplica(1, 0);
  Plan local_plan;
  local_plan.replica_oid = local.id;
  local_plan.source_site = local.site;
  local_plan.delivery_site = SiteId(0);
  FinalizePlan(local_plan, local, PlanCostConstants{});

  media::ReplicaInfo remote = MakeReplica(1, 1);
  Plan relayed;
  relayed.replica_oid = remote.id;
  relayed.source_site = remote.site;
  relayed.delivery_site = SiteId(0);
  FinalizePlan(relayed, remote, PlanCostConstants{});

  int64_t local_total = 0;
  for (const auto& e : local_plan.resources.entries()) {
    local_total += e.units;
  }
  int64_t relayed_total = 0;
  for (const auto& e : relayed.resources.entries()) {
    relayed_total += e.units;
  }
  EXPECT_GT(relayed_total, local_total);
}

TEST(PlanTest, TranscodePlanReducesWireRateButAddsCpu) {
  media::ReplicaInfo replica = MakeReplica(0, 0);  // DVD master
  Plan plain;
  plain.replica_oid = replica.id;
  plain.source_site = replica.site;
  plain.delivery_site = replica.site;
  FinalizePlan(plain, replica, PlanCostConstants{});

  Plan transcoded = plain;
  transcoded.transform.transcode_target =
      media::QualityLadder::Standard().levels[1];
  FinalizePlan(transcoded, replica, PlanCostConstants{});

  EXPECT_LT(transcoded.wire_rate_kbps, plain.wire_rate_kbps);
  EXPECT_GT(transcoded.resources.Get(Bucket(0, ResourceKind::kCpu)),
            plain.resources.Get(Bucket(0, ResourceKind::kCpu)));
  EXPECT_EQ(transcoded.delivered_qos,
            media::QualityLadder::Standard().levels[1]);
}

TEST(PlanTest, DropPlanReducesDeliveredFrameRate) {
  media::ReplicaInfo replica = MakeReplica(1, 0);
  Plan plan;
  plan.replica_oid = replica.id;
  plan.source_site = replica.site;
  plan.delivery_site = replica.site;
  plan.transform.drop = media::FrameDropStrategy::kAllBFrames;
  FinalizePlan(plan, replica, PlanCostConstants{});
  EXPECT_NEAR(plan.delivered_qos.frame_rate,
              replica.qos.frame_rate / 3.0, 1e-9);
  EXPECT_LT(plan.wire_rate_kbps, replica.bitrate_kbps);
}

TEST(PlanTest, EncryptionAddsCpuOnly) {
  media::ReplicaInfo replica = MakeReplica(1, 0);
  Plan plain;
  plain.replica_oid = replica.id;
  plain.source_site = replica.site;
  plain.delivery_site = replica.site;
  FinalizePlan(plain, replica, PlanCostConstants{});

  Plan encrypted = plain;
  encrypted.transform.encryption = media::EncryptionAlgorithm::kAlgorithm1;
  FinalizePlan(encrypted, replica, PlanCostConstants{});

  EXPECT_GT(encrypted.resources.Get(Bucket(0, ResourceKind::kCpu)),
            plain.resources.Get(Bucket(0, ResourceKind::kCpu)));
  EXPECT_DOUBLE_EQ(encrypted.wire_rate_kbps, plain.wire_rate_kbps);
}

TEST(PlanTest, ToStringDescribesActivities) {
  media::ReplicaInfo replica = MakeReplica(0, 1);
  Plan plan;
  plan.replica_oid = replica.id;
  plan.source_site = replica.site;
  plan.delivery_site = SiteId(0);
  plan.transform.drop = media::FrameDropStrategy::kHalfBFrames;
  plan.transform.transcode_target =
      media::QualityLadder::Standard().levels[1];
  plan.transform.encryption = media::EncryptionAlgorithm::kAlgorithm2;
  FinalizePlan(plan, replica, PlanCostConstants{});
  std::string s = plan.ToString();
  EXPECT_NE(s.find("@site1"), std::string::npos);
  EXPECT_NE(s.find("->site0"), std::string::npos);
  EXPECT_NE(s.find("half-B"), std::string::npos);
  EXPECT_NE(s.find("transcode"), std::string::npos);
  EXPECT_NE(s.find("enc2"), std::string::npos);
}

TEST(PlanTest, BufferScalesWithWireRate) {
  media::ReplicaInfo replica = MakeReplica(1, 0);
  Plan plan;
  plan.replica_oid = replica.id;
  plan.source_site = replica.site;
  plan.delivery_site = replica.site;
  PlanCostConstants constants;
  constants.buffer_seconds = 4.0;
  FinalizePlan(plan, replica, constants);
  EXPECT_NEAR(plan.resources.Get(Bucket(0, ResourceKind::kMemory)),
              plan.wire_rate_kbps * 4.0, 1e-9);
}

}  // namespace
}  // namespace quasaq::core
