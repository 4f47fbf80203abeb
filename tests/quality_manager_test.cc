#include "core/quality_manager.h"

#include <gtest/gtest.h>

#include "media/library.h"

namespace quasaq::core {
namespace {

media::VideoContent MakeContent(int64_t oid) {
  media::VideoContent content;
  content.id = LogicalOid(oid);
  content.title = "video" + std::to_string(oid);
  content.duration_seconds = 60.0;
  content.master_quality = media::QualityLadder::Standard().levels[0];
  return content;
}

media::ReplicaInfo MakeReplica(int64_t oid, int64_t content, int site,
                               int level) {
  media::ReplicaInfo replica;
  replica.id = PhysicalOid(oid);
  replica.content = LogicalOid(content);
  replica.site = SiteId(site);
  replica.qos =
      media::QualityLadder::Standard().levels[static_cast<size_t>(level)];
  replica.duration_seconds = 60.0;
  replica.frame_seed = static_cast<uint64_t>(oid);
  media::FinalizeReplicaSizing(replica);
  return replica;
}

class QualityManagerTest : public ::testing::Test {
 protected:
  QualityManagerTest()
      : sites_({SiteId(0), SiteId(1)}),
        api_(&pool_, observability_.metrics()) {
    for (SiteId site : sites_) {
      EXPECT_TRUE(pool_.DeclareBucket({site, ResourceKind::kCpu}, 1.0).ok());
      EXPECT_TRUE(pool_.DeclareBucket({site, ResourceKind::kNetworkBandwidth}, 3200.0).ok());
      EXPECT_TRUE(pool_.DeclareBucket({site, ResourceKind::kDiskBandwidth}, 20000.0).ok());
      EXPECT_TRUE(pool_.DeclareBucket({site, ResourceKind::kMemory}, 1 << 20).ok());
    }
    EXPECT_TRUE(metadata_.InsertContent(MakeContent(0)).ok());
    int64_t oid = 0;
    for (int site = 0; site < 2; ++site) {
      for (int level = 0; level < 3; ++level) {
        EXPECT_TRUE(
            metadata_.InsertReplica(MakeReplica(oid++, 0, site, level)).ok());
      }
    }
  }

  QualityManager MakeManager(QualityManager::Options options = {}) {
    return QualityManager(&metadata_, &api_, &lrb_, sites_, options,
                          observability_);
  }

  query::QosRequirement WideQos() {
    query::QosRequirement qos;
    qos.range.min_frame_rate = 1.0;
    return qos;
  }

  std::vector<SiteId> sites_;
  meta::MetadataStore metadata_;
  res::ResourcePool pool_;
  obs::Observability observability_;
  res::CompositeQosApi api_;
  LrbCostModel lrb_;
};

TEST_F(QualityManagerTest, AdmitsAndReservesBestPlan) {
  QualityManager manager = MakeManager();
  Result<QualityManager::Admitted> admitted =
      manager.AdmitQuery(SiteId(0), LogicalOid(0), WideQos());
  ASSERT_TRUE(admitted.ok()) << admitted.status().ToString();
  EXPECT_NE(admitted->reservation, res::kInvalidReservationId);
  EXPECT_FALSE(admitted->renegotiated);
  EXPECT_GT(pool_.MaxUtilization(), 0.0);
  EXPECT_EQ(manager.stats().queries, 1u);
  EXPECT_EQ(manager.stats().admitted, 1u);
}

TEST_F(QualityManagerTest, LrbPicksTheCheapestSatisfyingStream) {
  QualityManager manager = MakeManager();
  Result<QualityManager::Admitted> admitted =
      manager.AdmitQuery(SiteId(0), LogicalOid(0), WideQos());
  ASSERT_TRUE(admitted.ok());
  // With wide-open QoS the minimum-bucket plan streams the lowest-rate
  // replica (the SIF level) — and, since the user accepts any frame
  // rate >= 1, shaves it further by frame dropping. Pure throughput
  // optimization races to the cheapest acceptable delivery.
  EXPECT_LE(admitted->plan.wire_rate_kbps, 40.0);
  EXPECT_FALSE(admitted->plan.transform.transcode_target.has_value());
  EXPECT_LE(admitted->plan.resources.Get(
                {SiteId(0), ResourceKind::kNetworkBandwidth}) +
                admitted->plan.resources.Get(
                    {SiteId(1), ResourceKind::kNetworkBandwidth}),
            40.0);
}

TEST_F(QualityManagerTest, TightQualityFloorPreventsTheRaceToTheBottom) {
  QualityManager manager = MakeManager();
  query::QosRequirement qos;
  qos.range.min_frame_rate = 20.0;  // the user insists on full motion
  qos.range.min_resolution = media::kResolutionVcd;
  Result<QualityManager::Admitted> admitted =
      manager.AdmitQuery(SiteId(0), LogicalOid(0), qos);
  ASSERT_TRUE(admitted.ok());
  EXPECT_EQ(admitted->plan.transform.drop, media::FrameDropStrategy::kNone);
  EXPECT_GE(admitted->plan.delivered_qos.frame_rate, 20.0);
}

TEST_F(QualityManagerTest, CompleteDeliveryReleasesResources) {
  QualityManager manager = MakeManager();
  Result<QualityManager::Admitted> admitted =
      manager.AdmitQuery(SiteId(0), LogicalOid(0), WideQos());
  ASSERT_TRUE(admitted.ok());
  ASSERT_TRUE(manager.CompleteDelivery(*admitted).ok());
  EXPECT_DOUBLE_EQ(pool_.MaxUtilization(), 0.0);
}

// No stored replica streams at 60 fps. With every source disk full,
// every group's floor also overflows, so the round stops before it
// yields anything; that must not turn "no plan" into "no resources".
TEST_F(QualityManagerTest, UnsatisfiableQosIsNotFound) {
  QualityManager manager = MakeManager();
  query::QosRequirement qos;
  qos.range.min_frame_rate = 60.0;
  Result<QualityManager::Admitted> admitted =
      manager.AdmitQuery(SiteId(0), LogicalOid(0), qos);
  ASSERT_FALSE(admitted.ok());
  EXPECT_EQ(admitted.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(manager.stats().rejected_no_plan, 1u);

  for (SiteId site : sites_) {
    ResourceVector used;
    used.Add({site, ResourceKind::kDiskBandwidth}, 20000.0);
    ASSERT_TRUE(pool_.Acquire(used).ok());
  }
  admitted = manager.AdmitQuery(SiteId(0), LogicalOid(0), qos);
  ASSERT_FALSE(admitted.ok());
  EXPECT_EQ(admitted.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(manager.stats().rejected_no_plan, 2u);
  EXPECT_EQ(manager.stats().rejected_no_resources, 0u);
}

// Under LRB a plan's key is the fullest bucket with the plan overlaid,
// so with every CPU full each plan's key is above 1 and none can fit.
// The walk stops at the frontier head instead of costing them, and
// Reserve, the one fit test, is never asked.
TEST_F(QualityManagerTest, ExhaustedResourcesReject) {
  QualityManager manager = MakeManager();
  for (SiteId site : sites_) {
    ResourceVector used;
    used.Add({site, ResourceKind::kCpu}, 1.0);
    ASSERT_TRUE(pool_.Acquire(used).ok());
  }
  Result<QualityManager::Admitted> admitted =
      manager.AdmitQuery(SiteId(0), LogicalOid(0), WideQos());
  ASSERT_FALSE(admitted.ok());
  EXPECT_EQ(admitted.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(manager.stats().rejected_no_resources, 1u);
  EXPECT_EQ(manager.stats().plans_generated, 0u);
  EXPECT_GT(manager.stats().groups_pruned, 0u);
  EXPECT_EQ(api_.stats().rejected, 0u);
}

// The LRB key is exact. The top-ranked plan of an empty pool is
// admitted when every bucket has exactly its share free: its key is 1.
// With one unit less free on its binding bucket (the one it fills
// most), no plan fits: one that did would need less of every bucket, so
// it would have ranked first. Every key is then above 1, and the walk
// stops before Reserve is asked.
TEST_F(QualityManagerTest, ExactFillIsAdmittedAndOneUnitMoreStops) {
  QualityManager manager = MakeManager();
  Result<QualityManager::Admitted> first =
      manager.AdmitQuery(SiteId(0), LogicalOid(0), WideQos());
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  const ResourceVector top = first->plan.resources;
  ASSERT_TRUE(manager.CompleteDelivery(*first).ok());
  auto share = [&](const BucketId& bucket) {
    return top.Get(bucket) / pool_.Capacity(bucket);
  };
  BucketId binding = top.entries().front().bucket;
  for (const ResourceVector::Entry& e : top.entries()) {
    if (share(e.bucket) > share(binding)) binding = e.bucket;
  }
  // Fills every bucket but `top`'s share, less `short_units` on the
  // binding bucket.
  auto load_all_but_top = [&](int64_t short_units) {
    ResourceVector load;
    for (const BucketId& bucket : pool_.Buckets()) {
      int64_t units = ToResourceUnits(pool_.Capacity(bucket)) -
                      top.Units(bucket);
      if (bucket == binding) units += short_units;
      load.Add(bucket, FromResourceUnits(units));
    }
    return load;
  };

  const ResourceVector exact_load = load_all_but_top(0);
  ASSERT_TRUE(pool_.Acquire(exact_load).ok());
  Result<QualityManager::Admitted> exact =
      manager.AdmitQuery(SiteId(0), LogicalOid(0), WideQos());
  ASSERT_TRUE(exact.ok()) << exact.status().ToString();
  for (const ResourceVector::Entry& e : exact->plan.resources.entries()) {
    EXPECT_EQ(pool_.Used(e.bucket), pool_.Capacity(e.bucket))
        << BucketIdToString(e.bucket);
  }
  ASSERT_TRUE(manager.CompleteDelivery(*exact).ok());
  ASSERT_TRUE(pool_.Release(exact_load).ok());

  ASSERT_TRUE(pool_.Acquire(load_all_but_top(1)).ok());
  Result<QualityManager::Admitted> over =
      manager.AdmitQuery(SiteId(0), LogicalOid(0), WideQos());
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(api_.stats().rejected, 0u);
}

TEST_F(QualityManagerTest, WalksRankingPastInadmissiblePlans) {
  QualityManager manager = MakeManager();
  // Fill site 0's network almost completely: local low-rate plans still
  // fit, but high-rate ones do not.
  ResourceVector used;
  used.Add({SiteId(0), ResourceKind::kNetworkBandwidth}, 3190.0);
  ASSERT_TRUE(pool_.Acquire(used).ok());
  query::QosRequirement qos = WideQos();
  Result<QualityManager::Admitted> admitted =
      manager.AdmitQuery(SiteId(0), LogicalOid(0), qos);
  ASSERT_TRUE(admitted.ok()) << admitted.status().ToString();
}

TEST_F(QualityManagerTest, SingleAttemptSemanticsRejectsMore) {
  // With max_admission_attempts = 1 only the top-ranked plan is tried.
  QualityManager::Options options;
  options.max_admission_attempts = 1;
  QualityManager manager = MakeManager(options);
  // Saturate CPU on both sites so closely that even the leanest plan
  // (a maximally dropped SIF stream needs ~0.1% of a CPU) cannot fit.
  for (SiteId site : sites_) {
    ResourceVector used;
    used.Add({site, ResourceKind::kCpu}, 0.99995);
    ASSERT_TRUE(pool_.Acquire(used).ok());
  }
  Result<QualityManager::Admitted> admitted =
      manager.AdmitQuery(SiteId(0), LogicalOid(0), WideQos());
  EXPECT_FALSE(admitted.ok());
}

TEST_F(QualityManagerTest, RenegotiationGivesSecondChance) {
  QualityManager manager = MakeManager();
  UserProfile profile(UserId(1), "user");
  // QoS window satisfiable only by the DVD master (high everything)...
  query::QosRequirement qos;
  qos.range.min_resolution = media::kResolutionSvcd;
  qos.range.min_color_depth_bits = 24;
  qos.range.min_frame_rate = 20.0;
  // ... but the network can no longer carry a DVD-rate stream anywhere.
  for (SiteId site : sites_) {
    ResourceVector used;
    used.Add({site, ResourceKind::kNetworkBandwidth}, 3000.0);
    ASSERT_TRUE(pool_.Acquire(used).ok());
  }
  Result<QualityManager::Admitted> without =
      manager.AdmitQuery(SiteId(0), LogicalOid(0), qos);
  EXPECT_FALSE(without.ok());

  Result<QualityManager::Admitted> with =
      manager.AdmitQuery(SiteId(0), LogicalOid(0), qos, &profile);
  ASSERT_TRUE(with.ok()) << with.status().ToString();
  EXPECT_TRUE(with->renegotiated);
  EXPECT_GE(manager.stats().renegotiated, 1u);
  // The degraded stream fits in the remaining 200 KB/s.
  EXPECT_LT(with->plan.wire_rate_kbps, 200.0);
}

TEST_F(QualityManagerTest, RenegotiationRoundsAreBounded) {
  QualityManager::Options options;
  options.max_renegotiation_rounds = 1;
  QualityManager manager = MakeManager(options);
  UserProfile profile(UserId(1), "user");
  query::QosRequirement qos;
  qos.range.min_frame_rate = 60.0;  // never satisfiable
  Result<QualityManager::Admitted> admitted =
      manager.AdmitQuery(SiteId(0), LogicalOid(0), qos, &profile);
  EXPECT_FALSE(admitted.ok());
}

// The attempt cap binds renegotiations as it binds admissions: under
// max_admission_attempts = 1 a live renegotiation submits only its
// top-ranked plan, and when that one does not fit the renegotiation
// fails and the running reservation stays as it was.
TEST_F(QualityManagerTest, RenegotiationHonorsTheAttemptCap) {
  query::QosRequirement high;
  high.range.min_resolution = media::kResolutionSvcd;
  high.range.min_color_depth_bits = 24;
  high.range.min_frame_rate = 20.0;
  QualityManager::Options single;
  single.max_admission_attempts = 1;
  QualityManager manager = MakeManager(single);
  Result<QualityManager::Admitted> admitted =
      manager.AdmitQuery(SiteId(0), LogicalOid(0), high);
  ASSERT_TRUE(admitted.ok()) << admitted.status().ToString();
  const SiteId own = admitted->plan.delivery_site;
  const SiteId other = own == SiteId(0) ? SiteId(1) : SiteId(0);

  // Both links end up nearly full, the session's own a little fuller
  // (it carries the session). Counting the session, every plan
  // overflows, so the least-full link ranks first: a plan there does
  // not fit. Only a plan on the session's own link fits, once the
  // session's share is released for the swap.
  auto fill_to = [this](SiteId site, double used) {
    const BucketId net{site, ResourceKind::kNetworkBandwidth};
    ResourceVector load;
    load.Add(net, used - pool_.Used(net));
    ASSERT_TRUE(pool_.Acquire(load).ok());
  };
  fill_to(own, 3150.0);
  fill_to(other, 3100.0);
  const ResourceVector* held = api_.Find(admitted->reservation);
  ASSERT_NE(held, nullptr);
  const ResourceVector before = *held;
  const std::string pool_before = pool_.DebugString();

  Result<QualityManager::Admitted> capped = manager.RenegotiateDelivery(
      admitted->reservation, SiteId(0), LogicalOid(0), high);
  EXPECT_EQ(capped.status().code(), StatusCode::kResourceExhausted);
  held = api_.Find(admitted->reservation);
  ASSERT_NE(held, nullptr);
  ASSERT_EQ(held->size(), before.size());
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(held->entries()[i].bucket, before.entries()[i].bucket);
    EXPECT_EQ(held->entries()[i].units, before.entries()[i].units);
  }
  EXPECT_EQ(pool_.DebugString(), pool_before);

  // Uncapped, the walk goes on to the plan that does fit.
  obs::Observability uncapped_observability;
  QualityManager uncapped(&metadata_, &api_, &lrb_, sites_,
                          QualityManager::Options(), uncapped_observability);
  Result<QualityManager::Admitted> swapped = uncapped.RenegotiateDelivery(
      admitted->reservation, SiteId(0), LogicalOid(0), high);
  ASSERT_TRUE(swapped.ok()) << swapped.status().ToString();
  EXPECT_EQ(swapped->plan.delivery_site, own);
}

// A live swap is ranked against a pool that still holds the session's
// own reservation, which the swap releases first. With both links full,
// counting the session every plan overflows, yet the plan on the
// session's own link fits once its share is freed: the swap must not
// stop where an admission would.
TEST_F(QualityManagerTest, LiveSwapWalksPastTheOverflowKey) {
  query::QosRequirement high;
  high.range.min_resolution = media::kResolutionSvcd;
  high.range.min_color_depth_bits = 24;
  high.range.min_frame_rate = 20.0;
  QualityManager manager = MakeManager();
  Result<QualityManager::Admitted> admitted =
      manager.AdmitQuery(SiteId(0), LogicalOid(0), high);
  ASSERT_TRUE(admitted.ok()) << admitted.status().ToString();
  const SiteId own = admitted->plan.delivery_site;
  const BucketId own_net{own, ResourceKind::kNetworkBandwidth};
  for (SiteId site : sites_) {
    const BucketId net{site, ResourceKind::kNetworkBandwidth};
    ResourceVector load;
    load.Add(net, pool_.Capacity(net) - pool_.Used(net));
    ASSERT_TRUE(pool_.Acquire(load).ok());
  }
  const double own_used = pool_.Used(own_net);

  Result<QualityManager::Admitted> swapped = manager.RenegotiateDelivery(
      admitted->reservation, SiteId(0), LogicalOid(0), high);
  ASSERT_TRUE(swapped.ok()) << swapped.status().ToString();
  EXPECT_EQ(swapped->reservation, admitted->reservation);
  EXPECT_EQ(swapped->plan.delivery_site, own);
  // The adopted plan's key, counting the reservation it replaced.
  EXPECT_GT((own_used + swapped->plan.resources.Get(own_net)) /
                pool_.Capacity(own_net),
            1.0);
}

TEST_F(QualityManagerTest, StatsCountPlansGenerated) {
  QualityManager manager = MakeManager();
  ASSERT_TRUE(
      manager.AdmitQuery(SiteId(0), LogicalOid(0), WideQos()).ok());
  EXPECT_GT(manager.stats().plans_generated, 0u);
}

}  // namespace
}  // namespace quasaq::core
