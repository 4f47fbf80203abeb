#include "core/plan_stream.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/quality_manager.h"
#include "media/library.h"

// The refactoring contract of the lazy best-first plan stream: it must
// yield plans in bit-identical order to the eager materialize-and-sort
// pipeline (same cost key, same tie-breaks), so the streamed Quality
// Manager serves every query the plan an eager walk of the full ranking
// would — only how much of the search space gets expanded differs.

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

query::QosRequirement WideQos() {
  query::QosRequirement qos;
  qos.range.min_frame_rate = 1.0;
  return qos;
}

// Field-by-field exact comparison (doubles with ==, not a tolerance).
void ExpectIdenticalPlans(const Plan& want, const Plan& got) {
  SCOPED_TRACE(want.ToString());
  EXPECT_EQ(got.ToString(), want.ToString());
  EXPECT_EQ(got.cache_fraction, want.cache_fraction);
  EXPECT_EQ(got.delivered_qos, want.delivered_qos);
  EXPECT_EQ(got.wire_rate_kbps, want.wire_rate_kbps);
  EXPECT_EQ(got.startup_seconds, want.startup_seconds);
  ASSERT_EQ(got.resources.size(), want.resources.size());
  for (size_t i = 0; i < want.resources.size(); ++i) {
    EXPECT_EQ(got.resources.entries()[i].bucket,
              want.resources.entries()[i].bucket);
    EXPECT_EQ(got.resources.entries()[i].units,
              want.resources.entries()[i].units);
  }
}

// `got` is the plan `want` with the ranking key the eager evaluator
// gives it, bit for bit.
void ExpectRankedAs(const PlanStream::Ranked& got, const Plan& want,
                    const RuntimeCostEvaluator& evaluator,
                    const res::ResourcePool& pool) {
  ExpectIdenticalPlans(want, got.plan);
  EXPECT_EQ(got.cost, evaluator.EfficiencyCost(want, pool));
  EXPECT_EQ(got.demand, RuntimeCostEvaluator::NormalizedDemand(want, pool));
}

// Two-site search space mirroring the QualityManager tests: one logical
// object, three ladder levels replicated on both sites.
class PlanStreamTest : public ::testing::Test {
 protected:
  PlanStreamTest()
      : sites_({SiteId(0), SiteId(1)}) {
    DeclareBuckets(pool_);
    EXPECT_TRUE(metadata_.InsertContent(MakeContent(0)).ok());
    int64_t oid = 0;
    for (int site = 0; site < 2; ++site) {
      for (int level = 0; level < 3; ++level) {
        EXPECT_TRUE(
            metadata_.InsertReplica(MakeReplica(oid++, 0, site, level)).ok());
      }
    }
  }

  void DeclareBuckets(res::ResourcePool& pool) {
    for (SiteId site : sites_) {
      ASSERT_TRUE(pool.DeclareBucket({site, ResourceKind::kCpu}, 1.0).ok());
      ASSERT_TRUE(pool.DeclareBucket({site, ResourceKind::kNetworkBandwidth}, 3200.0).ok());
      ASSERT_TRUE(pool.DeclareBucket({site, ResourceKind::kDiskBandwidth}, 20000.0).ok());
      ASSERT_TRUE(pool.DeclareBucket({site, ResourceKind::kMemory}, 1 << 20).ok());
    }
  }

  // The eager reference ranking and its per-plan keys.
  std::vector<Plan> EagerRanking(
      PlanGenerator& generator, const RuntimeCostEvaluator& evaluator,
      const query::QosRequirement& qos, const res::ResourcePool& pool,
      const RuntimeCostEvaluator::GainFunction& gain = {}) {
    Result<std::vector<Plan>> plans =
        generator.Generate(SiteId(0), LogicalOid(0), qos);
    EXPECT_TRUE(plans.ok()) << plans.status().ToString();
    evaluator.Rank(*plans, pool, gain);
    return std::move(*plans);
  }

  // Drains `stream` and checks it against `eager`, plan by plan.
  void ExpectDrainsAs(PlanStream& stream, const std::vector<Plan>& eager,
                      const RuntimeCostEvaluator& evaluator,
                      const res::ResourcePool& pool) {
    size_t i = 0;
    while (std::optional<PlanStream::Ranked> ranked = stream.Next()) {
      ASSERT_LT(i, eager.size());
      SCOPED_TRACE("rank " + std::to_string(i));
      ExpectRankedAs(*ranked, eager[i], evaluator, pool);
      ++i;
    }
    EXPECT_EQ(i, eager.size());
  }

  std::vector<SiteId> sites_;
  meta::MetadataStore metadata_;
  res::ResourcePool pool_;
  LrbCostModel lrb_;
};

TEST_F(PlanStreamTest, YieldsEveryPlanInEagerRankingOrder) {
  PlanGenerator generator(&metadata_, sites_, PlanGenerator::Options());
  RuntimeCostEvaluator evaluator(&lrb_);
  query::QosRequirement qos = WideQos();
  std::vector<Plan> eager = EagerRanking(generator, evaluator, qos, pool_);
  ASSERT_FALSE(eager.empty());

  PlanStream stream(&generator, &evaluator, &pool_, SiteId(0), LogicalOid(0),
                    qos);
  ASSERT_TRUE(stream.status().ok());
  size_t i = 0;
  while (std::optional<PlanStream::Ranked> ranked = stream.Next()) {
    ASSERT_LT(i, eager.size());
    EXPECT_EQ(ranked->plan.ToString(), eager[i].ToString()) << "rank " << i;
    EXPECT_DOUBLE_EQ(ranked->cost, evaluator.EfficiencyCost(eager[i], pool_));
    ++i;
  }
  EXPECT_EQ(i, eager.size());
  EXPECT_EQ(stream.stats().plans_yielded, eager.size());
  // Draining the stream expands everything — no pruning without an
  // early-stopping consumer.
  EXPECT_EQ(stream.groups_pruned(), 0u);
}

TEST_F(PlanStreamTest, OrderHoldsUnderLoadedPool) {
  PlanGenerator generator(&metadata_, sites_, PlanGenerator::Options());
  RuntimeCostEvaluator evaluator(&lrb_);
  // Skew the pool so the ranking differs from the cold-pool one: site 0
  // network is nearly full, site 0 disk half full.
  ResourceVector used;
  used.Add({SiteId(0), ResourceKind::kNetworkBandwidth}, 2900.0);
  used.Add({SiteId(0), ResourceKind::kDiskBandwidth}, 10000.0);
  ASSERT_TRUE(pool_.Acquire(used).ok());

  query::QosRequirement qos = WideQos();
  std::vector<Plan> eager = EagerRanking(generator, evaluator, qos, pool_);
  PlanStream stream(&generator, &evaluator, &pool_, SiteId(0), LogicalOid(0),
                    qos);
  size_t i = 0;
  while (std::optional<PlanStream::Ranked> ranked = stream.Next()) {
    ASSERT_LT(i, eager.size());
    EXPECT_EQ(ranked->plan.ToString(), eager[i].ToString()) << "rank " << i;
    ++i;
  }
  EXPECT_EQ(i, eager.size());
}

TEST_F(PlanStreamTest, StatefulRandomModelStillMatchesEagerOrder) {
  // The Random model advances its RNG on every Cost() call, so the
  // stream must fall back to expanding in exact eager call order (no
  // sound lower bound exists). Two independently seeded model instances
  // replay the same draw sequence.
  PlanGenerator generator(&metadata_, sites_, PlanGenerator::Options());
  RandomCostModel eager_model(7);
  RandomCostModel stream_model(7);
  RuntimeCostEvaluator eager_eval(&eager_model);
  RuntimeCostEvaluator stream_eval(&stream_model);
  EXPECT_FALSE(stream_eval.SupportsCostLowerBound());

  query::QosRequirement qos = WideQos();
  std::vector<Plan> eager = EagerRanking(generator, eager_eval, qos, pool_);
  PlanStream stream(&generator, &stream_eval, &pool_, SiteId(0),
                    LogicalOid(0), qos);
  size_t i = 0;
  while (std::optional<PlanStream::Ranked> ranked = stream.Next()) {
    ASSERT_LT(i, eager.size());
    EXPECT_EQ(ranked->plan.ToString(), eager[i].ToString()) << "rank " << i;
    ++i;
  }
  EXPECT_EQ(i, eager.size());
}

TEST_F(PlanStreamTest, GainFunctionDisablesTheBoundButNotTheOrder) {
  PlanGenerator generator(&metadata_, sites_, PlanGenerator::Options());
  RuntimeCostEvaluator evaluator(&lrb_);
  query::QosRequirement qos = WideQos();
  qos.range.min_frame_rate = 10.0;
  const RuntimeCostEvaluator::GainFunction gain =
      MakeSatisfactionGain(qos.range, UtilityWeights());
  EXPECT_FALSE(evaluator.SupportsCostLowerBound(gain));
  EXPECT_TRUE(evaluator.SupportsCostLowerBound());

  std::vector<Plan> eager =
      EagerRanking(generator, evaluator, qos, pool_, gain);
  PlanStream stream(&generator, &evaluator, &pool_, SiteId(0), LogicalOid(0),
                    qos, gain);
  size_t i = 0;
  while (std::optional<PlanStream::Ranked> ranked = stream.Next()) {
    ASSERT_LT(i, eager.size());
    EXPECT_EQ(ranked->plan.ToString(), eager[i].ToString()) << "rank " << i;
    ++i;
  }
  EXPECT_EQ(i, eager.size());

  // Reset takes the round's gain with its window: without one, the
  // stream ranks by pure cost again.
  stream.Reset(qos);
  ExpectDrainsAs(stream, EagerRanking(generator, evaluator, qos, pool_),
                 evaluator, pool_);
}

TEST_F(PlanStreamTest, GroupFloorNeverExceedsAnyPlanOfItsGroup) {
  // Load every bucket kind the floor covers, so the bound's max lands on
  // different buckets across groups.
  ResourceVector used;
  used.Add({SiteId(0), ResourceKind::kNetworkBandwidth}, 2400.0);
  used.Add({SiteId(0), ResourceKind::kDiskBandwidth}, 9000.0);
  used.Add({SiteId(1), ResourceKind::kCpu}, 0.7);
  used.Add({SiteId(1), ResourceKind::kMemory}, 900000.0);
  ASSERT_TRUE(pool_.Acquire(used).ok());

  std::vector<query::QosRequirement> requirements;
  for (media::SecurityLevel security :
       {media::SecurityLevel::kNone, media::SecurityLevel::kStandard,
        media::SecurityLevel::kStrong}) {
    for (double startup : {0.0, 3.0}) {
      for (double min_fps : {1.0, 12.0}) {
        query::QosRequirement qos = WideQos();
        qos.range.min_frame_rate = min_fps;
        qos.min_security = security;
        qos.max_startup_seconds = startup;
        requirements.push_back(qos);
      }
    }
  }
  size_t plans_checked = 0;
  for (bool pruning : {true, false}) {
    PlanGenerator::Options options;
    options.apply_static_pruning = pruning;
    PlanGenerator generator(&metadata_, sites_, options);
    Result<std::vector<PlanGenerator::GroupSeed>> groups =
        generator.EnumerateGroups(SiteId(0), LogicalOid(0));
    ASSERT_TRUE(groups.ok());
    for (PlanGenerator::GroupSeed seed : *groups) {
      for (double cache_fraction : {0.0, 0.3, 1.0}) {
        seed.cache_fraction = cache_fraction;
        for (const query::QosRequirement& qos : requirements) {
          ResourceVector floor;
          generator.GroupDemandFloor(
              seed, generator.BuildChoiceTable(seed, qos), floor);
          double bound = lrb_.Cost(floor, pool_);
          std::vector<Plan> plans;
          generator.ExpandGroup(seed, qos, plans);
          for (const Plan& plan : plans) {
            // Component-wise, and therefore under the LRB overlay.
            for (const ResourceVector::Entry& e : floor.entries()) {
              EXPECT_LE(e.units, plan.resources.Units(e.bucket))
                  << BucketIdToString(e.bucket) << " of " << plan.ToString();
            }
            EXPECT_LE(bound, lrb_.Cost(plan.resources, pool_))
                << plan.ToString();
            // The frontier's tie-break half of the key: exact, not
            // within a tolerance.
            EXPECT_LE(pool_.FractionalDemand(floor),
                      pool_.FractionalDemand(plan.resources))
                << plan.ToString();
            ++plans_checked;
          }
        }
      }
    }
  }
  EXPECT_GT(plans_checked, 1000u);
}

TEST_F(PlanStreamTest, TiesAtTheGlobalMaxFillPruneByFloorDemand) {
  // Site 0's memory-bandwidth bucket runs hottest and no plan touches it
  // (no cache view, so no cache-served twins): every plan's LRB cost is
  // exactly that bucket's fill, so every group's bound ties with every
  // plan and only the normalized-demand tie-break separates them.
  const BucketId hot{SiteId(0), ResourceKind::kMemoryBandwidth};
  ASSERT_TRUE(pool_.DeclareBucket(hot, 1000.0).ok());
  ResourceVector used;
  used.Add(hot, 990.0);
  ASSERT_TRUE(pool_.Acquire(used).ok());

  PlanGenerator generator(&metadata_, sites_, PlanGenerator::Options());
  RuntimeCostEvaluator evaluator(&lrb_);
  query::QosRequirement qos = WideQos();
  std::vector<Plan> eager = EagerRanking(generator, evaluator, qos, pool_);
  ASSERT_FALSE(eager.empty());
  for (const Plan& plan : eager) {
    ASSERT_EQ(evaluator.EfficiencyCost(plan, pool_), pool_.Utilization(hot))
        << plan.ToString();
  }

  PlanStream stream(&generator, &evaluator, &pool_, SiteId(0), LogicalOid(0),
                    qos);
  std::optional<PlanStream::Ranked> first = stream.Next();
  ASSERT_TRUE(first.has_value());
  ExpectRankedAs(*first, eager.front(), evaluator, pool_);
  // An admission stops here: groups whose floor demand exceeds the
  // first plan's demand were never expanded.
  EXPECT_GT(stream.groups_pruned(), 0u);

  // The rest of the order is the eager one as well.
  eager.erase(eager.begin());
  ExpectDrainsAs(stream, eager, evaluator, pool_);
}

TEST_F(PlanStreamTest, RelayedAndLocalGroupsOfOneStoredQualityKeepOwnTables) {
  // The fixture stores each quality at both sites, so every stored
  // quality has local and relayed groups. A 3.6 s Time Guarantee admits
  // local transcodes and blocks relayed ones, so a table shared across
  // the two would add or drop plans.
  const PlanCostConstants constants;
  ASSERT_LE(DiskStartupSeconds(false, true, constants), 3.6);
  ASSERT_GT(DiskStartupSeconds(true, true, constants), 3.6);
  query::QosRequirement qos = WideQos();
  qos.max_startup_seconds = 3.6;

  PlanGenerator generator(&metadata_, sites_, PlanGenerator::Options());
  RuntimeCostEvaluator evaluator(&lrb_);
  std::vector<Plan> eager = EagerRanking(generator, evaluator, qos, pool_);
  size_t local_transcodes = 0;
  size_t relayed = 0;
  for (const Plan& plan : eager) {
    const bool transcoded = plan.transform.transcode_target.has_value();
    ASSERT_FALSE(plan.IsRelayed() && transcoded) << plan.ToString();
    if (plan.IsRelayed()) ++relayed;
    if (!plan.IsRelayed() && transcoded) ++local_transcodes;
  }
  ASSERT_GT(local_transcodes, 0u);
  ASSERT_GT(relayed, 0u);

  PlanStream stream(&generator, &evaluator, &pool_, SiteId(0), LogicalOid(0),
                    qos);
  ExpectDrainsAs(stream, eager, evaluator, pool_);
}

TEST_F(PlanStreamTest, ReplicasOfOneStoredQualityShareATable) {
  // Two replicas of the same stored quality whose bitrates differ: the
  // rates a table holds never read the bitrate, so one table serves
  // both, while the retrieval and transfer entries still follow each
  // replica's own bitrate. Each table below comes from a fresh
  // generator, so its candidates are priced from the replica it is
  // asked for, not from whichever replica of the key came first.
  meta::MetadataStore metadata;
  ASSERT_TRUE(metadata.InsertContent(MakeContent(0)).ok());
  ASSERT_TRUE(metadata.InsertReplica(MakeReplica(0, 0, 0, 1)).ok());
  media::ReplicaInfo heavier = MakeReplica(1, 0, 1, 1);
  heavier.bitrate_kbps *= 1.5;
  heavier.size_kb *= 1.5;
  ASSERT_TRUE(metadata.InsertReplica(heavier).ok());

  PlanGenerator generator(&metadata, sites_, PlanGenerator::Options());
  Result<std::vector<PlanGenerator::GroupSeed>> groups =
      generator.EnumerateGroups(SiteId(0), LogicalOid(0));
  ASSERT_TRUE(groups.ok());
  ASSERT_EQ(groups->size(), 4u);  // 2 replicas x 2 delivery sites
  query::QosRequirement qos = WideQos();
  qos.min_security = media::SecurityLevel::kStandard;
  size_t shared_pairs = 0;
  for (const PlanGenerator::GroupSeed& seed : *groups) {
    for (const PlanGenerator::GroupSeed& other : *groups) {
      if (PlanGenerator::KeyOf(other) != PlanGenerator::KeyOf(seed) ||
          other.replica.id == seed.replica.id) {
        continue;
      }
      SCOPED_TRACE("replica " + std::to_string(seed.replica.id.value()) +
                   " ->site" + std::to_string(seed.delivery_site.value()) +
                   " on the table of replica " +
                   std::to_string(other.replica.id.value()));
      // Each side's table is priced on its own fresh generator, so the
      // two really come from different replicas.
      const PlanGenerator other_generator(&metadata, sites_,
                                          PlanGenerator::Options());
      const PlanGenerator own_generator(&metadata, sites_,
                                        PlanGenerator::Options());
      const PlanGenerator::ChoiceTable shared =
          other_generator.BuildChoiceTable(other, qos);
      const PlanGenerator::ChoiceTable own =
          own_generator.BuildChoiceTable(seed, qos);
      std::vector<Plan> own_plans;
      std::vector<Plan> shared_plans;
      generator.ExpandGroup(seed, own, own_plans);
      generator.ExpandGroup(seed, shared, shared_plans);
      ASSERT_FALSE(own_plans.empty());
      ASSERT_EQ(shared_plans.size(), own_plans.size());
      for (size_t i = 0; i < own_plans.size(); ++i) {
        ExpectIdenticalPlans(own_plans[i], shared_plans[i]);
      }
      ResourceVector own_floor;
      ResourceVector shared_floor;
      generator.GroupDemandFloor(seed, own, own_floor);
      generator.GroupDemandFloor(seed, shared, shared_floor);
      EXPECT_EQ(shared_floor.ToString(), own_floor.ToString());
      ASSERT_EQ(shared_floor.size(), own_floor.size());
      for (size_t i = 0; i < own_floor.size(); ++i) {
        EXPECT_EQ(shared_floor.entries()[i].units,
                  own_floor.entries()[i].units);
      }
      ++shared_pairs;
    }
  }
  // Local and relayed groups of each replica found their twin key.
  EXPECT_EQ(shared_pairs, 4u);

  // And the stream, which shares tables across the groups, ranks as the
  // eager path, which builds one per group.
  ResourceVector used;
  used.Add({SiteId(0), ResourceKind::kNetworkBandwidth}, 2000.0);
  ASSERT_TRUE(pool_.Acquire(used).ok());
  RuntimeCostEvaluator evaluator(&lrb_);
  std::vector<Plan> eager = EagerRanking(generator, evaluator, qos, pool_);
  PlanStream stream(&generator, &evaluator, &pool_, SiteId(0), LogicalOid(0),
                    qos);
  ExpectDrainsAs(stream, eager, evaluator, pool_);
}

// Groups whose choice table is empty under `qos`: no transcode target
// and drop of their stored quality meets the window.
size_t EmptyGroups(const PlanGenerator& generator,
                   const query::QosRequirement& qos) {
  Result<std::vector<PlanGenerator::GroupSeed>> groups =
      generator.EnumerateGroups(SiteId(0), LogicalOid(0));
  EXPECT_TRUE(groups.ok());
  size_t empty = 0;
  for (const PlanGenerator::GroupSeed& seed : *groups) {
    if (generator.BuildChoiceTable(seed, qos).choices.empty()) ++empty;
  }
  return empty;
}

// A 20 fps floor: the SIF level is stored at 15 fps and nothing raises a
// frame rate, so its local and relayed groups have no choice, while the
// DVD and VCD levels (23.97 fps) keep theirs.
query::QosRequirement SifExcludingQos() {
  query::QosRequirement qos;
  qos.range.min_frame_rate = 20.0;
  return qos;
}

TEST_F(PlanStreamTest, GroupsWithNoFeasibleChoiceAreNeverSeeded) {
  PlanGenerator generator(&metadata_, sites_, PlanGenerator::Options());
  const query::QosRequirement qos = SifExcludingQos();
  const size_t empty = EmptyGroups(generator, qos);
  ASSERT_EQ(empty, 4u);  // SIF at 2 sites x 2 delivery sites
  ResourceVector used;
  used.Add({SiteId(0), ResourceKind::kNetworkBandwidth}, 2000.0);
  used.Add({SiteId(1), ResourceKind::kDiskBandwidth}, 12000.0);
  ASSERT_TRUE(pool_.Acquire(used).ok());

  // The Random model draws once per costed plan, so an empty group that
  // was still costed would shift its draws.
  RandomCostModel eager_random(11);
  RandomCostModel stream_random(11);
  struct Models {
    CostModel* eager;
    CostModel* stream;
  };
  for (const Models& models :
       {Models{&lrb_, &lrb_}, Models{&eager_random, &stream_random}}) {
    RuntimeCostEvaluator eager_eval(models.eager);
    RuntimeCostEvaluator stream_eval(models.stream);
    std::vector<Plan> eager = EagerRanking(generator, eager_eval, qos, pool_);
    ASSERT_FALSE(eager.empty());
    PlanStream stream(&generator, &stream_eval, &pool_, SiteId(0),
                      LogicalOid(0), qos);
    ASSERT_TRUE(stream.has_plans());
    EXPECT_EQ(stream.stats().groups, 12u);
    EXPECT_EQ(stream.stats().groups_skipped, empty);
    size_t i = 0;
    while (std::optional<PlanStream::Ranked> ranked = stream.Next()) {
      ASSERT_LT(i, eager.size());
      EXPECT_EQ(ranked->plan.ToString(), eager[i].ToString()) << "rank " << i;
      ++i;
    }
    EXPECT_EQ(i, eager.size());
    // Drained: every seeded group was expanded, no skipped one was.
    EXPECT_EQ(stream.stats().groups_expanded, 12u - empty);
    EXPECT_EQ(stream.groups_pruned(), 0u);
  }

  // An admission-style stop after the first plan: the groups left
  // unexpanded are the seeded ones alone.
  RuntimeCostEvaluator evaluator(&lrb_);
  PlanStream stream(&generator, &evaluator, &pool_, SiteId(0), LogicalOid(0),
                    qos);
  ASSERT_TRUE(stream.Next().has_value());
  EXPECT_EQ(stream.stats().groups_skipped, empty);
  EXPECT_EQ(stream.groups_pruned(),
            12u - empty - stream.stats().groups_expanded);
}

TEST_F(PlanStreamTest, AllEmptyTablesSeedNothingAndRejectAsNotFound) {
  query::QosRequirement impossible;
  impossible.range.min_frame_rate = 60.0;
  PlanGenerator generator(&metadata_, sites_, PlanGenerator::Options());
  ASSERT_EQ(EmptyGroups(generator, impossible), 12u);
  RuntimeCostEvaluator evaluator(&lrb_);
  PlanStream stream(&generator, &evaluator, &pool_, SiteId(0), LogicalOid(0),
                    impossible);
  ASSERT_TRUE(stream.status().ok());
  EXPECT_FALSE(stream.has_plans());
  EXPECT_FALSE(stream.FrontierBound().has_value());
  EXPECT_FALSE(stream.Next().has_value());
  EXPECT_EQ(stream.stats().groups_skipped, 12u);
  EXPECT_EQ(stream.stats().groups_expanded, 0u);
  EXPECT_EQ(stream.groups_pruned(), 0u);

  obs::Observability observability;
  res::CompositeQosApi api(&pool_, observability.metrics());
  QualityManager manager(&metadata_, &api, &lrb_, sites_,
                         QualityManager::Options(), observability);
  Result<QualityManager::Admitted> admitted =
      manager.AdmitQuery(SiteId(0), LogicalOid(0), impossible);
  ASSERT_FALSE(admitted.ok());
  EXPECT_EQ(admitted.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(admitted.status().message(), "no plan satisfies the QoS bounds");
  const QualityManager::Stats stats = manager.stats();
  EXPECT_EQ(stats.rejected_no_plan, 1u);
  EXPECT_EQ(stats.plans_generated, 0u);
  EXPECT_EQ(stats.groups_skipped, 12u);
  EXPECT_EQ(stats.groups_pruned, 0u);
}

TEST_F(PlanStreamTest, GroupEmptyInOneRoundIsSeededAfterARelaxingReset) {
  PlanGenerator generator(&metadata_, sites_, PlanGenerator::Options());
  RuntimeCostEvaluator evaluator(&lrb_);
  PlanStream stream(&generator, &evaluator, &pool_, SiteId(0), LogicalOid(0),
                    SifExcludingQos());
  ASSERT_TRUE(stream.Next().has_value());
  EXPECT_EQ(stream.stats().groups_skipped, 4u);

  // 10 fps admits the 15 fps SIF level again: every table has choices.
  query::QosRequirement relaxed = SifExcludingQos();
  relaxed.range.min_frame_rate = 10.0;
  ASSERT_EQ(EmptyGroups(generator, relaxed), 0u);
  std::vector<Plan> eager = EagerRanking(generator, evaluator, relaxed, pool_);
  const media::AppQos sif = media::QualityLadder::Standard().levels[2];
  ASSERT_TRUE(std::any_of(eager.begin(), eager.end(), [&](const Plan& plan) {
    const media::ReplicaInfo* replica =
        metadata_.FindReplica(plan.replica_oid);
    return replica != nullptr && replica->qos == sif;
  }));
  const size_t expanded_before = stream.stats().groups_expanded;
  stream.Reset(relaxed);
  EXPECT_TRUE(stream.has_plans());
  EXPECT_EQ(stream.stats().groups, 24u);
  EXPECT_EQ(stream.stats().groups_skipped, 4u);  // round 1's alone
  ExpectDrainsAs(stream, eager, evaluator, pool_);
  EXPECT_EQ(stream.stats().groups_expanded, expanded_before + 12u);
}

TEST_F(PlanStreamTest, UnknownContentFailsConstruction) {
  PlanGenerator generator(&metadata_, sites_, PlanGenerator::Options());
  RuntimeCostEvaluator evaluator(&lrb_);
  PlanStream stream(&generator, &evaluator, &pool_, SiteId(0),
                    LogicalOid(99), WideQos());
  EXPECT_EQ(stream.status().code(), StatusCode::kNotFound);
  EXPECT_FALSE(stream.Next().has_value());
}

// Test-local eager reference for the Quality Manager's admission walk:
// materialize the whole space with PlanGenerator::Generate, rank it, and
// walk the ranking through admission control (Admissible, then Reserve)
// for at most max_admission_attempts plans. Every relaxation round
// re-generates from scratch, where the manager reuses one stream.
class EagerAdmissionOracle {
 public:
  EagerAdmissionOracle(const meta::MetadataStore* metadata,
                       std::vector<SiteId> sites, res::CompositeQosApi* api,
                       CostModel* cost_model,
                       const QualityManager::Options& options)
      : api_(api),
        generator_(metadata, std::move(sites), options.generator),
        evaluator_(cost_model),
        options_(options) {}

  Result<QualityManager::Admitted> AdmitQuery(
      SiteId query_site, LogicalOid content, const query::QosRequirement& qos,
      const UserProfile* profile = nullptr) {
    query::QosRequirement bounds = qos;
    bool any_plans_seen = false;
    for (int round = 0; round <= options_.max_renegotiation_rounds; ++round) {
      if (round > 0 &&
          (profile == nullptr ||
           !profile->RelaxForRenegotiation(bounds.range))) {
        break;
      }
      Result<std::vector<Plan>> plans =
          generator_.Generate(query_site, content, bounds);
      if (!plans.ok()) return plans.status();
      plans_generated_ += plans->size();
      any_plans_seen = any_plans_seen || !plans->empty();
      evaluator_.Rank(*plans, api_->pool());
      int attempts = 0;
      for (Plan& plan : *plans) {
        if (options_.max_admission_attempts > 0 &&
            attempts >= options_.max_admission_attempts) {
          break;
        }
        ++attempts;
        if (!api_->Admissible(plan.resources)) continue;
        Result<res::ReservationId> reservation = api_->Reserve(plan.resources);
        if (!reservation.ok()) continue;
        QualityManager::Admitted admitted;
        admitted.plan = std::move(plan);
        admitted.reservation = *reservation;
        admitted.renegotiated = round > 0;
        if (admitted.renegotiated) ++renegotiated_;
        return admitted;
      }
    }
    if (any_plans_seen) return Status::ResourceExhausted("no admittable plan");
    return Status::NotFound("no plan satisfies the QoS bounds");
  }

  Result<std::vector<QualityManager::RankedPlan>> ExplainPlans(
      SiteId query_site, LogicalOid content, const query::QosRequirement& qos,
      size_t limit) {
    Result<std::vector<Plan>> plans =
        generator_.Generate(query_site, content, qos);
    if (!plans.ok()) return plans.status();
    plans_generated_ += plans->size();
    evaluator_.Rank(*plans, api_->pool());
    std::vector<QualityManager::RankedPlan> ranked;
    for (Plan& plan : *plans) {
      if (ranked.size() >= limit) break;
      QualityManager::RankedPlan entry;
      entry.cost = evaluator_.EfficiencyCost(plan, api_->pool());
      entry.admissible = api_->Admissible(plan.resources);
      entry.plan = std::move(plan);
      ranked.push_back(std::move(entry));
    }
    return ranked;
  }

  // Sum of Generate(...)->size() over every call so far.
  uint64_t plans_generated() const { return plans_generated_; }
  uint64_t renegotiated() const { return renegotiated_; }

 private:
  res::CompositeQosApi* api_;
  PlanGenerator generator_;
  RuntimeCostEvaluator evaluator_;
  QualityManager::Options options_;
  uint64_t plans_generated_ = 0;
  uint64_t renegotiated_ = 0;
};

// The streamed QualityManager side by side with the eager oracle over
// identically declared pools. Every scenario must produce the same
// admitted plan (or the same rejection), and the pools must drift in
// lockstep.
class StreamedVsEagerTest : public PlanStreamTest {
 protected:
  StreamedVsEagerTest()
      : eager_api_(&eager_pool_, eager_observability_.metrics()),
        streamed_api_(&streamed_pool_, streamed_observability_.metrics()) {
    DeclareBuckets(eager_pool_);
    DeclareBuckets(streamed_pool_);
    QualityManager::Options options;
    eager_ = std::make_unique<EagerAdmissionOracle>(&metadata_, sites_,
                                                    &eager_api_, &lrb_,
                                                    options);
    streamed_ = std::make_unique<QualityManager>(
        &metadata_, &streamed_api_, &lrb_, sites_, options,
        streamed_observability_);
  }

  void ExpectSameOutcome(const query::QosRequirement& qos,
                         const UserProfile* profile = nullptr) {
    Result<QualityManager::Admitted> eager =
        eager_->AdmitQuery(SiteId(0), LogicalOid(0), qos, profile);
    Result<QualityManager::Admitted> streamed =
        streamed_->AdmitQuery(SiteId(0), LogicalOid(0), qos, profile);
    ASSERT_EQ(eager.ok(), streamed.ok())
        << "eager: " << eager.status().ToString()
        << " streamed: " << streamed.status().ToString();
    if (eager.ok()) {
      EXPECT_EQ(eager->plan.ToString(), streamed->plan.ToString());
      EXPECT_DOUBLE_EQ(eager->plan.wire_rate_kbps,
                       streamed->plan.wire_rate_kbps);
      EXPECT_EQ(eager->renegotiated, streamed->renegotiated);
      EXPECT_DOUBLE_EQ(eager_pool_.MaxUtilization(),
                       streamed_pool_.MaxUtilization());
    } else {
      EXPECT_EQ(eager.status().code(), streamed.status().code());
    }
  }

  res::ResourcePool eager_pool_;
  res::ResourcePool streamed_pool_;
  obs::Observability eager_observability_;
  obs::Observability streamed_observability_;
  res::CompositeQosApi eager_api_;
  res::CompositeQosApi streamed_api_;
  std::unique_ptr<EagerAdmissionOracle> eager_;
  std::unique_ptr<QualityManager> streamed_;
};

TEST_F(StreamedVsEagerTest, AdmitsIdenticalPlansAcrossScenarios) {
  // Wide-open QoS, repeated until the pools carry real load.
  for (int i = 0; i < 4; ++i) ExpectSameOutcome(WideQos());
  // Tight quality floor.
  query::QosRequirement tight;
  tight.range.min_frame_rate = 20.0;
  tight.range.min_resolution = media::kResolutionVcd;
  ExpectSameOutcome(tight);
  // Security requested: encrypted activity sets join the space.
  query::QosRequirement secure = WideQos();
  secure.min_security = media::SecurityLevel::kStandard;
  ExpectSameOutcome(secure);
  // Unsatisfiable window rejects identically.
  query::QosRequirement impossible;
  impossible.range.min_frame_rate = 60.0;
  ExpectSameOutcome(impossible);
}

TEST_F(StreamedVsEagerTest, RenegotiationMatchesEager) {
  UserProfile profile(UserId(1), "user");
  query::QosRequirement qos;
  qos.range.min_resolution = media::kResolutionSvcd;
  qos.range.min_color_depth_bits = 24;
  qos.range.min_frame_rate = 20.0;
  ResourceVector used;
  for (SiteId site : sites_) {
    used.Add({site, ResourceKind::kNetworkBandwidth}, 3000.0);
  }
  ASSERT_TRUE(eager_pool_.Acquire(used).ok());
  ASSERT_TRUE(streamed_pool_.Acquire(used).ok());
  ExpectSameOutcome(qos, &profile);
  // A DVD floor: the first relaxation (to SVCD) admits no plan the DVD
  // replica does not already offer, so only the second (to VCD) fits.
  qos.range.min_resolution = media::kResolutionDvd;
  ExpectSameOutcome(qos, &profile);
  EXPECT_EQ(eager_->renegotiated(), 2u);
  EXPECT_EQ(eager_->renegotiated(), streamed_->stats().renegotiated);
}

TEST_F(StreamedVsEagerTest, ExplainListingsAreIdentical) {
  Result<std::vector<QualityManager::RankedPlan>> eager =
      eager_->ExplainPlans(SiteId(0), LogicalOid(0), WideQos(), 8);
  Result<std::vector<QualityManager::RankedPlan>> streamed =
      streamed_->ExplainPlans(SiteId(0), LogicalOid(0), WideQos(), 8);
  ASSERT_TRUE(eager.ok());
  ASSERT_TRUE(streamed.ok());
  EXPECT_EQ(QualityManager::FormatPlanListing(LogicalOid(0), *eager),
            QualityManager::FormatPlanListing(LogicalOid(0), *streamed));
}

TEST_F(StreamedVsEagerTest, StreamedMaterializesStrictlyFewerPlans) {
  ExpectSameOutcome(WideQos());
  // The eager walk pays for the whole space on every query; the stream
  // stops at the first admitted plan.
  EXPECT_GT(eager_->plans_generated(), 0u);
  EXPECT_LT(streamed_->stats().plans_generated, eager_->plans_generated());
  EXPECT_GT(streamed_->stats().groups_pruned, 0u);
}

// The generator prices each (stored quality, relayed) key once and keeps
// it: admissions over many QoS windows, relaxation rounds included, add
// no entry beyond one per key of the catalog, and a replica inserted
// later at a new stored quality adds exactly its own keys.
TEST_F(StreamedVsEagerTest, CandidateStoreHoldsOneEntryPerStoredQualityKey) {
  const UserProfile profile(UserId(0), "traffic-default");
  const QopLevel levels[] = {QopLevel::kLow, QopLevel::kMedium,
                             QopLevel::kHigh};
  std::vector<query::QosRequirement> windows;
  for (QopLevel spatial : levels) {
    for (QopLevel temporal : levels) {
      for (QopLevel color : levels) {
        for (double startup : {0.0, 3.0, 3.6}) {
          QopRequest qop;
          qop.spatial = spatial;
          qop.temporal = temporal;
          qop.color = color;
          query::QosRequirement qos;
          qos.range = profile.Translate(qop);
          qos.max_startup_seconds = startup;
          windows.push_back(qos);
        }
      }
    }
  }
  const PlanGenerator& generator = streamed_->generator();
  EXPECT_EQ(generator.candidate_keys(), 0u);  // nothing is priced up front
  for (int pass = 0; pass < 2; ++pass) {
    for (const query::QosRequirement& qos : windows) {
      ExpectSameOutcome(qos, &profile);
    }
    // Three stored qualities at two sites: a local and a relayed key
    // each.
    EXPECT_EQ(generator.candidate_keys(), 6u);
  }
  EXPECT_EQ(streamed_->stats().queries, 2 * windows.size());
  // Some windows admitted; every rejection first ran its relaxation
  // rounds, each a fresh set of tables over the same store.
  EXPECT_GT(streamed_->stats().admitted, 0u);
  EXPECT_GT(streamed_->stats().rejected_no_plan, 0u);

  // The QCIF level, new to the catalog, stored at one site: relay still
  // reaches it from the other, so it adds two keys.
  ASSERT_TRUE(metadata_.InsertReplica(MakeReplica(6, 0, 1, 3)).ok());
  for (const query::QosRequirement& qos : windows) {
    ExpectSameOutcome(qos, &profile);
  }
  EXPECT_EQ(generator.candidate_keys(), 8u);
}

// Satellite regression: ExplainPlans used to enumerate and rank the full
// space before applying `limit`. With one plan per (replica, site) group
// and a disk-dominated pool the group bound is exact, so the stream must
// generate exactly `limit` plans — not the whole space.
TEST(ExplainLimitTest, GenerationStopsAtTheLimit) {
  std::vector<SiteId> sites = {SiteId(0)};
  meta::MetadataStore metadata;
  ASSERT_TRUE(metadata.InsertContent(MakeContent(0)).ok());
  // Four ladder levels at one site: four groups of exactly one plan
  // each once dropping/transcoding/relay are off and no security is
  // requested.
  for (int level = 0; level < 4; ++level) {
    ASSERT_TRUE(
        metadata.InsertReplica(MakeReplica(level, 0, 0, level)).ok());
  }
  res::ResourcePool pool;
  // Disk is the scarce bucket; everything else is effectively infinite,
  // so the LRB cost of a plan equals its group's retrieval bound.
  ASSERT_TRUE(pool.DeclareBucket({SiteId(0), ResourceKind::kCpu}, 1e9).ok());
  ASSERT_TRUE(pool.DeclareBucket({SiteId(0), ResourceKind::kNetworkBandwidth}, 1e9).ok());
  ASSERT_TRUE(pool.DeclareBucket({SiteId(0), ResourceKind::kDiskBandwidth}, 2000.0).ok());
  ASSERT_TRUE(pool.DeclareBucket({SiteId(0), ResourceKind::kMemory}, 1e9).ok());
  obs::Observability observability;
  res::CompositeQosApi api(&pool, observability.metrics());
  LrbCostModel lrb;
  QualityManager::Options options;
  options.generator.enable_frame_dropping = false;
  options.generator.enable_transcoding = false;
  options.generator.enable_relay = false;
  QualityManager manager(&metadata, &api, &lrb, sites, options,
                         observability);

  const size_t limit = 2;
  Result<std::vector<QualityManager::RankedPlan>> plans =
      manager.ExplainPlans(SiteId(0), LogicalOid(0), WideQos(), limit);
  ASSERT_TRUE(plans.ok()) << plans.status().ToString();
  EXPECT_EQ(plans->size(), limit);
  EXPECT_LE(manager.stats().plans_generated, limit);
  EXPECT_EQ(manager.stats().groups_pruned, 4u - limit);
}

}  // namespace
}  // namespace quasaq::core
