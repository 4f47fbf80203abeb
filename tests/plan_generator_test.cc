#include "core/plan_generator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "core/qop.h"
#include "media/library.h"
#include "net/rtp.h"

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

class PlanGeneratorTest : public ::testing::Test {
 protected:
  PlanGeneratorTest()
      : sites_({SiteId(0), SiteId(1)}) {
    EXPECT_TRUE(metadata_.InsertContent(MakeContent(0)).ok());
    // DVD master at both sites; VCD copy at site 0 only.
    EXPECT_TRUE(metadata_.InsertReplica(MakeReplica(0, 0, 0, 0)).ok());
    EXPECT_TRUE(metadata_.InsertReplica(MakeReplica(1, 0, 1, 0)).ok());
    EXPECT_TRUE(metadata_.InsertReplica(MakeReplica(2, 0, 0, 1)).ok());
  }

  PlanGenerator MakeGenerator(PlanGenerator::Options options = {}) {
    return PlanGenerator(&metadata_, sites_, options);
  }

  std::vector<SiteId> sites_;
  meta::MetadataStore metadata_;
};

TEST_F(PlanGeneratorTest, UnknownContentIsNotFound) {
  PlanGenerator generator = MakeGenerator();
  Result<std::vector<Plan>> plans =
      generator.Generate(SiteId(0), LogicalOid(9), query::QosRequirement{});
  ASSERT_FALSE(plans.ok());
  EXPECT_EQ(plans.status().code(), StatusCode::kNotFound);
}

TEST_F(PlanGeneratorTest, EveryPlanSatisfiesTheQosBounds) {
  PlanGenerator generator = MakeGenerator();
  query::QosRequirement qos;
  qos.range.min_resolution = media::kResolutionVcd;
  qos.range.min_frame_rate = 15.0;
  Result<std::vector<Plan>> plans =
      generator.Generate(SiteId(0), LogicalOid(0), qos);
  ASSERT_TRUE(plans.ok());
  ASSERT_FALSE(plans->empty());
  for (const Plan& plan : *plans) {
    EXPECT_TRUE(qos.SatisfiedBy(plan.delivered_qos,
                                plan.transform.encryption))
        << plan.ToString();
  }
}

TEST_F(PlanGeneratorTest, NoEncryptionWhenSecurityNotRequested) {
  PlanGenerator generator = MakeGenerator();
  query::QosRequirement qos;  // security none
  qos.range.min_frame_rate = 1.0;
  Result<std::vector<Plan>> plans =
      generator.Generate(SiteId(0), LogicalOid(0), qos);
  ASSERT_TRUE(plans.ok());
  for (const Plan& plan : *plans) {
    EXPECT_EQ(plan.transform.encryption, media::EncryptionAlgorithm::kNone)
        << "encrypting an unprotected stream wastes CPU: "
        << plan.ToString();
  }
}

TEST_F(PlanGeneratorTest, StrongSecurityLimitsAlgorithms) {
  PlanGenerator generator = MakeGenerator();
  query::QosRequirement qos;
  qos.min_security = media::SecurityLevel::kStrong;
  qos.range.min_frame_rate = 1.0;
  Result<std::vector<Plan>> plans =
      generator.Generate(SiteId(0), LogicalOid(0), qos);
  ASSERT_TRUE(plans.ok());
  ASSERT_FALSE(plans->empty());
  for (const Plan& plan : *plans) {
    EXPECT_EQ(plan.transform.encryption,
              media::EncryptionAlgorithm::kAlgorithm1);
  }
}

TEST_F(PlanGeneratorTest, StandardSecurityAllowsThreeAlgorithms) {
  PlanGenerator generator = MakeGenerator();
  query::QosRequirement qos;
  qos.min_security = media::SecurityLevel::kStandard;
  qos.range.min_frame_rate = 1.0;
  Result<std::vector<Plan>> plans =
      generator.Generate(SiteId(0), LogicalOid(0), qos);
  ASSERT_TRUE(plans.ok());
  bool saw1 = false;
  bool saw2 = false;
  bool saw3 = false;
  for (const Plan& plan : *plans) {
    EXPECT_NE(plan.transform.encryption, media::EncryptionAlgorithm::kNone);
    saw1 |= plan.transform.encryption ==
            media::EncryptionAlgorithm::kAlgorithm1;
    saw2 |= plan.transform.encryption ==
            media::EncryptionAlgorithm::kAlgorithm2;
    saw3 |= plan.transform.encryption ==
            media::EncryptionAlgorithm::kAlgorithm3;
  }
  EXPECT_TRUE(saw1);
  EXPECT_TRUE(saw2);
  EXPECT_TRUE(saw3);
}

TEST_F(PlanGeneratorTest, NoUpTranscodingEverAppears) {
  PlanGenerator generator = MakeGenerator();
  query::QosRequirement qos;
  qos.range.min_frame_rate = 1.0;
  Result<std::vector<Plan>> plans =
      generator.Generate(SiteId(0), LogicalOid(0), qos);
  ASSERT_TRUE(plans.ok());
  for (const Plan& plan : *plans) {
    if (!plan.transform.transcode_target.has_value()) continue;
    // Find the source replica quality from its OID.
    media::AppQos source =
        plan.replica_oid == PhysicalOid(2)
            ? media::QualityLadder::Standard().levels[1]
            : media::QualityLadder::Standard().levels[0];
    EXPECT_TRUE(
        media::TranscodeAllowed(source, *plan.transform.transcode_target))
        << plan.ToString();
  }
}

TEST_F(PlanGeneratorTest, RelayDisabledKeepsDeliveryAtSource) {
  PlanGenerator::Options options;
  options.enable_relay = false;
  PlanGenerator generator = MakeGenerator(options);
  query::QosRequirement qos;
  qos.range.min_frame_rate = 1.0;
  Result<std::vector<Plan>> plans =
      generator.Generate(SiteId(0), LogicalOid(0), qos);
  ASSERT_TRUE(plans.ok());
  for (const Plan& plan : *plans) {
    EXPECT_FALSE(plan.IsRelayed());
  }
}

TEST_F(PlanGeneratorTest, DisablingActivitiesShrinksSpace) {
  query::QosRequirement qos;
  qos.range.min_frame_rate = 1.0;
  PlanGenerator full = MakeGenerator();
  size_t full_count =
      full.Generate(SiteId(0), LogicalOid(0), qos)->size();

  PlanGenerator::Options no_drop;
  no_drop.enable_frame_dropping = false;
  size_t no_drop_count =
      MakeGenerator(no_drop).Generate(SiteId(0), LogicalOid(0), qos)->size();

  PlanGenerator::Options no_transcode;
  no_transcode.enable_transcoding = false;
  size_t no_transcode_count = MakeGenerator(no_transcode)
                                  .Generate(SiteId(0), LogicalOid(0), qos)
                                  ->size();
  EXPECT_LT(no_drop_count, full_count);
  EXPECT_LT(no_transcode_count, full_count);
}

TEST_F(PlanGeneratorTest, RawSpaceIsLargerThanPrunedSpace) {
  query::QosRequirement qos;
  qos.range.min_resolution = media::kResolutionVcd;  // excludes some plans
  PlanGenerator pruned = MakeGenerator();
  PlanGenerator::Options raw_options;
  raw_options.apply_static_pruning = false;
  PlanGenerator raw = MakeGenerator(raw_options);
  size_t pruned_count =
      pruned.Generate(SiteId(0), LogicalOid(0), qos)->size();
  size_t raw_count = raw.Generate(SiteId(0), LogicalOid(0), qos)->size();
  EXPECT_GT(raw_count, pruned_count);
}

TEST_F(PlanGeneratorTest, TightQosCanYieldEmptySpace) {
  PlanGenerator generator = MakeGenerator();
  query::QosRequirement qos;
  // No stored or derived stream has > 60 fps.
  qos.range.min_frame_rate = 60.0;
  Result<std::vector<Plan>> plans =
      generator.Generate(SiteId(0), LogicalOid(0), qos);
  ASSERT_TRUE(plans.ok());
  EXPECT_TRUE(plans->empty());
}

TEST_F(PlanGeneratorTest, FrameDroppingUnlocksLowFrameRateWindows) {
  PlanGenerator generator = MakeGenerator();
  query::QosRequirement qos;
  // A 5-14 fps window at VCD-or-better resolution: no stored replica or
  // ladder transcode target fits, so only frame dropping can reach it.
  qos.range.min_frame_rate = 5.0;
  qos.range.max_frame_rate = 14.0;
  qos.range.min_resolution = media::kResolutionVcd;
  Result<std::vector<Plan>> plans =
      generator.Generate(SiteId(0), LogicalOid(0), qos);
  ASSERT_TRUE(plans.ok());
  ASSERT_FALSE(plans->empty());
  for (const Plan& plan : *plans) {
    EXPECT_NE(plan.transform.drop, media::FrameDropStrategy::kNone);
  }
}

// The reference expansion: every transcode x drop x encryption
// candidate is finalized in full, then the static rules filter it, and
// each surviving plan's cache-served twin is finalized again — the
// expansion ExpandGroup replaced with pruning before building. The
// candidate sets follow the generator's documented options.
std::vector<Plan> ReferenceExpandGroup(const PlanGenerator::Options& options,
                                       const PlanGenerator::GroupSeed& seed,
                                       const query::QosRequirement& qos) {
  const media::ReplicaInfo& replica = seed.replica;
  std::vector<media::FrameDropStrategy> drops = {
      media::FrameDropStrategy::kNone};
  if (options.enable_frame_dropping) {
    drops.push_back(media::FrameDropStrategy::kHalfBFrames);
    drops.push_back(media::FrameDropStrategy::kAllBFrames);
    drops.push_back(media::FrameDropStrategy::kAllBAndPFrames);
  }
  std::vector<media::EncryptionAlgorithm> encryptions;
  for (int i = 0; i < media::kNumEncryptionAlgorithms; ++i) {
    auto algorithm = static_cast<media::EncryptionAlgorithm>(i);
    if (!options.apply_static_pruning) {
      encryptions.push_back(algorithm);
    } else if (qos.min_security == media::SecurityLevel::kNone) {
      if (algorithm == media::EncryptionAlgorithm::kNone) {
        encryptions.push_back(algorithm);
      }
    } else if (media::EncryptionStrength(algorithm) >= qos.min_security) {
      encryptions.push_back(algorithm);
    }
  }
  std::vector<std::optional<media::AppQos>> targets = {std::nullopt};
  if (options.enable_transcoding) {
    std::vector<media::AppQos> ladder = options.transcode_targets;
    if (ladder.empty()) ladder = media::QualityLadder::Standard().levels;
    for (const media::AppQos& target : ladder) {
      if (options.apply_static_pruning &&
          !media::TranscodeAllowed(replica.qos, target)) {
        continue;
      }
      if (!options.apply_static_pruning && target == replica.qos) continue;
      targets.push_back(target);
    }
  }

  std::vector<Plan> out;
  for (const std::optional<media::AppQos>& target : targets) {
    for (media::FrameDropStrategy drop : drops) {
      for (media::EncryptionAlgorithm encryption : encryptions) {
        Plan plan;
        plan.replica_oid = replica.id;
        plan.source_site = replica.site;
        plan.delivery_site = seed.delivery_site;
        plan.transform.transcode_target = target;
        plan.transform.drop = drop;
        plan.transform.encryption = encryption;
        FinalizePlan(plan, replica, options.constants);
        if (options.apply_static_pruning &&
            !qos.SatisfiedBy(plan.delivered_qos, plan.transform.encryption)) {
          continue;
        }
        if (options.apply_static_pruning && qos.max_startup_seconds > 0.0 &&
            plan.startup_seconds > qos.max_startup_seconds) {
          continue;
        }
        if (seed.cache_fraction > 0.0) {
          Plan cached = plan;
          cached.cache_fraction = seed.cache_fraction;
          FinalizePlan(cached, replica, options.constants);
          out.push_back(std::move(cached));
        }
        out.push_back(std::move(plan));
      }
    }
  }
  return out;
}

// Field-by-field exact comparison (doubles with ==, not a tolerance).
void ExpectIdenticalPlans(const Plan& expected, const Plan& actual) {
  SCOPED_TRACE(expected.ToString());
  EXPECT_EQ(actual.replica_oid, expected.replica_oid);
  EXPECT_EQ(actual.source_site, expected.source_site);
  EXPECT_EQ(actual.delivery_site, expected.delivery_site);
  EXPECT_EQ(actual.transform.drop, expected.transform.drop);
  EXPECT_EQ(actual.transform.transcode_target,
            expected.transform.transcode_target);
  EXPECT_EQ(actual.transform.encryption, expected.transform.encryption);
  EXPECT_EQ(actual.cache_fraction, expected.cache_fraction);
  EXPECT_EQ(actual.delivered_qos, expected.delivered_qos);
  EXPECT_EQ(actual.wire_rate_kbps, expected.wire_rate_kbps);
  EXPECT_EQ(actual.startup_seconds, expected.startup_seconds);
  ASSERT_EQ(actual.resources.size(), expected.resources.size())
      << "expected " << expected.resources.ToString() << ", got "
      << actual.resources.ToString();
  for (size_t i = 0; i < expected.resources.size(); ++i) {
    const ResourceVector::Entry& want = expected.resources.entries()[i];
    const ResourceVector::Entry& got = actual.resources.entries()[i];
    EXPECT_EQ(got.bucket, want.bucket) << BucketIdToString(want.bucket);
    EXPECT_EQ(got.units, want.units) << BucketIdToString(want.bucket);
  }
}

// A table names its encryption candidates by slot, not by address, so
// it outlives the generator that built it: expanded on a second
// generator with the same options, it yields the first one's plans.
TEST_F(PlanGeneratorTest, TableOutlivesTheGeneratorThatBuiltIt) {
  for (bool pruning : {true, false}) {
    PlanGenerator::Options options;
    options.apply_static_pruning = pruning;
    for (media::SecurityLevel security :
         {media::SecurityLevel::kNone, media::SecurityLevel::kStandard,
          media::SecurityLevel::kStrong}) {
      SCOPED_TRACE("pruning=" + std::to_string(pruning) + " security=" +
                   std::to_string(static_cast<int>(security)));
      query::QosRequirement qos;
      qos.min_security = security;
      std::vector<PlanGenerator::GroupSeed> groups;
      std::vector<PlanGenerator::ChoiceTable> tables;
      std::vector<Plan> expected;
      {
        PlanGenerator first = MakeGenerator(options);
        Result<std::vector<PlanGenerator::GroupSeed>> enumerated =
            first.EnumerateGroups(SiteId(0), LogicalOid(0));
        ASSERT_TRUE(enumerated.ok());
        groups = *enumerated;
        for (const PlanGenerator::GroupSeed& seed : groups) {
          tables.push_back(first.BuildChoiceTable(seed, qos));
          first.ExpandGroup(seed, tables.back(), expected);
        }
      }
      ASSERT_FALSE(expected.empty());
      const PlanGenerator second = MakeGenerator(options);
      std::vector<Plan> actual;
      for (size_t i = 0; i < groups.size(); ++i) {
        second.ExpandGroup(groups[i], tables[i], actual);
      }
      ASSERT_EQ(actual.size(), expected.size());
      for (size_t i = 0; i < expected.size(); ++i) {
        ExpectIdenticalPlans(expected[i], actual[i]);
      }
    }
  }
}

// What the oracle says a group's ChoiceTable holds: the (target, drop)
// pairs of its surviving plans in order, with the least wire rate and
// CPU fraction over those plans, each priced through FinalizePlan's own
// route. `plans` is a disk-served ReferenceExpandGroup result.
struct ReferenceTable {
  std::vector<const Plan*> choices;  // the first plan of each pair
  double min_wire_kbps = std::numeric_limits<double>::infinity();
  double min_cpu = std::numeric_limits<double>::infinity();
};

ReferenceTable MakeReferenceTable(const PlanGenerator::Options& options,
                                  const media::ReplicaInfo& replica,
                                  const std::vector<Plan>& plans) {
  ReferenceTable table;
  for (const Plan& plan : plans) {
    if (table.choices.empty() ||
        table.choices.back()->transform.transcode_target !=
            plan.transform.transcode_target ||
        table.choices.back()->transform.drop != plan.transform.drop) {
      table.choices.push_back(&plan);
    }
    table.min_wire_kbps = std::min(table.min_wire_kbps, plan.wire_rate_kbps);
    table.min_cpu = std::min(
        table.min_cpu,
        net::StreamCpuFraction(replica, plan.transform,
                               options.constants.streaming_cost));
  }
  return table;
}

// The demand floor as GroupDemandFloor documents it, from the oracle's
// table.
ResourceVector ReferenceFloor(const PlanGenerator::Options& options,
                              const PlanGenerator::GroupSeed& seed,
                              const ReferenceTable& table) {
  const media::ReplicaInfo& replica = seed.replica;
  ResourceVector floor;
  const double disk_kbps = replica.bitrate_kbps * (1.0 - seed.cache_fraction);
  if (disk_kbps > 0.0) {
    floor.Add({replica.site, ResourceKind::kDiskBandwidth}, disk_kbps);
  }
  if (seed.delivery_site != replica.site) {
    const double forward_cpu = RelayForwardCpu(replica, options.constants);
    floor.Add({replica.site, ResourceKind::kNetworkBandwidth},
              replica.bitrate_kbps);
    floor.Add({replica.site, ResourceKind::kCpu}, forward_cpu);
    floor.Add({seed.delivery_site, ResourceKind::kCpu}, forward_cpu);
  }
  if (!table.choices.empty()) {
    floor.Add({seed.delivery_site, ResourceKind::kCpu}, table.min_cpu);
    floor.Add({seed.delivery_site, ResourceKind::kNetworkBandwidth},
              table.min_wire_kbps);
    floor.Add({seed.delivery_site, ResourceKind::kMemory},
              table.min_wire_kbps * options.constants.buffer_seconds);
  }
  return floor;
}

// The group's table, demand floor and expansion under `qos` equal the
// finalize-then-filter oracle's, bit for bit. The floor is written into
// `floor`, which the caller reuses from group to group, so an entry left
// over from an earlier group shows up as a mismatch. Returns the number
// of plans compared.
size_t ExpectMatchesOracle(const PlanGenerator& generator,
                           const PlanGenerator::GroupSeed& seed,
                           const query::QosRequirement& qos,
                           ResourceVector& floor) {
  const PlanGenerator::Options& options = generator.options();
  const media::ReplicaInfo& replica = seed.replica;
  PlanGenerator::GroupSeed disk_seed = seed;
  disk_seed.cache_fraction = 0.0;
  const std::vector<Plan> disk_plans =
      ReferenceExpandGroup(options, disk_seed, qos);
  const ReferenceTable reference =
      MakeReferenceTable(options, replica, disk_plans);

  const PlanGenerator::ChoiceTable table =
      generator.BuildChoiceTable(seed, qos);
  EXPECT_TRUE(table.key == PlanGenerator::KeyOf(seed));
  EXPECT_EQ(table.forward_cpu, seed.delivery_site != replica.site
                                   ? RelayForwardCpu(replica, options.constants)
                                   : 0.0);
  EXPECT_EQ(table.min_wire_kbps, reference.min_wire_kbps);
  EXPECT_EQ(table.min_cpu, reference.min_cpu);
  EXPECT_EQ(table.choices.size(), reference.choices.size());
  for (size_t i = 0;
       i < std::min(table.choices.size(), reference.choices.size()); ++i) {
    const PlanGenerator::ChoiceTable::Choice& choice = table.choices[i];
    const Plan& want = *reference.choices[i];
    EXPECT_EQ(choice.target, want.transform.transcode_target);
    EXPECT_EQ(choice.drop, want.transform.drop);
    EXPECT_EQ(choice.rates.delivered_qos, want.delivered_qos);
    EXPECT_EQ(choice.rates.wire_rate_kbps, want.wire_rate_kbps);
    EXPECT_EQ(choice.rates.CpuFraction(want.transform.encryption),
              net::StreamCpuFraction(replica, want.transform,
                                     options.constants.streaming_cost));
  }

  generator.GroupDemandFloor(seed, table, floor);
  const ResourceVector want_floor = ReferenceFloor(options, seed, reference);
  EXPECT_EQ(floor.ToString(), want_floor.ToString());
  EXPECT_EQ(floor.size(), want_floor.size());
  if (floor.size() == want_floor.size()) {
    for (size_t i = 0; i < floor.size(); ++i) {
      EXPECT_EQ(floor.entries()[i].bucket, want_floor.entries()[i].bucket);
      EXPECT_EQ(floor.entries()[i].units, want_floor.entries()[i].units);
    }
  }

  const std::vector<Plan> expected =
      seed.cache_fraction > 0.0 ? ReferenceExpandGroup(options, seed, qos)
                                : disk_plans;
  std::vector<Plan> actual;
  generator.ExpandGroup(seed, table, actual);
  EXPECT_EQ(actual.size(), expected.size());
  if (actual.size() != expected.size()) return 0;
  for (size_t i = 0; i < expected.size(); ++i) {
    ExpectIdenticalPlans(expected[i], actual[i]);
  }
  return expected.size();
}

TEST(PlanExpansionOracleTest, MatchesFinalizeThenFilterExpansion) {
  // Every Standard-ladder level stored at site 0; site 1 is the relay
  // target.
  const std::vector<SiteId> sites = {SiteId(0), SiteId(1)};
  meta::MetadataStore metadata;
  ASSERT_TRUE(metadata.InsertContent(MakeContent(0)).ok());
  const size_t levels = media::QualityLadder::Standard().levels.size();
  for (size_t level = 0; level < levels; ++level) {
    ASSERT_TRUE(metadata
                    .InsertReplica(MakeReplica(static_cast<int64_t>(level), 0,
                                               0, static_cast<int>(level)))
                    .ok());
  }

  // A wide-open window and one that drop and transcode choices can
  // miss on resolution and frame rate.
  std::vector<media::AppQosRange> ranges(2);
  ranges[0].min_frame_rate = 1.0;
  ranges[1].min_resolution = media::kResolutionSif;
  ranges[1].min_frame_rate = 10.0;
  ranges[1].max_frame_rate = 20.0;
  // 0 = no Time Guarantee; 2.6 s admits only local, untranscoded
  // plans; 3.0 s admits relays but no transcodes; 3.6 s drops only
  // relayed transcodes.
  const double startup_limits[] = {0.0, 2.6, 3.0, 3.6};
  const double cache_fractions[] = {0.0, 0.05, 0.5, 1.0};
  const media::SecurityLevel security_levels[] = {
      media::SecurityLevel::kNone, media::SecurityLevel::kStandard,
      media::SecurityLevel::kStrong};

  // One floor vector for every group of both sweeps below, which go
  // relayed <-> local, cached <-> uncached and empty <-> non-empty table.
  ResourceVector floor;
  size_t plans_compared = 0;
  for (bool pruning : {true, false}) {
    for (bool relay : {true, false}) {
      PlanGenerator::Options options;
      options.apply_static_pruning = pruning;
      options.enable_relay = relay;
      PlanGenerator generator(&metadata, sites, options);
      Result<std::vector<PlanGenerator::GroupSeed>> groups =
          generator.EnumerateGroups(SiteId(0), LogicalOid(0));
      ASSERT_TRUE(groups.ok());
      ASSERT_EQ(groups->size(), levels * (relay ? 2 : 1));
      for (PlanGenerator::GroupSeed seed : *groups) {
        for (double cache_fraction : cache_fractions) {
          seed.cache_fraction = cache_fraction;
          for (media::SecurityLevel security : security_levels) {
            for (double startup : startup_limits) {
              for (const media::AppQosRange& range : ranges) {
                query::QosRequirement qos;
                qos.range = range;
                qos.min_security = security;
                qos.max_startup_seconds = startup;
                SCOPED_TRACE("pruning=" + std::to_string(pruning) +
                             " replica=" +
                             std::to_string(seed.replica.id.value()) +
                             " ->site" +
                             std::to_string(seed.delivery_site.value()) +
                             " cache=" + std::to_string(cache_fraction) +
                             " security=" +
                             std::to_string(static_cast<int>(security)) +
                             " startup=" + std::to_string(startup));
                plans_compared +=
                    ExpectMatchesOracle(generator, seed, qos, floor);
              }
            }
          }
        }
      }
    }
  }
  EXPECT_GT(plans_compared, 10000u);

  // Every QoP request the traffic generator can draw (each of the four
  // axes at one of three levels, times the security floor), translated
  // through its default profile, crossed with Time Guarantees that cut
  // nothing, relayed transcodes, every transcode, and everything but
  // local untranscoded plans.
  const core::UserProfile traffic_profile(UserId(0), "traffic-default");
  const core::QopLevel qop_levels[] = {core::QopLevel::kLow,
                                       core::QopLevel::kMedium,
                                       core::QopLevel::kHigh};
  std::vector<query::QosRequirement> sweep;
  for (core::QopLevel spatial : qop_levels) {
    for (core::QopLevel temporal : qop_levels) {
      for (core::QopLevel color : qop_levels) {
        for (core::QopLevel audio : qop_levels) {
          for (media::SecurityLevel security : security_levels) {
            for (double startup : startup_limits) {
              core::QopRequest qop;
              qop.spatial = spatial;
              qop.temporal = temporal;
              qop.color = color;
              qop.audio = audio;
              qop.security = security;
              query::QosRequirement qos;
              qos.range = traffic_profile.Translate(qop);
              qos.min_security = security;
              qos.max_startup_seconds = startup;
              sweep.push_back(qos);
            }
          }
        }
      }
    }
  }
  ASSERT_EQ(sweep.size(), 81u * 3u * std::size(startup_limits));
  size_t sweep_compared = 0;
  size_t empty_tables = 0;
  for (bool pruning : {true, false}) {
    PlanGenerator::Options options;
    options.apply_static_pruning = pruning;
    PlanGenerator generator(&metadata, sites, options);
    Result<std::vector<PlanGenerator::GroupSeed>> groups =
        generator.EnumerateGroups(SiteId(0), LogicalOid(0));
    ASSERT_TRUE(groups.ok());
    ASSERT_EQ(groups->size(), levels * 2);
    for (size_t q = 0; q < sweep.size(); ++q) {
      for (PlanGenerator::GroupSeed seed : *groups) {
        // Alternate disk-only and cache-served groups across requests.
        seed.cache_fraction = q % 2 == 0 ? 0.0 : 0.5;
        SCOPED_TRACE("pruning=" + std::to_string(pruning) + " request=" +
                     std::to_string(q) + " replica=" +
                     std::to_string(seed.replica.id.value()) + " ->site" +
                     std::to_string(seed.delivery_site.value()));
        const size_t compared =
            ExpectMatchesOracle(generator, seed, sweep[q], floor);
        if (compared == 0) ++empty_tables;
        sweep_compared += compared;
      }
    }
  }
  // The sweep reaches both empty and non-empty tables.
  EXPECT_GT(empty_tables, 0u);
  EXPECT_GT(sweep_compared, 100000u);

  // The static drop table the expansion reads from equals the GOP walk
  // it replaced, entry by entry.
  for (int f = 0; f < media::kNumVideoFormats; ++f) {
    auto format = static_cast<media::VideoFormat>(f);
    for (int s = 0; s < media::kNumFrameDropStrategies; ++s) {
      auto strategy = static_cast<media::FrameDropStrategy>(s);
      media::FrameDropEffect walked = media::ComputeFrameDropEffect(
          media::GopPattern::StandardFor(format), strategy);
      const media::FrameDropEffect& table =
          media::StandardFrameDropEffect(format, strategy);
      EXPECT_EQ(table.bandwidth_factor, walked.bandwidth_factor);
      EXPECT_EQ(table.frame_rate_factor, walked.frame_rate_factor);
    }
  }
}

}  // namespace
}  // namespace quasaq::core
