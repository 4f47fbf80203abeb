// Property-based suites: invariants checked across randomized or swept
// parameter spaces (TEST_P / INSTANTIATE_TEST_SUITE_P).

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/cost_model.h"
#include "core/plan_generator.h"
#include "core/qop.h"
#include "core/query_producer.h"
#include "media/library.h"
#include "net/rtp.h"
#include "query/parser.h"
#include "resource/pool.h"

namespace quasaq {
namespace {

// --- LRB cost bounds over random pool states ------------------------------

class LrbPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LrbPropertyTest, CostBoundsAndMonotonicity) {
  Rng rng(GetParam());
  res::ResourcePool pool;
  std::vector<BucketId> buckets;
  for (int site = 0; site < 3; ++site) {
    for (int kind = 0; kind < kNumResourceKinds; ++kind) {
      BucketId bucket{SiteId(site), static_cast<ResourceKind>(kind)};
      ASSERT_TRUE(pool.DeclareBucket(bucket, rng.Uniform(1.0, 100.0)).ok());
      buckets.push_back(bucket);
    }
  }
  // Random pre-existing usage.
  for (const BucketId& bucket : buckets) {
    ResourceVector used;
    used.Add(bucket, pool.Capacity(bucket) * rng.Uniform(0.0, 0.8));
    ASSERT_TRUE(pool.Acquire(used).ok());
  }
  core::LrbCostModel lrb;
  for (int trial = 0; trial < 50; ++trial) {
    ResourceVector demand;
    for (const BucketId& bucket : buckets) {
      if (rng.Bernoulli(0.4)) {
        demand.Add(bucket, pool.Capacity(bucket) * rng.Uniform(0.0, 0.2));
      }
    }
    double cost = lrb.Cost(demand, pool);
    // Lower bound: the fullest bucket before the plan.
    EXPECT_GE(cost, pool.MaxUtilization() - 1e-12);
    // Monotonicity: adding more demand never lowers the cost.
    ResourceVector bigger = demand;
    bigger.Add(buckets[static_cast<size_t>(rng.UniformInt(
                   0, static_cast<int64_t>(buckets.size()) - 1))],
               1.0);
    EXPECT_GE(lrb.Cost(bigger, pool), cost - 1e-12);
    // Feasibility: cost <= 1 implies the pool can actually take it.
    if (cost <= 1.0) {
      EXPECT_TRUE(pool.Fits(demand));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LrbPropertyTest,
                         ::testing::Range<uint64_t>(1, 9));

// --- pool acquire/release inverse under random sequences -------------------

class PoolPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PoolPropertyTest, AcquireReleaseSequencesBalance) {
  Rng rng(GetParam());
  res::ResourcePool pool;
  BucketId bucket{SiteId(0), ResourceKind::kCpu};
  ASSERT_TRUE(pool.DeclareBucket(bucket, 10.0).ok());
  std::vector<ResourceVector> held;
  for (int step = 0; step < 300; ++step) {
    if (!held.empty() && rng.Bernoulli(0.45)) {
      ASSERT_TRUE(pool.Release(held.back()).ok());
      held.pop_back();
    } else {
      ResourceVector demand;
      demand.Add(bucket, rng.Uniform(0.0, 2.0));
      if (pool.Acquire(demand).ok()) held.push_back(demand);
    }
    EXPECT_LE(pool.Used(bucket), pool.Capacity(bucket));
    EXPECT_GE(pool.Used(bucket), 0.0);
  }
  for (const ResourceVector& demand : held) ASSERT_TRUE(pool.Release(demand).ok());
  EXPECT_EQ(pool.Used(bucket), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PoolPropertyTest,
                         ::testing::Range<uint64_t>(1, 9));

// --- QueryProducer text round-trips for the whole QoP space ----------------

class QopRoundTripTest
    : public ::testing::TestWithParam<std::tuple<int, int, int, int>> {};

TEST_P(QopRoundTripTest, ProducedTextParsesBackToTheSameRange) {
  auto [spatial, temporal, color, security] = GetParam();
  core::QopRequest request;
  request.spatial = static_cast<core::QopLevel>(spatial);
  request.temporal = static_cast<core::QopLevel>(temporal);
  request.color = static_cast<core::QopLevel>(color);
  request.security = static_cast<media::SecurityLevel>(security);
  core::UserProfile profile(UserId(1), "sweep");
  core::QueryProducer producer(&profile);
  query::ContentPredicate content;
  content.keywords = {"news"};

  std::string text = producer.ProduceText(content, request);
  Result<query::ParsedQuery> parsed = query::ParseQuery(text);
  ASSERT_TRUE(parsed.ok()) << text << "\n" << parsed.status().ToString();
  query::ParsedQuery direct = producer.Produce(content, request);
  EXPECT_EQ(parsed->qos.range.min_resolution,
            direct.qos.range.min_resolution);
  EXPECT_EQ(parsed->qos.range.max_resolution,
            direct.qos.range.max_resolution);
  EXPECT_DOUBLE_EQ(parsed->qos.range.min_frame_rate,
                   direct.qos.range.min_frame_rate);
  EXPECT_DOUBLE_EQ(parsed->qos.range.max_frame_rate,
                   direct.qos.range.max_frame_rate);
  EXPECT_EQ(parsed->qos.range.min_color_depth_bits,
            direct.qos.range.min_color_depth_bits);
  EXPECT_EQ(parsed->qos.min_security, direct.qos.min_security);
}

INSTANTIATE_TEST_SUITE_P(
    QopSpace, QopRoundTripTest,
    ::testing::Combine(::testing::Range(0, 3), ::testing::Range(0, 3),
                       ::testing::Range(0, 3), ::testing::Range(0, 3)));

// --- plan generation invariants over the whole QoP space -------------------

class PlanSpaceSweepTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(PlanSpaceSweepTest, GeneratedPlansAreWellFormedAndSatisfying) {
  auto [spatial, temporal, color] = GetParam();
  core::QopRequest request;
  request.spatial = static_cast<core::QopLevel>(spatial);
  request.temporal = static_cast<core::QopLevel>(temporal);
  request.color = static_cast<core::QopLevel>(color);
  core::UserProfile profile(UserId(1), "sweep");
  query::QosRequirement qos;
  qos.range = profile.Translate(request);

  std::vector<SiteId> sites = {SiteId(0), SiteId(1), SiteId(2)};
  meta::MetadataStore metadata;
  media::LibraryOptions library_options;
  library_options.num_videos = 3;
  media::VideoLibrary library =
      media::BuildExperimentLibrary(library_options, sites);
  for (const media::VideoContent& content : library.contents) {
    ASSERT_TRUE(metadata.InsertContent(content).ok());
  }
  for (const media::ReplicaInfo& replica : library.replicas) {
    ASSERT_TRUE(metadata.InsertReplica(replica).ok());
  }

  core::PlanGenerator::Options options;
  for (const media::AppQos& level : media::QualityLadder::Standard().levels) {
    options.transcode_targets.push_back(level);
    if (level.color_depth_bits > 12) {
      media::AppQos low = level;
      low.color_depth_bits = 12;
      options.transcode_targets.push_back(low);
    }
  }
  core::PlanGenerator generator(&metadata, sites, options);
  Result<std::vector<core::Plan>> plans =
      generator.Generate(SiteId(0), LogicalOid(0), qos);
  ASSERT_TRUE(plans.ok());
  for (const core::Plan& plan : *plans) {
    // Delivered quality satisfies the request.
    EXPECT_TRUE(qos.SatisfiedBy(plan.delivered_qos,
                                plan.transform.encryption))
        << plan.ToString();
    // Resource vectors are strictly positive and touch only real sites.
    EXPECT_FALSE(plan.resources.empty());
    for (const ResourceVector::Entry& e : plan.resources.entries()) {
      EXPECT_GT(e.units, 0) << plan.ToString();
      EXPECT_GE(e.bucket.site.value(), 0);
      EXPECT_LT(e.bucket.site.value(), 3);
    }
    EXPECT_GT(plan.wire_rate_kbps, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    QopSpace, PlanSpaceSweepTest,
    ::testing::Combine(::testing::Range(0, 3), ::testing::Range(0, 3),
                       ::testing::Range(0, 3)));

// --- transcoding forms a strict partial order -------------------------------

std::vector<media::AppQos> QualityUniverse() {
  std::vector<media::AppQos> universe;
  for (const media::Resolution& resolution :
       {media::kResolutionQcif, media::kResolutionVcd,
        media::kResolutionDvd}) {
    for (int depth : {12, 24}) {
      for (double fps : {10.0, 23.97}) {
        for (int format = 0; format < media::kNumVideoFormats; ++format) {
          for (media::AudioQuality audio :
               {media::AudioQuality::kPhone, media::AudioQuality::kCd}) {
            universe.push_back(media::AppQos{
                resolution, depth, fps,
                static_cast<media::VideoFormat>(format), audio});
          }
        }
      }
    }
  }
  return universe;
}

TEST(TranscodeOrderTest, Irreflexive) {
  for (const media::AppQos& qos : QualityUniverse()) {
    EXPECT_FALSE(media::TranscodeAllowed(qos, qos))
        << media::AppQosToString(qos);
  }
}

TEST(TranscodeOrderTest, NoTwoWayTranscodesExceptFormatSwaps) {
  std::vector<media::AppQos> universe = QualityUniverse();
  for (const media::AppQos& a : universe) {
    for (const media::AppQos& b : universe) {
      if (media::TranscodeAllowed(a, b) && media::TranscodeAllowed(b, a)) {
        // Both directions allowed only when the qualities differ solely
        // in container format (format conversion is never an upgrade).
        media::AppQos b_with_a_format = b;
        b_with_a_format.format = a.format;
        EXPECT_EQ(a, b_with_a_format)
            << media::AppQosToString(a) << " <-> "
            << media::AppQosToString(b);
      }
    }
  }
}

TEST(TranscodeOrderTest, TransitiveAlongQualityChains) {
  std::vector<media::AppQos> universe = QualityUniverse();
  int checked = 0;
  for (const media::AppQos& a : universe) {
    for (const media::AppQos& b : universe) {
      if (!media::TranscodeAllowed(a, b)) continue;
      for (const media::AppQos& c : universe) {
        if (!media::TranscodeAllowed(b, c)) continue;
        if (c == a) continue;  // round trips collapse to identity
        EXPECT_TRUE(media::TranscodeAllowed(a, c))
            << media::AppQosToString(a) << " -> "
            << media::AppQosToString(b) << " -> "
            << media::AppQosToString(c);
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 100);  // the universe is dense enough to matter
}

TEST(TranscodeOrderTest, DownscalingNeverRaisesEstimatedBitrate) {
  std::vector<media::AppQos> universe = QualityUniverse();
  for (const media::AppQos& from : universe) {
    for (const media::AppQos& to : universe) {
      if (!media::TranscodeAllowed(from, to)) continue;
      if (from.format != to.format) continue;  // same codec efficiency
      EXPECT_LE(media::EstimateBitrateKBps(to),
                media::EstimateBitrateKBps(from) + 1e-9)
          << media::AppQosToString(from) << " -> "
          << media::AppQosToString(to);
    }
  }
}

// --- stream cost model consistency across all transforms -------------------

class TransformSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(TransformSweepTest, WireRateAndCpuArePositiveAndBounded) {
  int drop = GetParam();
  media::ReplicaInfo replica;
  replica.id = PhysicalOid(1);
  replica.content = LogicalOid(1);
  replica.site = SiteId(0);
  replica.qos = media::QualityLadder::Standard().levels[0];
  replica.duration_seconds = 30.0;
  media::FinalizeReplicaSizing(replica);

  for (int enc = 0; enc < media::kNumEncryptionAlgorithms; ++enc) {
    net::StreamTransform transform;
    transform.drop = static_cast<media::FrameDropStrategy>(drop);
    transform.encryption = static_cast<media::EncryptionAlgorithm>(enc);
    double wire = net::StreamWireRateKbps(replica, transform);
    EXPECT_GT(wire, 0.0);
    EXPECT_LE(wire, replica.bitrate_kbps + 1e-9);
    double cpu = net::StreamCpuFraction(replica, transform,
                                        media::StreamingCpuCost{});
    EXPECT_GT(cpu, 0.0);
    EXPECT_LT(cpu, 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Drops, TransformSweepTest, ::testing::Range(0, 4));

}  // namespace
}  // namespace quasaq
