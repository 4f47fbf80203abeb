#include "net/rtp.h"

#include <gtest/gtest.h>

#include "media/library.h"
#include "net/topology.h"

namespace quasaq::net {
namespace {

media::ReplicaInfo VcdReplica(double duration_seconds = 60.0) {
  media::ReplicaInfo replica;
  replica.id = PhysicalOid(1);
  replica.content = LogicalOid(1);
  replica.site = SiteId(0);
  replica.qos = media::QualityLadder::Standard().levels[1];
  replica.duration_seconds = duration_seconds;
  replica.frame_seed = 77;
  media::FinalizeReplicaSizing(replica);
  return replica;
}

media::ReplicaInfo DvdReplica(double duration_seconds = 60.0) {
  media::ReplicaInfo replica = VcdReplica(duration_seconds);
  replica.id = PhysicalOid(2);
  replica.qos = media::QualityLadder::Standard().levels[0];
  media::FinalizeReplicaSizing(replica);
  return replica;
}

TEST(StreamTransformTest, DeliveredQosDefaultsToStoredQuality) {
  media::ReplicaInfo replica = VcdReplica();
  StreamTransform transform;
  EXPECT_EQ(transform.DeliveredQos(replica), replica.qos);
  transform.transcode_target = media::QualityLadder::Standard().levels[2];
  EXPECT_EQ(transform.DeliveredQos(replica),
            media::QualityLadder::Standard().levels[2]);
}

TEST(StreamCostTest, WireRateMatchesBitrateWithoutTransform) {
  media::ReplicaInfo replica = VcdReplica();
  EXPECT_NEAR(StreamWireRateKbps(replica, StreamTransform{}),
              replica.bitrate_kbps, 1e-9);
}

TEST(StreamCostTest, DroppingReducesWireRateAndFrameRate) {
  media::ReplicaInfo replica = VcdReplica();
  StreamTransform transform;
  transform.drop = media::FrameDropStrategy::kAllBFrames;
  EXPECT_NEAR(StreamWireRateKbps(replica, transform),
              replica.bitrate_kbps * 17.0 / 27.0, 1e-9);
  media::AppQos delivered = StreamDeliveredQos(replica, transform);
  EXPECT_NEAR(delivered.frame_rate, replica.qos.frame_rate / 3.0, 1e-9);
}

TEST(StreamCostTest, TranscodeReducesWireRateToTarget) {
  media::ReplicaInfo replica = DvdReplica();
  StreamTransform transform;
  transform.transcode_target = media::QualityLadder::Standard().levels[1];
  EXPECT_NEAR(
      StreamWireRateKbps(replica, transform),
      media::EstimateBitrateKBps(*transform.transcode_target), 1e-9);
}

TEST(StreamCostTest, CpuGrowsWithTranscodeAndEncryption) {
  media::ReplicaInfo replica = DvdReplica();
  media::StreamingCpuCost cost;
  double plain = StreamCpuFraction(replica, StreamTransform{}, cost);
  StreamTransform transcoded;
  transcoded.transcode_target = media::QualityLadder::Standard().levels[1];
  EXPECT_GT(StreamCpuFraction(replica, transcoded, cost), plain * 2.0);
  StreamTransform encrypted;
  encrypted.encryption = media::EncryptionAlgorithm::kAlgorithm1;
  EXPECT_GT(StreamCpuFraction(replica, encrypted, cost), plain);
}

class RtpSessionTest : public ::testing::Test {
 protected:
  RtpSessionTest()
      : scheduler_(&simulator_, [] {
          res::TimeSharingCpuScheduler::Options options;
          options.context_switch_ms = 0.0;
          return options;
        }()) {}

  sim::Simulator simulator_;
  res::TimeSharingCpuScheduler scheduler_;
};

TEST_F(RtpSessionTest, DeliversEveryFrameWithoutDropping) {
  RtpSessionOptions options;
  options.max_source_frames = 150;
  RtpStreamingSession session(&simulator_, VcdReplica(), StreamTransform{},
                              options);
  session.AttachTimeSharing(&scheduler_);
  bool finished = false;
  session.Start([&finished] { finished = true; });
  simulator_.RunAll();
  EXPECT_TRUE(finished);
  EXPECT_TRUE(session.finished());
  EXPECT_EQ(session.delivered_frames(), 150);
  EXPECT_EQ(session.frame_completion_times().size(), 150u);
}

TEST_F(RtpSessionTest, InterFrameDelayMeanMatchesFrameRate) {
  RtpSessionOptions options;
  options.max_source_frames = 600;
  RtpStreamingSession session(&simulator_, VcdReplica(), StreamTransform{},
                              options);
  session.AttachTimeSharing(&scheduler_);
  session.Start();
  simulator_.RunAll();
  RunningStats stats = session.InterFrameDelayStats();
  EXPECT_NEAR(stats.mean(), 1000.0 / 23.97, 1.0);
  // VBR: inter-frame deltas vary with frame size (I >> B).
  EXPECT_GT(stats.stddev(), 10.0);
}

TEST_F(RtpSessionTest, InterGopDelayIsSmooth) {
  RtpSessionOptions options;
  options.max_source_frames = 600;
  RtpStreamingSession session(&simulator_, VcdReplica(), StreamTransform{},
                              options);
  session.AttachTimeSharing(&scheduler_);
  session.Start();
  simulator_.RunAll();
  RunningStats gop = session.InterGopDelayStats();
  EXPECT_NEAR(gop.mean(), 15.0 * 1000.0 / 23.97, 10.0);
  EXPECT_LT(gop.stddev(), gop.mean() * 0.1);
}

TEST_F(RtpSessionTest, AllBDropDeliversOneThirdOfFrames) {
  RtpSessionOptions options;
  options.max_source_frames = 300;
  StreamTransform transform;
  transform.drop = media::FrameDropStrategy::kAllBFrames;
  RtpStreamingSession session(&simulator_, VcdReplica(), transform, options);
  session.AttachTimeSharing(&scheduler_);
  session.Start();
  simulator_.RunAll();
  EXPECT_EQ(session.delivered_frames(), 100);  // I and P frames only
  EXPECT_EQ(session.source_frames(), 300);
}

TEST_F(RtpSessionTest, RecordLimitCapsStoredTimes) {
  RtpSessionOptions options;
  options.max_source_frames = 100;
  options.record_limit = 10;
  RtpStreamingSession session(&simulator_, VcdReplica(), StreamTransform{},
                              options);
  session.AttachTimeSharing(&scheduler_);
  session.Start();
  simulator_.RunAll();
  EXPECT_EQ(session.frame_completion_times().size(), 10u);
  EXPECT_EQ(session.delivered_frames(), 100);
}

TEST_F(RtpSessionTest, StopCancelsStreaming) {
  RtpSessionOptions options;
  options.max_source_frames = 1000;
  RtpStreamingSession session(&simulator_, VcdReplica(), StreamTransform{},
                              options);
  session.AttachTimeSharing(&scheduler_);
  bool finished = false;
  session.Start([&finished] { finished = true; });
  simulator_.RunUntil(SecondsToSimTime(2.0));
  int delivered = session.delivered_frames();
  EXPECT_GT(delivered, 0);
  session.Stop();
  simulator_.RunAll();
  EXPECT_FALSE(finished);
  EXPECT_LE(session.delivered_frames(), delivered + 1);
}

TEST_F(RtpSessionTest, ReservedAttachmentRespectsAdmission) {
  res::ReservationCpuScheduler reservation(
      &simulator_, res::ReservationCpuScheduler::Options());
  RtpSessionOptions options;
  options.max_source_frames = 50;
  RtpStreamingSession session(&simulator_, VcdReplica(), StreamTransform{},
                              options);
  EXPECT_FALSE(session.AttachReserved(&reservation, 5.0).ok());
  ASSERT_TRUE(session.AttachReserved(&reservation, 0.1).ok());
  session.Start();
  simulator_.RunAll();
  EXPECT_TRUE(session.finished());
  EXPECT_EQ(session.delivered_frames(), 50);
}

TEST_F(RtpSessionTest, ZeroFrameSessionFinishesImmediately) {
  media::ReplicaInfo replica = VcdReplica(/*duration_seconds=*/0.0);
  RtpStreamingSession session(&simulator_, replica, StreamTransform{},
                              RtpSessionOptions{});
  session.AttachTimeSharing(&scheduler_);
  bool finished = false;
  session.Start([&finished] { finished = true; });
  EXPECT_TRUE(finished);
}

TEST(TopologyTest, PaperTestbedHasThreeServers) {
  Topology topology = Topology::PaperTestbed();
  ASSERT_EQ(topology.servers.size(), 3u);
  for (const ServerSpec& server : topology.servers) {
    EXPECT_DOUBLE_EQ(server.outbound_kbps, 3200.0);
  }
  EXPECT_NE(topology.Find(SiteId(0)), nullptr);
  EXPECT_EQ(topology.Find(SiteId(9)), nullptr);
  EXPECT_EQ(topology.SiteIds().size(), 3u);
}

}  // namespace
}  // namespace quasaq::net
