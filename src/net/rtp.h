#ifndef QUASAQ_NET_RTP_H_
#define QUASAQ_NET_RTP_H_

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "common/sim_time.h"
#include "common/stats.h"
#include "media/activities.h"
#include "media/frames.h"
#include "media/video.h"
#include "resource/cpu_scheduler.h"
#include "simcore/simulator.h"

// RTP-like streaming transport (the Transport API of §3.5, stand-in for
// the live.com-based streamer of the prototype). A session walks the
// replica's VBR frame sequence, paced by transmission (frame i+1 is
// handled once frame i's bytes have left at the delivered bitrate),
// applies the plan's server activities (transcode / frame-drop /
// encrypt), and submits the per-frame CPU work to a CpuScheduler.
//
// The simulated time at which each delivered frame's processing
// completes is recorded server-side; consecutive differences are the
// paper's inter-frame delays (Figure 5, Table 2).

namespace quasaq::net {

// The in-band processing a plan applies to the stream.
struct StreamTransform {
  media::FrameDropStrategy drop = media::FrameDropStrategy::kNone;
  // Online transcode target; empty = deliver the stored quality.
  std::optional<media::AppQos> transcode_target;
  media::EncryptionAlgorithm encryption = media::EncryptionAlgorithm::kNone;

  /// The quality actually delivered (transcode target or the stored
  /// quality of `replica`).
  media::AppQos DeliveredQos(const media::ReplicaInfo& replica) const;
};

// The A4 stage of a delivery, fixed by its transcode target alone: the
// quality leaving the transcoder (the target, or the stored quality when
// there is none), that quality's bitrate and the online transcode work.
struct TranscodeStage {
  media::AppQos qos;
  double bitrate_kbps = 0.0;
  double cpu_ms_per_second = 0.0;
};

/// The transcode stage of delivering `replica` at `target` (stored
/// quality when empty).
TranscodeStage MakeTranscodeStage(const media::ReplicaInfo& replica,
                                  const std::optional<media::AppQos>& target);

// Everything StreamDeliveredQos, StreamWireRateKbps and StreamCpuFraction
// derive from a (transcode target, drop) choice before the encryption
// algorithm enters. A planner computes it once per choice and prices
// each encryption algorithm from it; StreamCpuFraction is defined
// through it, so both routes produce the same doubles.
struct StreamRates {
  media::AppQos delivered_qos;  // frame rate already scaled by the drop
  double wire_rate_kbps = 0.0;
  // Online transcode plus per-frame streaming work, CPU ms per second.
  double base_cpu_ms_per_second = 0.0;

  /// StreamCpuFraction of this choice protected by `encryption`.
  double CpuFraction(media::EncryptionAlgorithm encryption) const {
    return (base_cpu_ms_per_second +
            media::EncryptionCpuMsPerKb(encryption) * wire_rate_kbps) /
           1000.0;
  }
};

/// The rates of delivering `replica` through `stage` under `drop`.
StreamRates ComputeStreamRates(const media::ReplicaInfo& replica,
                               const TranscodeStage& stage,
                               media::FrameDropStrategy drop,
                               const media::StreamingCpuCost& cost);

/// Average wire rate (KB/s) of `replica` delivered under `transform`
/// (bitrate of the delivered quality scaled by the drop strategy's
/// surviving-bytes factor).
double StreamWireRateKbps(const media::ReplicaInfo& replica,
                          const StreamTransform& transform);

/// CPU fraction of one server CPU needed to deliver `replica` under
/// `transform`: online transcode of every source frame, packetization of
/// every surviving frame, and encryption of every wire byte.
double StreamCpuFraction(const media::ReplicaInfo& replica,
                         const StreamTransform& transform,
                         const media::StreamingCpuCost& cost);

/// The quality actually observed by the client: the delivered quality
/// with its frame rate scaled by the drop strategy's surviving-frames
/// factor.
media::AppQos StreamDeliveredQos(const media::ReplicaInfo& replica,
                                 const StreamTransform& transform);

struct RtpSessionOptions {
  media::StreamingCpuCost cpu_cost;
  // VBR noise of the frame sequence. The defaults are calibrated to the
  // prototype's measurements: I/B/P size spread dominates inter-frame
  // variance while GOP-level sums stay nearly constant (Table 2).
  media::FrameSizeGenerator::Options vbr{/*gop_noise_sd=*/0.01,
                                         /*frame_noise_sd=*/0.05};
  // Stop after this many source frames; 0 = the replica's full duration.
  int max_source_frames = 0;
  // Keep at most this many per-frame completion times (0 = keep none;
  // background-load sessions use that to stay cheap).
  size_t record_limit = 4096;
};

class RtpStreamingSession {
 public:
  using FinishedCallback = std::function<void()>;

  /// The session creates its own WorkQueueTask on `scheduler`; for a
  /// time-sharing CPU, AddTask() it there first via AttachTimeSharing,
  /// or reserve it on a ReservationCpuScheduler via AttachReserved.
  RtpStreamingSession(sim::Simulator* simulator,
                      const media::ReplicaInfo& replica,
                      const StreamTransform& transform,
                      const RtpSessionOptions& options);
  ~RtpStreamingSession();

  RtpStreamingSession(const RtpStreamingSession&) = delete;
  RtpStreamingSession& operator=(const RtpStreamingSession&) = delete;

  /// Registers the session's CPU task on a time-sharing scheduler
  /// (plain VDBMS mode). Call exactly one Attach* before Start().
  void AttachTimeSharing(res::TimeSharingCpuScheduler* scheduler);

  /// Reserves `cpu_fraction` on a reservation scheduler (QuaSAQ mode).
  Status AttachReserved(res::ReservationCpuScheduler* scheduler,
                        double cpu_fraction);

  /// Begins streaming at the current simulated time.
  void Start(FinishedCallback on_finished = nullptr);

  /// Stops early (no more frames are scheduled; no callback fires).
  void Stop();

  bool finished() const { return finished_; }
  int delivered_frames() const { return delivered_frames_; }
  int source_frames() const { return source_frame_index_; }

  /// CPU fraction this stream needs on the serving CPU (used both for
  /// reservations and for the plan's resource vector).
  double CpuDemandFraction() const;

  /// Completion times of the first `record_limit` delivered frames.
  const std::vector<SimTime>& frame_completion_times() const {
    return completion_times_;
  }

  /// Inter-frame delay statistics (milliseconds) over recorded frames.
  RunningStats InterFrameDelayStats() const;

  /// Inter-GOP delay statistics (milliseconds): deltas between the
  /// completion times of every `gop_frames`-th recorded frame.
  RunningStats InterGopDelayStats(int gop_frames = 15) const;

 private:
  void ScheduleNextFrame(SimTime delay);
  void HandleSourceFrame();
  int TotalSourceFrames() const;

  sim::Simulator* simulator_;
  media::ReplicaInfo replica_;
  StreamTransform transform_;
  RtpSessionOptions options_;

  media::AppQos delivered_qos_;
  double output_scale_ = 1.0;      // output bytes per input byte
  double wire_rate_kbps_ = 0.0;    // average delivered KB/s
  double transcode_ms_per_frame_ = 0.0;

  std::unique_ptr<media::FrameSizeGenerator> frames_;
  std::unique_ptr<res::WorkQueueTask> cpu_task_;
  res::CpuScheduler* scheduler_ = nullptr;

  FinishedCallback on_finished_;
  sim::EventId pending_frame_event_ = sim::kInvalidEventId;
  int source_frame_index_ = 0;
  int delivered_frames_ = 0;
  int b_ordinal_in_gop_ = 0;
  double carried_cpu_ms_ = 0.0;  // work from frames that produced no output
  int frames_in_flight_ = 0;
  bool started_ = false;
  bool finished_ = false;
  bool source_exhausted_ = false;
  std::vector<SimTime> completion_times_;
};

}  // namespace quasaq::net

#endif  // QUASAQ_NET_RTP_H_
