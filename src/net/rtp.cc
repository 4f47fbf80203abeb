#include "net/rtp.h"

#include <cassert>
#include <cmath>

namespace quasaq::net {

media::AppQos StreamTransform::DeliveredQos(
    const media::ReplicaInfo& replica) const {
  return transcode_target.value_or(replica.qos);
}

TranscodeStage MakeTranscodeStage(
    const media::ReplicaInfo& replica,
    const std::optional<media::AppQos>& target) {
  TranscodeStage stage;
  stage.qos = target.value_or(replica.qos);
  stage.bitrate_kbps = media::EstimateBitrateKBps(stage.qos);
  stage.cpu_ms_per_second =
      target.has_value()
          ? media::TranscodeCpuMsPerSecond(replica.qos, *target)
          : 0.0;
  return stage;
}

StreamRates ComputeStreamRates(const media::ReplicaInfo& replica,
                               const TranscodeStage& stage,
                               media::FrameDropStrategy drop,
                               const media::StreamingCpuCost& cost) {
  const media::FrameDropEffect& effect =
      media::StandardFrameDropEffect(replica.qos.format, drop);
  StreamRates rates;
  rates.delivered_qos = stage.qos;
  rates.delivered_qos.frame_rate *= effect.frame_rate_factor;
  rates.wire_rate_kbps = stage.bitrate_kbps * effect.bandwidth_factor;
  // Packetization runs per surviving *source* frame.
  double delivered_fps = replica.qos.frame_rate * effect.frame_rate_factor;
  double mean_out_kb =
      delivered_fps > 0.0 ? rates.wire_rate_kbps / delivered_fps : 0.0;
  rates.base_cpu_ms_per_second =
      stage.cpu_ms_per_second + cost.FrameMs(mean_out_kb) * delivered_fps;
  return rates;
}

double StreamWireRateKbps(const media::ReplicaInfo& replica,
                          const StreamTransform& transform) {
  return media::EstimateBitrateKBps(transform.DeliveredQos(replica)) *
         media::StandardFrameDropEffect(replica.qos.format, transform.drop)
             .bandwidth_factor;
}

double StreamCpuFraction(const media::ReplicaInfo& replica,
                         const StreamTransform& transform,
                         const media::StreamingCpuCost& cost) {
  return ComputeStreamRates(replica,
                            MakeTranscodeStage(replica,
                                               transform.transcode_target),
                            transform.drop, cost)
      .CpuFraction(transform.encryption);
}

media::AppQos StreamDeliveredQos(const media::ReplicaInfo& replica,
                                 const StreamTransform& transform) {
  media::AppQos qos = transform.DeliveredQos(replica);
  qos.frame_rate *=
      media::StandardFrameDropEffect(replica.qos.format, transform.drop)
          .frame_rate_factor;
  return qos;
}

RtpStreamingSession::RtpStreamingSession(sim::Simulator* simulator,
                                         const media::ReplicaInfo& replica,
                                         const StreamTransform& transform,
                                         const RtpSessionOptions& options)
    : simulator_(simulator),
      replica_(replica),
      transform_(transform),
      options_(options) {
  assert(simulator_ != nullptr);
  delivered_qos_ = transform_.DeliveredQos(replica_);
  if (transform_.transcode_target.has_value()) {
    output_scale_ = media::EstimateBitrateKBps(delivered_qos_) /
                    media::EstimateBitrateKBps(replica_.qos);
    transcode_ms_per_frame_ =
        media::TranscodeCpuMsPerSecond(replica_.qos, delivered_qos_) /
        replica_.qos.frame_rate;
  }
  media::GopPattern pattern =
      media::GopPattern::StandardFor(replica_.qos.format);
  wire_rate_kbps_ = StreamWireRateKbps(replica_, transform_);
  frames_ = std::make_unique<media::FrameSizeGenerator>(
      pattern, replica_.bitrate_kbps, replica_.qos.frame_rate,
      replica_.frame_seed, options_.vbr);
}

RtpStreamingSession::~RtpStreamingSession() { Stop(); }

void RtpStreamingSession::AttachTimeSharing(
    res::TimeSharingCpuScheduler* scheduler) {
  assert(scheduler_ == nullptr && "already attached");
  cpu_task_ = std::make_unique<res::WorkQueueTask>(scheduler);
  scheduler->AddTask(cpu_task_.get());
  scheduler_ = scheduler;
}

Status RtpStreamingSession::AttachReserved(
    res::ReservationCpuScheduler* scheduler, double cpu_fraction) {
  assert(scheduler_ == nullptr && "already attached");
  auto task = std::make_unique<res::WorkQueueTask>(scheduler);
  Status status = scheduler->AddReservedTask(task.get(), cpu_fraction);
  if (!status.ok()) return status;
  cpu_task_ = std::move(task);
  scheduler_ = scheduler;
  return Status::Ok();
}

int RtpStreamingSession::TotalSourceFrames() const {
  int from_duration = static_cast<int>(
      std::floor(replica_.duration_seconds * replica_.qos.frame_rate));
  if (options_.max_source_frames > 0) {
    return std::min(options_.max_source_frames, from_duration);
  }
  return from_duration;
}

double RtpStreamingSession::CpuDemandFraction() const {
  return StreamCpuFraction(replica_, transform_, options_.cpu_cost);
}

void RtpStreamingSession::Start(FinishedCallback on_finished) {
  assert(cpu_task_ != nullptr && "call AttachTimeSharing/AttachReserved");
  assert(!started_);
  started_ = true;
  on_finished_ = std::move(on_finished);
  if (TotalSourceFrames() == 0) {
    finished_ = true;
    if (on_finished_) on_finished_();
    return;
  }
  ScheduleNextFrame(0);
}

void RtpStreamingSession::Stop() {
  if (pending_frame_event_ != sim::kInvalidEventId) {
    simulator_->Cancel(pending_frame_event_);
    pending_frame_event_ = sim::kInvalidEventId;
  }
  // Dropping the task also drops any frames still queued on the CPU.
  cpu_task_.reset();
  source_exhausted_ = true;
}

void RtpStreamingSession::ScheduleNextFrame(SimTime delay) {
  pending_frame_event_ =
      simulator_->ScheduleAfter(delay, [this] { HandleSourceFrame(); });
}

void RtpStreamingSession::HandleSourceFrame() {
  pending_frame_event_ = sim::kInvalidEventId;
  media::FrameInfo frame = frames_->Next();
  if (frame.index_in_gop == 0) b_ordinal_in_gop_ = 0;
  int b_ordinal = 0;
  if (frame.type == media::FrameType::kB) b_ordinal = b_ordinal_in_gop_++;

  ++source_frame_index_;
  const bool last_frame = source_frame_index_ >= TotalSourceFrames();

  double cpu_ms = transcode_ms_per_frame_;
  bool survives =
      media::FrameSurvivesDrop(transform_.drop, frame.type, b_ordinal);
  if (!survives) {
    // The frame consumes its transcode work but produces no output;
    // charge that work to the next delivered frame.
    carried_cpu_ms_ += cpu_ms;
    if (!last_frame) {
      ScheduleNextFrame(0);
    } else {
      source_exhausted_ = true;
      if (frames_in_flight_ == 0 && !finished_) {
        finished_ = true;
        if (on_finished_) on_finished_();
      }
    }
    return;
  }

  double output_kb = frame.size_kb * output_scale_;
  cpu_ms += options_.cpu_cost.FrameMs(output_kb) +
            media::EncryptionCpuMsPerKb(transform_.encryption) * output_kb;
  cpu_ms += carried_cpu_ms_;
  carried_cpu_ms_ = 0.0;

  ++frames_in_flight_;
  cpu_task_->Submit(cpu_ms, [this](SimTime completion) {
    --frames_in_flight_;
    ++delivered_frames_;
    if (completion_times_.size() < options_.record_limit) {
      completion_times_.push_back(completion);
    }
    if (source_exhausted_ && frames_in_flight_ == 0 && !finished_) {
      finished_ = true;
      if (on_finished_) on_finished_();
    }
  });

  if (!last_frame) {
    // Transmission pacing: the next frame is handled once this frame's
    // bytes have left at the delivered wire rate.
    double seconds = output_kb / wire_rate_kbps_;
    ScheduleNextFrame(SecondsToSimTime(seconds));
  } else {
    source_exhausted_ = true;
  }
}

RunningStats RtpStreamingSession::InterFrameDelayStats() const {
  RunningStats stats;
  for (size_t i = 1; i < completion_times_.size(); ++i) {
    stats.Add(SimTimeToMillis(completion_times_[i] - completion_times_[i - 1]));
  }
  return stats;
}

RunningStats RtpStreamingSession::InterGopDelayStats(int gop_frames) const {
  RunningStats stats;
  assert(gop_frames > 0);
  size_t step = static_cast<size_t>(gop_frames);
  for (size_t i = step; i < completion_times_.size(); i += step) {
    stats.Add(SimTimeToMillis(completion_times_[i] - completion_times_[i - step]));
  }
  return stats;
}

}  // namespace quasaq::net
