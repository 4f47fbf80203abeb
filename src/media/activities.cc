#include "media/activities.h"

#include <array>

namespace quasaq::media {

std::string_view FrameDropStrategyName(FrameDropStrategy strategy) {
  switch (strategy) {
    case FrameDropStrategy::kNone:
      return "no-drop";
    case FrameDropStrategy::kHalfBFrames:
      return "half-B";
    case FrameDropStrategy::kAllBFrames:
      return "all-B";
    case FrameDropStrategy::kAllBAndPFrames:
      return "all-B+P";
  }
  return "unknown";
}

bool FrameSurvivesDrop(FrameDropStrategy strategy, FrameType type,
                       int b_ordinal) {
  switch (strategy) {
    case FrameDropStrategy::kNone:
      return true;
    case FrameDropStrategy::kHalfBFrames:
      return type != FrameType::kB || (b_ordinal % 2) == 0;
    case FrameDropStrategy::kAllBFrames:
      return type != FrameType::kB;
    case FrameDropStrategy::kAllBAndPFrames:
      return type == FrameType::kI;
  }
  return true;
}

FrameDropEffect ComputeFrameDropEffect(const GopPattern& pattern,
                                       FrameDropStrategy strategy) {
  double surviving_weight = 0.0;
  int surviving_frames = 0;
  int b_ordinal = 0;
  for (FrameType type : pattern.frames()) {
    int ordinal = type == FrameType::kB ? b_ordinal++ : 0;
    if (!FrameSurvivesDrop(strategy, type, ordinal)) continue;
    surviving_weight += FrameTypeWeight(type);
    ++surviving_frames;
  }
  FrameDropEffect effect;
  effect.bandwidth_factor = surviving_weight / pattern.TotalWeight();
  effect.frame_rate_factor =
      static_cast<double>(surviving_frames) / pattern.size();
  return effect;
}

const FrameDropEffect& StandardFrameDropEffect(VideoFormat format,
                                               FrameDropStrategy strategy) {
  using Table =
      std::array<std::array<FrameDropEffect, kNumFrameDropStrategies>,
                 kNumVideoFormats>;
  static const Table table = [] {
    Table t;
    for (int f = 0; f < kNumVideoFormats; ++f) {
      GopPattern pattern = GopPattern::StandardFor(static_cast<VideoFormat>(f));
      for (int s = 0; s < kNumFrameDropStrategies; ++s) {
        t[f][s] = ComputeFrameDropEffect(pattern,
                                         static_cast<FrameDropStrategy>(s));
      }
    }
    return t;
  }();
  return table[static_cast<size_t>(format)][static_cast<size_t>(strategy)];
}

bool TranscodeAllowed(const AppQos& from, const AppQos& to) {
  if (to.resolution.PixelCount() > from.resolution.PixelCount()) return false;
  if (to.color_depth_bits > from.color_depth_bits) return false;
  if (to.frame_rate > from.frame_rate + 1e-9) return false;
  if (to.audio > from.audio) return false;
  // Identity "transcode" is not a transcode; the planner models staying
  // in the source quality as the absence of the A4 activity.
  if (to == from) return false;
  return true;
}

double TranscodeCpuMsPerSecond(const AppQos& from, const AppQos& to) {
  double read_mpix = static_cast<double>(from.resolution.PixelCount()) *
                     from.frame_rate / 1e6;
  double write_mpix = static_cast<double>(to.resolution.PixelCount()) *
                      to.frame_rate / 1e6;
  return kTranscodeCpuMsPerMegapixel * (read_mpix + write_mpix);
}

std::string_view EncryptionAlgorithmName(EncryptionAlgorithm algorithm) {
  switch (algorithm) {
    case EncryptionAlgorithm::kNone:
      return "none";
    case EncryptionAlgorithm::kAlgorithm1:
      return "enc1";
    case EncryptionAlgorithm::kAlgorithm2:
      return "enc2";
    case EncryptionAlgorithm::kAlgorithm3:
      return "enc3";
  }
  return "unknown";
}

SecurityLevel EncryptionStrength(EncryptionAlgorithm algorithm) {
  switch (algorithm) {
    case EncryptionAlgorithm::kNone:
      return SecurityLevel::kNone;
    case EncryptionAlgorithm::kAlgorithm1:
      return SecurityLevel::kStrong;
    case EncryptionAlgorithm::kAlgorithm2:
      return SecurityLevel::kStandard;
    case EncryptionAlgorithm::kAlgorithm3:
      return SecurityLevel::kStandard;
  }
  return SecurityLevel::kNone;
}

double EncryptionCpuMsPerKb(EncryptionAlgorithm algorithm) {
  switch (algorithm) {
    case EncryptionAlgorithm::kNone:
      return 0.0;
    case EncryptionAlgorithm::kAlgorithm1:
      return 0.050;
    case EncryptionAlgorithm::kAlgorithm2:
      return 0.030;
    case EncryptionAlgorithm::kAlgorithm3:
      return 0.012;
  }
  return 0.0;
}

}  // namespace quasaq::media
