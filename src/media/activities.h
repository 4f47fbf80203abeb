#ifndef QUASAQ_MEDIA_ACTIVITIES_H_
#define QUASAQ_MEDIA_ACTIVITIES_H_

#include <string>

#include "media/frames.h"
#include "media/quality.h"

// Server activities (paper §3.4, Fig. 2): the per-plan processing steps a
// delivery plan may compose after object retrieval — frame dropping,
// online transcoding, and encryption. Each activity exposes the cost
// model the Plan Generator uses to build a plan's resource vector and the
// stream transformation an RTP streaming session applies.

namespace quasaq::media {

// ---------------------------------------------------------------------------
// Frame dropping (activity set A3)

// Runtime QoS adaptation by dropping droppable MPEG frames. Matches the
// strategies of Fig. 2: no dropping, half of the B frames, all B frames,
// or all B and P frames (I frames only).
enum class FrameDropStrategy {
  kNone = 0,
  kHalfBFrames,
  kAllBFrames,
  kAllBAndPFrames,
};

inline constexpr int kNumFrameDropStrategies = 4;

/// Returns e.g. "no-drop", "half-B", "all-B", "all-B+P".
std::string_view FrameDropStrategyName(FrameDropStrategy strategy);

/// True when a frame survives the strategy. `b_ordinal` is the 0-based
/// index of this frame among the B frames of its GOP (used by kHalfB,
/// which drops every other B frame); ignored for other types.
bool FrameSurvivesDrop(FrameDropStrategy strategy, FrameType type,
                       int b_ordinal);

// Aggregate effect of a drop strategy on a stream with a given GOP
// pattern.
struct FrameDropEffect {
  double bandwidth_factor = 1.0;   // surviving bytes / original bytes
  double frame_rate_factor = 1.0;  // surviving frames / original frames
};

/// Computes the effect of `strategy` over one GOP of `pattern`.
FrameDropEffect ComputeFrameDropEffect(const GopPattern& pattern,
                                       FrameDropStrategy strategy);

/// The effect of `strategy` on a stream of `format`'s standard GOP
/// (GopPattern::StandardFor). A pure function of its arguments, so it is
/// computed once per (format, strategy) into a static table: bitwise
/// equal to ComputeFrameDropEffect on the same pattern, without the GOP
/// walk. Thread-safe.
const FrameDropEffect& StandardFrameDropEffect(VideoFormat format,
                                               FrameDropStrategy strategy);

// ---------------------------------------------------------------------------
// Online transcoding (activity set A4)

// Cost constants of the online transcoder (stand-in for the modified
// `transcode` tool of the prototype). CPU cost scales with the pixel
// rates read plus written.
inline constexpr double kTranscodeCpuMsPerMegapixel = 45.0;

/// True when transcoding from `from` to `to` is sensible: never upscale
/// resolution, color depth or frame rate (paper §3.4: "it makes no sense
/// to transcode from low resolution to high resolution").
bool TranscodeAllowed(const AppQos& from, const AppQos& to);

/// CPU milliseconds consumed per second of video transcoded online.
double TranscodeCpuMsPerSecond(const AppQos& from, const AppQos& to);

// ---------------------------------------------------------------------------
// Encryption (activity set A5)

// Stream encryption choices. The prototype evaluates three algorithms
// with different CPU cost / strength trade-offs.
enum class EncryptionAlgorithm {
  kNone = 0,
  kAlgorithm1,  // block cipher, strong, slow
  kAlgorithm2,  // block cipher, standard, medium
  kAlgorithm3,  // stream cipher, standard, fast
};

inline constexpr int kNumEncryptionAlgorithms = 4;

// Required security strength; queries ask for a level, algorithms
// provide one.
enum class SecurityLevel { kNone = 0, kStandard, kStrong };

/// Returns e.g. "none", "enc1", "enc2", "enc3".
std::string_view EncryptionAlgorithmName(EncryptionAlgorithm algorithm);

/// The strength an algorithm provides.
SecurityLevel EncryptionStrength(EncryptionAlgorithm algorithm);

/// CPU milliseconds consumed per KB of stream encrypted.
double EncryptionCpuMsPerKb(EncryptionAlgorithm algorithm);

// ---------------------------------------------------------------------------
// Baseline streaming cost (packetization / RTP synchronization)

// Per-frame CPU cost of streaming itself (decode of layering info,
// packetization, RTP timestamping) — the work the Transport API performs
// for every delivered frame regardless of other activities.
struct StreamingCpuCost {
  double ms_per_frame_base = 0.8;
  double ms_per_kb = 0.01;

  /// CPU milliseconds to process one frame of `size_kb`.
  double FrameMs(double size_kb) const {
    return ms_per_frame_base + ms_per_kb * size_kb;
  }
};

}  // namespace quasaq::media

#endif  // QUASAQ_MEDIA_ACTIVITIES_H_
