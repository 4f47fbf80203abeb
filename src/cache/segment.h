#ifndef QUASAQ_CACHE_SEGMENT_H_
#define QUASAQ_CACHE_SEGMENT_H_

#include <cstdint>
#include <functional>

#include "common/ids.h"
#include "media/video.h"

// Segment addressing for the streaming cache. A replica's byte range is
// cut into fixed-duration segments aligned to whole GOPs (media/frames.h)
// so a cached segment is always independently decodable — a stream can
// switch between cache and disk at any segment boundary without breaking
// the MPEG reference structure. All segments of a replica share one size
// (bitrate x segment duration) except the trailing remainder.

namespace quasaq::cache {

// Names one segment of one stored replica.
struct SegmentKey {
  PhysicalOid replica;
  int32_t index = 0;

  friend bool operator==(const SegmentKey& a, const SegmentKey& b) {
    return a.replica == b.replica && a.index == b.index;
  }
  friend auto operator<=>(const SegmentKey& a, const SegmentKey& b) = default;
};

// The deterministic segment geometry of one replica. Pure function of the
// replica record and the layout options, so every component (cache,
// planner) derives the same geometry independently.
class SegmentLayout {
 public:
  struct Options {
    // Target playback duration of one segment; rounded to whole GOPs.
    double target_segment_seconds = 10.0;
  };

  /// Computes the layout of `replica` (requires positive bitrate and
  /// duration).
  static SegmentLayout For(const media::ReplicaInfo& replica,
                           const Options& options);
  static SegmentLayout For(const media::ReplicaInfo& replica) {
    return For(replica, Options{});
  }

  int num_segments() const { return num_segments_; }
  /// Playback seconds covered by one full segment (a whole number of
  /// GOPs).
  double segment_seconds() const { return segment_seconds_; }
  int gops_per_segment() const { return gops_per_segment_; }
  double total_kb() const { return total_kb_; }

  /// Size in KB of segment `index`; the last segment carries the
  /// remainder and may be smaller (never larger).
  double SegmentKb(int index) const;

 private:
  SegmentLayout() = default;

  int num_segments_ = 1;
  int gops_per_segment_ = 1;
  double segment_seconds_ = 0.0;
  double full_segment_kb_ = 0.0;
  double total_kb_ = 0.0;
};

}  // namespace quasaq::cache

namespace std {

template <>
struct hash<quasaq::cache::SegmentKey> {
  size_t operator()(const quasaq::cache::SegmentKey& key) const {
    return std::hash<int64_t>()(key.replica.value() * 131071 + key.index);
  }
};

}  // namespace std

#endif  // QUASAQ_CACHE_SEGMENT_H_
