#include "cache/segment.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "media/frames.h"

namespace quasaq::cache {

SegmentLayout SegmentLayout::For(const media::ReplicaInfo& replica,
                                 const Options& options) {
  assert(replica.bitrate_kbps > 0.0);
  assert(replica.duration_seconds > 0.0);
  assert(options.target_segment_seconds > 0.0);

  SegmentLayout layout;
  media::GopPattern pattern =
      media::GopPattern::StandardFor(replica.qos.format);
  double frame_rate = replica.qos.frame_rate > 0.0 ? replica.qos.frame_rate
                                                   : 24.0;
  double gop_seconds = static_cast<double>(pattern.size()) / frame_rate;
  layout.gops_per_segment_ = std::max(
      1, static_cast<int>(
             std::llround(options.target_segment_seconds / gop_seconds)));
  layout.segment_seconds_ = layout.gops_per_segment_ * gop_seconds;
  layout.full_segment_kb_ = replica.bitrate_kbps * layout.segment_seconds_;
  layout.total_kb_ = replica.size_kb > 0.0
                         ? replica.size_kb
                         : replica.bitrate_kbps * replica.duration_seconds;
  layout.num_segments_ = std::max(
      1, static_cast<int>(std::ceil(replica.duration_seconds /
                                    layout.segment_seconds_)));
  return layout;
}

double SegmentLayout::SegmentKb(int index) const {
  assert(index >= 0 && index < num_segments_);
  if (index + 1 < num_segments_) return full_segment_kb_;
  // Trailing remainder: whatever the full segments did not cover.
  double remainder =
      total_kb_ - full_segment_kb_ * static_cast<double>(num_segments_ - 1);
  return std::clamp(remainder, 0.0, full_segment_kb_);
}

}  // namespace quasaq::cache
