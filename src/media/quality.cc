#include "media/quality.h"

#include <cstdio>

namespace quasaq::media {

std::string_view VideoFormatName(VideoFormat format) {
  switch (format) {
    case VideoFormat::kMpeg1:
      return "MPEG1";
    case VideoFormat::kMpeg2:
      return "MPEG2";
  }
  return "UNKNOWN";
}

std::string_view AudioQualityName(AudioQuality audio) {
  switch (audio) {
    case AudioQuality::kNone:
      return "none";
    case AudioQuality::kPhone:
      return "phone";
    case AudioQuality::kFm:
      return "fm";
    case AudioQuality::kCd:
      return "cd";
  }
  return "unknown";
}

double AudioBitrateKBps(AudioQuality audio) {
  switch (audio) {
    case AudioQuality::kNone:
      return 0.0;
    case AudioQuality::kPhone:
      return 2.0;   // ~16 kbit/s speech codec
    case AudioQuality::kFm:
      return 8.0;   // ~64 kbit/s
    case AudioQuality::kCd:
      return 16.0;  // ~128 kbit/s stereo
  }
  return 0.0;
}

std::string ResolutionToString(const Resolution& r) {
  return std::to_string(r.width) + "x" + std::to_string(r.height);
}

std::string AppQosToString(const AppQos& qos) {
  char buf[112];
  std::snprintf(buf, sizeof(buf), "%dx%d/%dbit/%.5gfps/%s/%s-audio",
                qos.resolution.width, qos.resolution.height,
                qos.color_depth_bits, qos.frame_rate,
                std::string(VideoFormatName(qos.format)).c_str(),
                std::string(AudioQualityName(qos.audio)).c_str());
  return std::string(buf);
}

bool AppQosRange::Contains(const AppQos& qos) const {
  if (qos.resolution.PixelCount() < min_resolution.PixelCount()) return false;
  if (qos.resolution.PixelCount() > max_resolution.PixelCount()) return false;
  if (qos.color_depth_bits < min_color_depth_bits) return false;
  if (qos.color_depth_bits > max_color_depth_bits) return false;
  if (qos.frame_rate < min_frame_rate) return false;
  if (qos.frame_rate > max_frame_rate) return false;
  if (qos.audio < min_audio || qos.audio > max_audio) return false;
  return AcceptsFormat(qos.format);
}

bool AppQosRange::AcceptsFormat(VideoFormat format) const {
  return (accepted_formats & (1u << static_cast<int>(format))) != 0;
}

std::string AppQosRange::ToString() const {
  std::string out = "[";
  out.append(ResolutionToString(min_resolution)).append("...")
      .append(ResolutionToString(max_resolution)).append(", ")
      .append(std::to_string(min_color_depth_bits)).append("...")
      .append(std::to_string(max_color_depth_bits)).append("bit, ");
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.3g...%.3gfps", min_frame_rate,
                max_frame_rate);
  out += buf;
  out += ", audio=";
  out += AudioQualityName(min_audio);
  out += "...";
  out += AudioQualityName(max_audio);
  out += ", fmts=";
  bool first = true;
  for (int i = 0; i < kNumVideoFormats; ++i) {
    if ((accepted_formats & (1u << i)) == 0) continue;
    if (!first) out += "|";
    first = false;
    out += VideoFormatName(static_cast<VideoFormat>(i));
  }
  out += "]";
  return out;
}

double EstimateVideoBitrateKBps(const AppQos& qos) {
  // Compressed bits per pixel at 24-bit color.
  double bits_per_pixel = qos.format == VideoFormat::kMpeg1 ? 0.40 : 0.30;
  double depth_factor = static_cast<double>(qos.color_depth_bits) / 24.0;
  double bits_per_second = static_cast<double>(qos.resolution.PixelCount()) *
                           qos.frame_rate * bits_per_pixel * depth_factor;
  return bits_per_second / 8.0 / 1024.0;
}

double EstimateBitrateKBps(const AppQos& qos) {
  return EstimateVideoBitrateKBps(qos) + AudioBitrateKBps(qos.audio);
}

}  // namespace quasaq::media
