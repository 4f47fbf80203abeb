#include "core/query_producer.h"

#include <cassert>
#include <charconv>
#include <cstdio>

namespace quasaq::core {

namespace {

// Appends `value` in the shortest fixed-point form that the lexer
// decodes back to the same double (the query language has no exponent).
void AppendNumber(std::string& text, double value) {
  char buf[400];  // the fixed form of any double fits
  const std::to_chars_result result =
      std::to_chars(buf, buf + sizeof(buf), value, std::chars_format::fixed);
  text.append(buf, result.ptr);
}

}  // namespace

QueryProducer::QueryProducer(const UserProfile* profile) : profile_(profile) {
  assert(profile_ != nullptr);
}

query::ParsedQuery QueryProducer::Produce(
    const query::ContentPredicate& content, const QopRequest& request) const {
  query::ParsedQuery parsed;
  parsed.target = "videos";
  parsed.content = content;
  parsed.qos.range = profile_->Translate(request);
  parsed.qos.min_security = request.security;
  parsed.has_qos_clause = true;
  return parsed;
}

std::string QueryProducer::ProduceText(const query::ContentPredicate& content,
                                       const QopRequest& request) const {
  std::string text = "SELECT video FROM videos";
  bool first_term = true;
  auto add_term = [&](const std::string& term) {
    text += first_term ? " WHERE " : " AND ";
    first_term = false;
    text += term;
  };
  if (content.title.has_value()) {
    add_term("TITLE = '" + *content.title + "'");
  }
  for (const std::string& keyword : content.keywords) {
    add_term("CONTAINS('" + keyword + "')");
  }
  if (content.similar_to.has_value()) {
    std::string term = "SIMILAR(";
    for (size_t i = 0; i < content.similar_to->size(); ++i) {
      if (i > 0) term += ", ";
      AppendNumber(term, (*content.similar_to)[i]);
    }
    term += ")";
    if (content.top_k != 1) {
      term += " TOP " + std::to_string(content.top_k);
    }
    add_term(term);
  }

  media::AppQosRange range = profile_->Translate(request);
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                " WITH QOS (resolution >= %dx%d, resolution <= %dx%d,"
                " framerate >= ",
                range.min_resolution.width, range.min_resolution.height,
                range.max_resolution.width, range.max_resolution.height);
  text += buf;
  AppendNumber(text, range.min_frame_rate);
  text += ", framerate <= ";
  AppendNumber(text, range.max_frame_rate);
  std::snprintf(buf, sizeof(buf), ", color >= %d, color <= %d",
                range.min_color_depth_bits, range.max_color_depth_bits);
  text += buf;
  text += ", audio >= ";
  text += media::AudioQualityName(range.min_audio);
  text += ", audio <= ";
  text += media::AudioQualityName(range.max_audio);
  switch (request.security) {
    case media::SecurityLevel::kNone:
      break;
    case media::SecurityLevel::kStandard:
      text += ", security >= standard";
      break;
    case media::SecurityLevel::kStrong:
      text += ", security >= strong";
      break;
  }
  text += ")";
  return text;
}

}  // namespace quasaq::core
