#include "query/parser.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/qop.h"
#include "core/query_producer.h"
#include "workload/traffic.h"

namespace quasaq::query {
namespace {

ParsedQuery MustParse(std::string_view input) {
  Result<ParsedQuery> parsed = ParseQuery(input);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  return parsed.ok() ? *parsed : ParsedQuery{};
}

TEST(ParserTest, MinimalQuery) {
  ParsedQuery query = MustParse("SELECT video FROM videos");
  EXPECT_EQ(query.target, "videos");
  EXPECT_TRUE(query.content.empty());
  EXPECT_FALSE(query.has_qos_clause);
}

TEST(ParserTest, KeywordsAreCaseInsensitive) {
  ParsedQuery query = MustParse("select video from videos");
  EXPECT_EQ(query.target, "videos");
}

TEST(ParserTest, TrailingSemicolonAccepted) {
  MustParse("SELECT video FROM videos;");
}

TEST(ParserTest, ContainsPredicate) {
  ParsedQuery query =
      MustParse("SELECT video FROM videos WHERE CONTAINS('sunset')");
  ASSERT_EQ(query.content.keywords.size(), 1u);
  EXPECT_EQ(query.content.keywords[0], "sunset");
}

TEST(ParserTest, MultipleContainsAreAnded) {
  ParsedQuery query = MustParse(
      "SELECT video FROM videos WHERE CONTAINS('sunset') AND "
      "CONTAINS('ocean')");
  ASSERT_EQ(query.content.keywords.size(), 2u);
}

TEST(ParserTest, TitlePredicate) {
  ParsedQuery query =
      MustParse("SELECT video FROM videos WHERE TITLE = 'video03'");
  ASSERT_TRUE(query.content.title.has_value());
  EXPECT_EQ(*query.content.title, "video03");
}

TEST(ParserTest, SimilarPredicateWithTop) {
  ParsedQuery query = MustParse(
      "SELECT video FROM videos WHERE SIMILAR(0.1, 0.2, 0.3) TOP 5");
  ASSERT_TRUE(query.content.similar_to.has_value());
  EXPECT_EQ(query.content.similar_to->size(), 3u);
  EXPECT_DOUBLE_EQ((*query.content.similar_to)[1], 0.2);
  EXPECT_EQ(query.content.top_k, 5);
}

TEST(ParserTest, SimilarDefaultsToTopOne) {
  ParsedQuery query =
      MustParse("SELECT video FROM videos WHERE SIMILAR(0.5)");
  EXPECT_EQ(query.content.top_k, 1);
}

TEST(ParserTest, QosResolutionBounds) {
  ParsedQuery query = MustParse(
      "SELECT video FROM videos WITH QOS (resolution >= 320x240, "
      "resolution <= 720x480)");
  EXPECT_TRUE(query.has_qos_clause);
  EXPECT_EQ(query.qos.range.min_resolution, (media::Resolution{320, 240}));
  EXPECT_EQ(query.qos.range.max_resolution, (media::Resolution{720, 480}));
}

TEST(ParserTest, QosResolutionEqualityPinsBothBounds) {
  ParsedQuery query = MustParse(
      "SELECT video FROM videos WITH QOS (resolution = 352x288)");
  EXPECT_EQ(query.qos.range.min_resolution, (media::Resolution{352, 288}));
  EXPECT_EQ(query.qos.range.max_resolution, (media::Resolution{352, 288}));
}

TEST(ParserTest, QosFrameRateAndColor) {
  ParsedQuery query = MustParse(
      "SELECT video FROM videos WITH QOS (framerate >= 15, framerate <= 30,"
      " color >= 12, color <= 24)");
  EXPECT_DOUBLE_EQ(query.qos.range.min_frame_rate, 15.0);
  EXPECT_DOUBLE_EQ(query.qos.range.max_frame_rate, 30.0);
  EXPECT_EQ(query.qos.range.min_color_depth_bits, 12);
  EXPECT_EQ(query.qos.range.max_color_depth_bits, 24);
}

TEST(ParserTest, QosSingleFormat) {
  ParsedQuery query =
      MustParse("SELECT video FROM videos WITH QOS (format = MPEG1)");
  EXPECT_TRUE(query.qos.range.AcceptsFormat(media::VideoFormat::kMpeg1));
  EXPECT_FALSE(query.qos.range.AcceptsFormat(media::VideoFormat::kMpeg2));
}

TEST(ParserTest, QosFormatInList) {
  ParsedQuery query = MustParse(
      "SELECT video FROM videos WITH QOS (format IN (MPEG1, MPEG2))");
  EXPECT_TRUE(query.qos.range.AcceptsFormat(media::VideoFormat::kMpeg1));
  EXPECT_TRUE(query.qos.range.AcceptsFormat(media::VideoFormat::kMpeg2));
}

TEST(ParserTest, QosSecurityLevels) {
  EXPECT_EQ(MustParse("SELECT v FROM videos WITH QOS (security >= standard)")
                .qos.min_security,
            media::SecurityLevel::kStandard);
  EXPECT_EQ(MustParse("SELECT v FROM videos WITH QOS (security = strong)")
                .qos.min_security,
            media::SecurityLevel::kStrong);
  EXPECT_EQ(MustParse("SELECT v FROM videos WITH QOS (security = none)")
                .qos.min_security,
            media::SecurityLevel::kNone);
}

TEST(ParserTest, FullQuery) {
  ParsedQuery query = MustParse(
      "SELECT video FROM videos WHERE CONTAINS('surgery') AND "
      "SIMILAR(0.9, 0.1) TOP 2 WITH QOS (resolution >= 480x480, "
      "framerate >= 20, color >= 24, format IN (MPEG1, MPEG2), "
      "security >= strong);");
  EXPECT_EQ(query.content.keywords.size(), 1u);
  EXPECT_EQ(query.content.top_k, 2);
  EXPECT_EQ(query.qos.min_security, media::SecurityLevel::kStrong);
  EXPECT_EQ(query.qos.range.min_resolution, (media::Resolution{480, 480}));
}

// --- error cases ---------------------------------------------------------

struct BadQueryCase {
  const char* name;
  const char* text;
  const char* message_fragment;
};

// Without this gtest prints the case as a raw byte dump of its pointers,
// which ends up in the test names ctest discovers and so changes from one
// build to the next.
void PrintTo(const BadQueryCase& test_case, std::ostream* os) {
  *os << test_case.name;
}

// 310 nines: a literal past the double range, which the lexer decodes
// as infinity.
const std::string kBeyondDouble(310, '9');
const std::string kStartupBeyondDouble =
    "SELECT v FROM videos WITH QOS (startup <= " + kBeyondDouble + ")";
const std::string kFrameRateBeyondDouble =
    "SELECT v FROM videos WITH QOS (framerate <= " + kBeyondDouble + ")";
const std::string kSimilarBeyondDouble =
    "SELECT v FROM videos WHERE SIMILAR(0.5, " + kBeyondDouble + ")";

class ParserErrorTest : public ::testing::TestWithParam<BadQueryCase> {};

TEST_P(ParserErrorTest, RejectsWithDiagnostic) {
  const BadQueryCase& test_case = GetParam();
  Result<ParsedQuery> parsed = ParseQuery(test_case.text);
  ASSERT_FALSE(parsed.ok()) << test_case.text;
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(parsed.status().message().find(test_case.message_fragment),
            std::string::npos)
      << "actual: " << parsed.status().message();
}

INSTANTIATE_TEST_SUITE_P(
    BadQueries, ParserErrorTest,
    ::testing::Values(
        BadQueryCase{"MissingSelect", "video FROM videos", "SELECT"},
        BadQueryCase{"MissingFrom", "SELECT video videos", "FROM"},
        BadQueryCase{"MissingTarget", "SELECT video FROM", "identifier"},
        BadQueryCase{"EmptyWhere", "SELECT v FROM videos WHERE", "expected"},
        BadQueryCase{"BadTerm", "SELECT v FROM videos WHERE FOO('x')",
                     "CONTAINS, TITLE or SIMILAR"},
        BadQueryCase{"ContainsWantsString",
                     "SELECT v FROM videos WHERE CONTAINS(42)", "string"},
        BadQueryCase{"UnknownQosParam",
                     "SELECT v FROM videos WITH QOS (loudness >= 3)",
                     "unknown QoS parameter"},
        BadQueryCase{"UnknownFormat",
                     "SELECT v FROM videos WITH QOS (format = MPEG7)",
                     "unknown format"},
        BadQueryCase{"UnknownSecurity",
                     "SELECT v FROM videos WITH QOS (security = medium)",
                     "unknown security level"},
        BadQueryCase{"ResolutionWantsResolution",
                     "SELECT v FROM videos WITH QOS (resolution >= 42)",
                     "resolution"},
        BadQueryCase{"TrailingGarbage", "SELECT v FROM videos extra",
                     "trailing"},
        BadQueryCase{"EmptyResolutionRange",
                     "SELECT v FROM videos WITH QOS (resolution >= 720x480, "
                     "resolution <= 320x240)",
                     "empty resolution range"},
        BadQueryCase{"EmptyFrameRateRange",
                     "SELECT v FROM videos WITH QOS (framerate >= 30, "
                     "framerate <= 10)",
                     "empty frame rate range"},
        BadQueryCase{"ZeroTop",
                     "SELECT v FROM videos WHERE SIMILAR(0.1) TOP 0",
                     "TOP"},
        BadQueryCase{"ColorOutOfRange",
                     "SELECT v FROM videos WITH QOS (color >= 99999999999)",
                     "color depth out of range"},
        BadQueryCase{"ResolutionWidthOutOfRange",
                     "SELECT v FROM videos WITH QOS "
                     "(resolution >= 99999999999x240)",
                     "resolution width out of range"},
        BadQueryCase{"ResolutionHeightOutOfRange",
                     "SELECT v FROM videos WITH QOS "
                     "(resolution >= 320x99999999999)",
                     "resolution height out of range"},
        BadQueryCase{"TopOutOfRange",
                     "SELECT v FROM videos WHERE SIMILAR(0.1) TOP 99999999999",
                     "TOP out of range"},
        BadQueryCase{"FractionalTop",
                     "SELECT v FROM videos WHERE SIMILAR(0.1) TOP 2.9",
                     "TOP must be a whole number"},
        BadQueryCase{"FractionalColor",
                     "SELECT v FROM videos WITH QOS (color >= 12.7)",
                     "color depth must be a whole number"},
        BadQueryCase{"StartupBeyondDoubleRange", kStartupBeyondDouble.c_str(),
                     "number out of range"},
        BadQueryCase{"FrameRateBeyondDoubleRange",
                     kFrameRateBeyondDouble.c_str(), "number out of range"},
        BadQueryCase{"SimilarBeyondDoubleRange",
                     kSimilarBeyondDouble.c_str(), "number out of range"}),
    [](const ::testing::TestParamInfo<BadQueryCase>& info) {
      return info.param.name;
    });

// The full diagnostic of every rejected query above, plus the lexer's
// three errors, byte for byte: offsets and wording are part of the
// interface. Only the out-of-range and whole-number messages are newer
// than the rest.
TEST(ParserDiagnosticsTest, MessagesAreExact) {
  struct Case {
    std::string text;
    std::string message;
  };
  const Case cases[] = {
      {"video FROM videos",
       "expected keyword 'SELECT' at offset 0 (got 'video')"},
      {"SELECT video videos",
       "expected keyword 'FROM' at offset 13 (got 'videos')"},
      {"SELECT video FROM",
       "expected identifier at offset 17 (got end of input)"},
      {"SELECT v FROM videos WHERE",
       "expected CONTAINS, TITLE or SIMILAR at offset 26 (got end of "
       "input)"},
      {"SELECT v FROM videos WHERE FOO('x')",
       "expected CONTAINS, TITLE or SIMILAR at offset 27 (got 'FOO')"},
      {"SELECT v FROM videos WHERE CONTAINS(42)",
       "expected string at offset 36 (got '42')"},
      {"SELECT v FROM videos WITH QOS (loudness >= 3)",
       "unknown QoS parameter 'loudness' at offset 31 (got 'loudness')"},
      {"SELECT v FROM videos WITH QOS (format = MPEG7)",
       "unknown format 'MPEG7'"},
      {"SELECT v FROM videos WITH QOS (security = medium)",
       "unknown security level 'medium'"},
      {"SELECT v FROM videos WITH QOS (resolution >= 42)",
       "expected resolution at offset 45 (got '42')"},
      {"SELECT v FROM videos extra",
       "trailing input at offset 21 (got 'extra')"},
      {"SELECT v FROM videos WITH QOS (resolution >= 720x480, "
       "resolution <= 320x240)",
       "empty resolution range"},
      {"SELECT v FROM videos WITH QOS (framerate >= 30, framerate <= 10)",
       "empty frame rate range"},
      {"SELECT v FROM videos WHERE SIMILAR(0.1) TOP 0",
       "TOP must be at least 1"},
      {"SELECT v FROM videos WITH QOS (color >= 99999999999)",
       "color depth out of range at offset 40 (got '99999999999')"},
      {"SELECT v FROM videos WITH QOS (resolution >= 99999999999x240)",
       "resolution width out of range at offset 45 (got "
       "'99999999999x240')"},
      {"SELECT v FROM videos WITH QOS (resolution >= 320x99999999999)",
       "resolution height out of range at offset 45 (got "
       "'320x99999999999')"},
      {"SELECT v FROM videos WHERE SIMILAR(0.1) TOP 99999999999",
       "TOP out of range at offset 44 (got '99999999999')"},
      {"SELECT v FROM videos WHERE SIMILAR(0.1) TOP 2.9",
       "TOP must be a whole number at offset 44 (got '2.9')"},
      {"SELECT v FROM videos WITH QOS (color >= 12.7)",
       "color depth must be a whole number at offset 40 (got '12.7')"},
      {kStartupBeyondDouble,
       "number out of range at offset 42 (got '" + kBeyondDouble + "')"},
      {kFrameRateBeyondDouble,
       "number out of range at offset 44 (got '" + kBeyondDouble + "')"},
      {kSimilarBeyondDouble,
       "number out of range at offset 40 (got '" + kBeyondDouble + "')"},
      {"SELECT v FROM videos @", "unexpected character '@' at offset 21"},
      {"SELECT v FROM videos WHERE CONTAINS('oops",
       "unterminated string at offset 36"},
      {"SELECT v FROM videos WITH QOS (framerate > 20)",
       "expected '=' after '>' at offset 41"},
      // Only a SIMILAR feature takes a sign.
      {"SELECT v FROM videos WITH QOS (framerate >= -5)",
       "unexpected character '-' at offset 44"},
      {"SELECT v FROM videos WHERE SIMILAR(0.1) TOP -3",
       "unexpected character '-' at offset 44"},
      {"SELECT v FROM videos WHERE SIMILAR(- 0.5)",
       "unexpected character '-' at offset 35"},
      {"SELECT v FROM videos WHERE SIMILAR(0.5, -" + kBeyondDouble + ")",
       "number out of range at offset 40 (got '-" + kBeyondDouble + "')"},
  };
  for (const Case& test_case : cases) {
    Result<ParsedQuery> parsed = ParseQuery(test_case.text);
    ASSERT_FALSE(parsed.ok()) << test_case.text;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(parsed.status().message(), test_case.message) << test_case.text;
  }
}

// Parses a private copy of `text` sized to the byte, freed before the
// caller reads the result: under ASan a view that outlives its text, or
// a read past its end, faults.
Result<ParsedQuery> ParseCopy(std::string_view text) {
  std::vector<char> copy(text.begin(), text.end());
  return ParseQuery(std::string_view(copy.data(), copy.size()));
}

bool SameQos(const QosRequirement& a, const QosRequirement& b) {
  const media::AppQosRange& x = a.range;
  const media::AppQosRange& y = b.range;
  return x.min_resolution == y.min_resolution &&
         x.max_resolution == y.max_resolution &&
         x.min_color_depth_bits == y.min_color_depth_bits &&
         x.max_color_depth_bits == y.max_color_depth_bits &&
         x.min_frame_rate == y.min_frame_rate &&
         x.max_frame_rate == y.max_frame_rate &&
         x.accepted_formats == y.accepted_formats &&
         x.min_audio == y.min_audio && x.max_audio == y.max_audio &&
         a.min_security == b.min_security &&
         a.max_startup_seconds == b.max_startup_seconds;
}

// Every query the traffic generator can draw (81 QoP level combinations
// x 3 security levels), with a title, a keyword and a similarity term,
// renders to text that parses back to the same requirement and content,
// and so do a similarity term whose features need all 17 significant
// digits and one with negative features. Every prefix of one full query,
// and every substitution of one of its bytes from a small alphabet,
// parses or is rejected as invalid.
TEST(ParserRoundTripTest, TrafficTextsRoundTripAndMutantsAreRejectedCleanly) {
  const workload::TrafficGenerator traffic(workload::TrafficOptions(), 1,
                                           {SiteId(0)});
  const core::QueryProducer producer(&traffic.profile());
  const core::QopLevel levels[] = {core::QopLevel::kLow,
                                   core::QopLevel::kMedium,
                                   core::QopLevel::kHigh};
  const media::SecurityLevel securities[] = {media::SecurityLevel::kNone,
                                             media::SecurityLevel::kStandard,
                                             media::SecurityLevel::kStrong};
  std::vector<ContentPredicate> contents(5);
  contents[0].title = "video07";
  contents[1].keywords = {"sunset"};
  contents[2].similar_to = std::vector<double>{0.1, 0.3, 0.7};
  contents[2].top_k = 3;
  contents[3].similar_to = std::vector<double>{0.123456789, 1.0 / 3.0};
  contents[4].similar_to = std::vector<double>{-0.5, 0.25, -1.0 / 3.0, -0.0};
  contents[4].top_k = 2;
  constexpr size_t kTrafficContents = 3;

  // FNV-1a (64-bit) over the traffic contents' texts, each followed by
  // '\n'. The expected value is the digest of the texts the printf("%g")
  // renderer produced: every traffic number survives %g, so the
  // round-trip renderer must not move a byte of them.
  uint64_t traffic_digest = 14695981039346656037ull;
  auto digest = [&traffic_digest](std::string_view bytes) {
    for (unsigned char byte : bytes) {
      traffic_digest ^= byte;
      traffic_digest *= 1099511628211ull;
    }
  };
  int round_trips = 0;
  for (core::QopLevel spatial : levels) {
    for (core::QopLevel temporal : levels) {
      for (core::QopLevel color : levels) {
        for (core::QopLevel audio : levels) {
          for (media::SecurityLevel security : securities) {
            core::QopRequest request;
            request.spatial = spatial;
            request.temporal = temporal;
            request.color = color;
            request.audio = audio;
            request.security = security;
            for (size_t c = 0; c < contents.size(); ++c) {
              const ContentPredicate& content = contents[c];
              const std::string text = producer.ProduceText(content, request);
              if (c < kTrafficContents) {
                digest(text);
                digest("\n");
              }
              Result<ParsedQuery> parsed = ParseCopy(text);
              ASSERT_TRUE(parsed.ok())
                  << parsed.status().ToString() << "\n" << text;
              const ParsedQuery direct = producer.Produce(content, request);
              EXPECT_EQ(parsed->target, direct.target) << text;
              EXPECT_TRUE(SameQos(parsed->qos, direct.qos)) << text;
              EXPECT_EQ(parsed->content.keywords, content.keywords) << text;
              EXPECT_EQ(parsed->content.title, content.title) << text;
              EXPECT_EQ(parsed->content.similar_to, content.similar_to)
                  << text;
              EXPECT_EQ(parsed->content.top_k, content.top_k) << text;
              ++round_trips;
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(round_trips, 81 * 3 * 5);
  EXPECT_EQ(traffic_digest, 0x4a7d1b42b698b29bull);

  core::QopRequest richest;
  richest.spatial = richest.temporal = richest.color = richest.audio =
      core::QopLevel::kHigh;
  richest.security = media::SecurityLevel::kStrong;
  ContentPredicate content;
  content.title = "video07";
  content.keywords = {"sunset"};
  content.similar_to = std::vector<double>{-0.25, 0.5};
  content.top_k = 3;
  const std::string text = producer.ProduceText(content, richest);
  auto parses_or_rejects = [](std::string_view mutant) {
    Result<ParsedQuery> parsed = ParseCopy(mutant);
    return parsed.ok() ||
           parsed.status().code() == StatusCode::kInvalidArgument;
  };
  for (size_t length = 0; length <= text.size(); ++length) {
    EXPECT_TRUE(parses_or_rejects(std::string_view(text).substr(0, length)))
        << text.substr(0, length);
  }
  for (size_t i = 0; i < text.size(); ++i) {
    for (char byte : std::string_view("'x9.(>- ")) {
      std::string mutant = text;
      mutant[i] = byte;
      EXPECT_TRUE(parses_or_rejects(mutant)) << mutant;
    }
  }
}

TEST(ParserInternalsTest, EqualsIgnoreCase) {
  using internal_parser::EqualsIgnoreCase;
  EXPECT_TRUE(EqualsIgnoreCase("SELECT", "select"));
  EXPECT_TRUE(EqualsIgnoreCase("MpEg1", "mpeg1"));
  EXPECT_FALSE(EqualsIgnoreCase("select", "selec"));
  EXPECT_FALSE(EqualsIgnoreCase("a", "b"));
}

}  // namespace
}  // namespace quasaq::query
