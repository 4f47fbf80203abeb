#include "query/parser.h"

#include <gtest/gtest.h>

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
                     "TOP"}),
    [](const ::testing::TestParamInfo<BadQueryCase>& info) {
      return info.param.name;
    });

TEST(ParserInternalsTest, EqualsIgnoreCase) {
  using internal_parser::EqualsIgnoreCase;
  EXPECT_TRUE(EqualsIgnoreCase("SELECT", "select"));
  EXPECT_TRUE(EqualsIgnoreCase("MpEg1", "mpeg1"));
  EXPECT_FALSE(EqualsIgnoreCase("select", "selec"));
  EXPECT_FALSE(EqualsIgnoreCase("a", "b"));
}

}  // namespace
}  // namespace quasaq::query
