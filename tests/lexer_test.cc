#include "query/lexer.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

namespace quasaq::query {
namespace {

std::vector<Token> MustTokenize(std::string_view input) {
  Result<std::vector<Token>> tokens = Tokenize(input);
  EXPECT_TRUE(tokens.ok()) << tokens.status().ToString();
  return tokens.ok() ? *tokens : std::vector<Token>{};
}

TEST(LexerTest, EmptyInputYieldsEnd) {
  auto tokens = MustTokenize("");
  ASSERT_EQ(tokens.size(), 1u);
  EXPECT_EQ(tokens[0].type, TokenType::kEnd);
}

TEST(LexerTest, WhitespaceOnlyYieldsEnd) {
  auto tokens = MustTokenize("   \t\n  ");
  ASSERT_EQ(tokens.size(), 1u);
  EXPECT_EQ(tokens[0].type, TokenType::kEnd);
}

TEST(LexerTest, Identifiers) {
  auto tokens = MustTokenize("SELECT videos frame_rate");
  ASSERT_EQ(tokens.size(), 4u);
  EXPECT_EQ(tokens[0].type, TokenType::kIdent);
  EXPECT_EQ(tokens[0].text, "SELECT");
  EXPECT_EQ(tokens[2].text, "frame_rate");
}

TEST(LexerTest, StringLiterals) {
  auto tokens = MustTokenize("'hello world'");
  ASSERT_EQ(tokens.size(), 2u);
  EXPECT_EQ(tokens[0].type, TokenType::kString);
  EXPECT_EQ(tokens[0].text, "hello world");
}

TEST(LexerTest, EmptyStringLiteral) {
  auto tokens = MustTokenize("''");
  ASSERT_EQ(tokens.size(), 2u);
  EXPECT_EQ(tokens[0].type, TokenType::kString);
  EXPECT_EQ(tokens[0].text, "");
}

TEST(LexerTest, UnterminatedStringFails) {
  Result<std::vector<Token>> tokens = Tokenize("'oops");
  ASSERT_FALSE(tokens.ok());
  EXPECT_EQ(tokens.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(tokens.status().message().find("unterminated"),
            std::string::npos);
}

TEST(LexerTest, IntegerAndDecimalNumbers) {
  auto tokens = MustTokenize("42 23.97");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[0].type, TokenType::kNumber);
  EXPECT_DOUBLE_EQ(tokens[0].number, 42.0);
  EXPECT_EQ(tokens[1].type, TokenType::kNumber);
  EXPECT_DOUBLE_EQ(tokens[1].number, 23.97);
}

TEST(LexerTest, ResolutionLiteral) {
  auto tokens = MustTokenize("320x240");
  ASSERT_EQ(tokens.size(), 2u);
  EXPECT_EQ(tokens[0].type, TokenType::kResolution);
  EXPECT_EQ(tokens[0].res_width, 320);
  EXPECT_EQ(tokens[0].res_height, 240);
}

TEST(LexerTest, ResolutionWithCapitalX) {
  auto tokens = MustTokenize("720X480");
  ASSERT_EQ(tokens.size(), 2u);
  EXPECT_EQ(tokens[0].type, TokenType::kResolution);
  EXPECT_EQ(tokens[0].res_width, 720);
  EXPECT_EQ(tokens[0].res_height, 480);
}

TEST(LexerTest, NumberFollowedByIdentIsNotResolution) {
  auto tokens = MustTokenize("320 x240");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[0].type, TokenType::kNumber);
  EXPECT_EQ(tokens[1].type, TokenType::kIdent);
}

TEST(LexerTest, Operators) {
  auto tokens = MustTokenize(">= <= =");
  ASSERT_EQ(tokens.size(), 4u);
  EXPECT_EQ(tokens[0].type, TokenType::kGe);
  EXPECT_EQ(tokens[1].type, TokenType::kLe);
  EXPECT_EQ(tokens[2].type, TokenType::kEq);
}

TEST(LexerTest, BareComparisonWithoutEqualsFails) {
  Result<std::vector<Token>> tokens = Tokenize("framerate > 20");
  ASSERT_FALSE(tokens.ok());
  EXPECT_EQ(tokens.status().code(), StatusCode::kInvalidArgument);
}

TEST(LexerTest, Punctuation) {
  auto tokens = MustTokenize("(,);");
  ASSERT_EQ(tokens.size(), 5u);
  EXPECT_EQ(tokens[0].type, TokenType::kLParen);
  EXPECT_EQ(tokens[1].type, TokenType::kComma);
  EXPECT_EQ(tokens[2].type, TokenType::kRParen);
  EXPECT_EQ(tokens[3].type, TokenType::kSemicolon);
}

TEST(LexerTest, UnknownCharacterFails) {
  Result<std::vector<Token>> tokens = Tokenize("videos @ 3");
  ASSERT_FALSE(tokens.ok());
  EXPECT_NE(tokens.status().message().find("'@'"), std::string::npos);
}

TEST(LexerTest, PositionsPointIntoInput) {
  auto tokens = MustTokenize("SELECT video");
  ASSERT_GE(tokens.size(), 2u);
  EXPECT_EQ(tokens[0].position, 0u);
  EXPECT_EQ(tokens[1].position, 7u);
}

TEST(LexerTest, FullQueryTokenizes) {
  auto tokens = MustTokenize(
      "SELECT video FROM videos WHERE CONTAINS('sunset') WITH QOS "
      "(resolution >= 320x240, framerate >= 15.5)");
  EXPECT_GT(tokens.size(), 15u);
  EXPECT_EQ(tokens.back().type, TokenType::kEnd);
}

TEST(LexerTest, TokensViewTheInput) {
  const std::string input = "SELECT 'sunset' >= 320x240 23.97";
  auto tokens = MustTokenize(input);
  ASSERT_EQ(tokens.size(), 6u);
  for (size_t i = 0; i + 1 < tokens.size(); ++i) {
    EXPECT_GE(tokens[i].text.data(), input.data());
    EXPECT_LE(tokens[i].text.data() + tokens[i].text.size(),
              input.data() + input.size());
  }
  EXPECT_EQ(tokens[1].text.data(), input.data() + 8);  // inside the quotes
  EXPECT_EQ(tokens[1].position, 7u);                   // at the quote
  EXPECT_EQ(tokens[2].text, ">=");
  EXPECT_EQ(tokens[3].text, "320x240");
}

TEST(LexerTest, ResolutionSideBeyondIntIsMinusOne) {
  auto tokens = MustTokenize("99999999999x240 320x2147483648 2147483647x1");
  ASSERT_EQ(tokens.size(), 4u);
  EXPECT_EQ(tokens[0].res_width, -1);
  EXPECT_EQ(tokens[0].res_height, 240);
  EXPECT_EQ(tokens[1].res_width, 320);
  EXPECT_EQ(tokens[1].res_height, -1);
  EXPECT_EQ(tokens[2].res_width, 2147483647);
}

TEST(LexerTest, NumbersBeyondDoubleRangeDecodeLikeStrtod) {
  const std::string huge(400, '9');
  const std::string tiny = "0." + std::string(400, '0') + "1";
  auto tokens = MustTokenize(huge + " " + tiny + " 1.");
  ASSERT_EQ(tokens.size(), 4u);
  EXPECT_EQ(tokens[0].number, HUGE_VAL);
  EXPECT_EQ(tokens[1].number, 0.0);
  EXPECT_EQ(tokens[2].number, 1.0);
}

TEST(LexerTest, SignedNumbersOnlyInsideSimilarParentheses) {
  const std::string huge(400, '9');
  const std::string tiny = "0." + std::string(400, '0') + "1";
  const std::string input =
      "similar(-0.5, 7, -" + huge + ", -" + tiny + ", -12x3)";
  auto tokens = MustTokenize(input);
  ASSERT_EQ(tokens.size(), 14u);
  EXPECT_EQ(tokens[2].type, TokenType::kNumber);
  EXPECT_EQ(tokens[2].text, "-0.5");
  EXPECT_EQ(tokens[2].number, -0.5);
  EXPECT_EQ(tokens[2].position, 8u);
  EXPECT_EQ(tokens[4].number, 7.0);
  EXPECT_EQ(tokens[6].number, -HUGE_VAL);
  EXPECT_EQ(tokens[8].number, 0.0);
  EXPECT_TRUE(std::signbit(tokens[8].number));
  // A signed digit run never starts a resolution literal.
  EXPECT_EQ(tokens[10].type, TokenType::kNumber);
  EXPECT_EQ(tokens[10].number, -12.0);
  EXPECT_EQ(tokens[11].text, "x3");

  // Outside that list, and for a '-' not directly before a digit, the
  // sign stays an unexpected character.
  for (const char* input :
       {"-1", "framerate >= -5", "SIMILAR (0.1) TOP -3", "SIMILAR(- 0.5)",
        "SIMILARITY(-0.5)", "TITLE(-0.5)", "SIMILAR(0.5, (-1))"}) {
    Result<std::vector<Token>> failed = Tokenize(input);
    ASSERT_FALSE(failed.ok()) << input;
    EXPECT_NE(failed.status().message().find("unexpected character '-'"),
              std::string::npos)
        << input;
  }
}

TEST(LexerTest, TokenTypeNames) {
  EXPECT_EQ(TokenTypeName(TokenType::kIdent), "identifier");
  EXPECT_EQ(TokenTypeName(TokenType::kResolution), "resolution");
  EXPECT_EQ(TokenTypeName(TokenType::kEnd), "end of input");
}

}  // namespace
}  // namespace quasaq::query
