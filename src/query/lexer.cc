#include "query/lexer.h"

#include <charconv>
#include <cmath>
#include <string>

#include "query/parser.h"

namespace quasaq::query {

namespace {

// ASCII classes as the C locale draws them, compared inline instead of
// looked up per byte.
bool IsDigit(char c) { return c >= '0' && c <= '9'; }
bool IsSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }
bool IsIdentStart(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
}
bool IsIdentChar(char c) { return IsIdentStart(c) || IsDigit(c); }

// Decodes a digit run; -1 when it does not fit an int.
int DecodeInt(std::string_view digits) {
  int value = 0;
  const std::errc error =
      std::from_chars(digits.data(), digits.data() + digits.size(), value).ec;
  return error == std::errc() ? value : -1;
}

// Decodes a decimal literal, with an optional leading '-', exactly as
// strtod does (both round correctly), including its HUGE_VAL past the
// double range and 0 below it; only a literal under 1 can underflow.
double DecodeNumber(std::string_view text) {
  double value = 0.0;
  if (std::from_chars(text.data(), text.data() + text.size(), value).ec ==
      std::errc::result_out_of_range) {
    const bool negative = text[0] == '-';
    if (negative) text.remove_prefix(1);
    value = text[text.find_first_not_of('0')] == '.' ? 0.0 : HUGE_VAL;
    if (negative) value = -value;
  }
  return value;
}

}  // namespace

std::string_view TokenTypeName(TokenType type) {
  switch (type) {
    case TokenType::kIdent:
      return "identifier";
    case TokenType::kString:
      return "string";
    case TokenType::kNumber:
      return "number";
    case TokenType::kResolution:
      return "resolution";
    case TokenType::kComma:
      return "','";
    case TokenType::kLParen:
      return "'('";
    case TokenType::kRParen:
      return "')'";
    case TokenType::kSemicolon:
      return "';'";
    case TokenType::kEq:
      return "'='";
    case TokenType::kGe:
      return "'>='";
    case TokenType::kLe:
      return "'<='";
    case TokenType::kEnd:
      return "end of input";
  }
  return "unknown";
}

Result<std::vector<Token>> Tokenize(std::string_view input) {
  const size_t n = input.size();
  std::vector<Token> tokens;
  // Every token but kEnd covers at least one byte: one allocation.
  tokens.reserve(n + 1);
  auto emit = [&](TokenType type, size_t start, size_t end) -> Token& {
    Token& token = tokens.emplace_back();
    token.type = type;
    token.text = input.substr(start, end - start);
    token.position = start;
    return token;
  };
  // Inside the parentheses that follow the SIMILAR keyword, where a '-'
  // directly before a digit starts a negative feature. Anywhere else the
  // grammar has no sign, and a '-' stays an unexpected character.
  bool in_features = false;
  size_t i = 0;
  while (i < n) {
    char c = input[i];
    if (IsSpace(c)) {
      ++i;
      continue;
    }
    size_t start = i;
    if (c == ',') {
      emit(TokenType::kComma, start, ++i);
    } else if (c == '(') {
      in_features = !tokens.empty() &&
                    tokens.back().type == TokenType::kIdent &&
                    internal_parser::EqualsIgnoreCase(tokens.back().text,
                                                      "SIMILAR");
      emit(TokenType::kLParen, start, ++i);
    } else if (c == ')') {
      in_features = false;
      emit(TokenType::kRParen, start, ++i);
    } else if (c == ';') {
      emit(TokenType::kSemicolon, start, ++i);
    } else if (c == '=') {
      emit(TokenType::kEq, start, ++i);
    } else if (c == '>' || c == '<') {
      if (i + 1 >= n || input[i + 1] != '=') {
        return Status::InvalidArgument(
            "expected '=' after '" + std::string(1, c) + "' at offset " +
            std::to_string(start));
      }
      i += 2;
      emit(c == '>' ? TokenType::kGe : TokenType::kLe, start, i);
    } else if (c == '\'') {
      // No escapes: the contents are the bytes up to the next quote.
      size_t close = input.find('\'', i + 1);
      if (close == std::string_view::npos) {
        return Status::InvalidArgument("unterminated string at offset " +
                                       std::to_string(start));
      }
      Token& token = emit(TokenType::kString, start + 1, close);
      token.position = start;
      i = close + 1;
    } else if (IsDigit(c) ||
               (c == '-' && in_features && i + 1 < n &&
                IsDigit(input[i + 1]))) {
      const bool signed_number = c == '-';
      size_t j = signed_number ? i + 1 : i;
      while (j < n && IsDigit(input[j])) ++j;
      // A digit run followed by 'x' and another digit run is a
      // resolution literal (e.g. 320x240).
      if (!signed_number && j < n && (input[j] == 'x' || input[j] == 'X') &&
          j + 1 < n && IsDigit(input[j + 1])) {
        size_t k = j + 1;
        while (k < n && IsDigit(input[k])) ++k;
        Token& token = emit(TokenType::kResolution, start, k);
        token.res_width = DecodeInt(input.substr(i, j - i));
        token.res_height = DecodeInt(input.substr(j + 1, k - j - 1));
        i = k;
      } else {
        // Decimal number (integer or fractional part allowed).
        if (j < n && input[j] == '.') {
          ++j;
          while (j < n && IsDigit(input[j])) ++j;
        }
        Token& token = emit(TokenType::kNumber, start, j);
        token.number = DecodeNumber(token.text);
        i = j;
      }
    } else if (IsIdentStart(c)) {
      size_t j = i;
      while (j < n && IsIdentChar(input[j])) ++j;
      emit(TokenType::kIdent, start, j);
      i = j;
    } else {
      return Status::InvalidArgument("unexpected character '" +
                                     std::string(1, c) + "' at offset " +
                                     std::to_string(start));
    }
  }
  emit(TokenType::kEnd, n, n);
  return tokens;
}

}  // namespace quasaq::query
