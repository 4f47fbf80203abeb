#ifndef QUASAQ_QUERY_LEXER_H_
#define QUASAQ_QUERY_LEXER_H_

#include <string_view>
#include <vector>

#include "common/status.h"

// Tokenizer for the QoS-aware query language. Keywords are recognized in
// the parser (case-insensitively); the lexer only classifies shapes, but
// for one: it knows SIMILAR opens the only list whose numbers may carry
// a sign.
//
// Tokens are views: `Token::text` points into the input, so the input
// must outlive every token lexed from it. Nothing is copied per token.

namespace quasaq::query {

enum class TokenType {
  kIdent = 0,    // SELECT, videos, framerate, MPEG1, ...
  kString,       // 'sunset'
  kNumber,       // 20, 23.97; -0.5 only as a SIMILAR feature
  kResolution,   // 320x240
  kComma,
  kLParen,
  kRParen,
  kSemicolon,
  kEq,           // =
  kGe,           // >=
  kLe,           // <=
  kEnd,
};

struct Token {
  TokenType type = TokenType::kEnd;
  // Raw text, viewing the input (string contents for kString).
  std::string_view text;
  double number = 0.0;     // for kNumber
  // For kResolution; -1 when that side does not fit an int.
  int res_width = 0;
  int res_height = 0;
  size_t position = 0;     // byte offset in the input, for diagnostics
};

/// Returns a short name for `type` ("identifier", "','", ...).
std::string_view TokenTypeName(TokenType type);

/// Tokenizes `input`; the result always ends with a kEnd token, and its
/// tokens view `input`. A number may start with '-' only inside the
/// parentheses after SIMILAR. Fails with kInvalidArgument on an
/// unrecognized character (a '-' anywhere else among them) or an
/// unterminated string literal.
Result<std::vector<Token>> Tokenize(std::string_view input);

}  // namespace quasaq::query

#endif  // QUASAQ_QUERY_LEXER_H_
