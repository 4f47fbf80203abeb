#include "query/parser.h"

#include <cmath>
#include <string>
#include <vector>

#include "query/lexer.h"

namespace quasaq::query {

namespace internal_parser {

namespace {

// ASCII case folding, as the C locale's tolower does it.
char ToLower(char c) { return c >= 'A' && c <= 'Z' ? c - 'A' + 'a' : c; }

}  // namespace

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (ToLower(a[i]) != ToLower(b[i])) return false;
  }
  return true;
}

}  // namespace internal_parser

namespace {

using internal_parser::EqualsIgnoreCase;

// The parser over one lexed token stream, which ends with kEnd. It reads
// the tokens in place; only what the query keeps is copied out of them.
class Parser {
 public:
  explicit Parser(const std::vector<Token>& tokens) : tokens_(tokens) {}

  Result<ParsedQuery> Run();

 private:
  const Token& Peek() const { return tokens_[pos_]; }
  const Token& Consume();
  bool PeekKeyword(std::string_view keyword) const;
  Status ExpectKeyword(std::string_view keyword);
  Result<Token> Expect(TokenType type);
  // A number literal that decodes to a finite double (the lexer decodes
  // one past the double range as infinity).
  Result<Token> ExpectFiniteNumber();
  // A number literal naming a whole int (never negative: only SIMILAR
  // features take a sign); `what` names the value in the diagnostics.
  Result<int> ExpectWholeNumber(std::string_view what);
  Result<TokenType> ExpectComparison();

  Status ParseWhere(ParsedQuery& query);
  Status ParseTerm(ParsedQuery& query);
  Status ParseQosClause(ParsedQuery& query);
  Status ParseQosItem(ParsedQuery& query);
  Status Validate(const ParsedQuery& query) const;

  Status ErrorAt(const Token& token, std::string message) const;

  const std::vector<Token>& tokens_;
  size_t pos_ = 0;
};

const Token& Parser::Consume() {
  const Token& token = tokens_[pos_];
  if (pos_ + 1 < tokens_.size()) ++pos_;
  return token;
}

bool Parser::PeekKeyword(std::string_view keyword) const {
  return Peek().type == TokenType::kIdent &&
         EqualsIgnoreCase(Peek().text, keyword);
}

Status Parser::ErrorAt(const Token& token, std::string message) const {
  message += " at offset " + std::to_string(token.position) + " (got ";
  if (token.type == TokenType::kEnd) {
    message += "end of input";
  } else {
    message += '\'';
    message += token.text;
    message += '\'';
  }
  message += ')';
  return Status::InvalidArgument(std::move(message));
}

Status Parser::ExpectKeyword(std::string_view keyword) {
  if (!PeekKeyword(keyword)) {
    return ErrorAt(Peek(), "expected keyword '" + std::string(keyword) + "'");
  }
  Consume();
  return Status::Ok();
}

Result<Token> Parser::Expect(TokenType type) {
  if (Peek().type != type) {
    return ErrorAt(Peek(),
                   "expected " + std::string(TokenTypeName(type)));
  }
  return Consume();
}

Result<Token> Parser::ExpectFiniteNumber() {
  Result<Token> token = Expect(TokenType::kNumber);
  if (token.ok() && std::isinf(token->number)) {
    return ErrorAt(*token, "number out of range");
  }
  return token;
}

Result<int> Parser::ExpectWholeNumber(std::string_view what) {
  Result<Token> token = Expect(TokenType::kNumber);
  if (!token.ok()) return token.status();
  // Below 2^31, so the value survives a cast to int.
  if (!(token->number < 2147483648.0)) {
    return ErrorAt(*token, std::string(what) + " out of range");
  }
  if (token->number != std::floor(token->number)) {
    return ErrorAt(*token, std::string(what) + " must be a whole number");
  }
  return static_cast<int>(token->number);
}

// Consumes one of `>=`, `<=` and `=`.
Result<TokenType> Parser::ExpectComparison() {
  const TokenType op = Peek().type;
  if (op != TokenType::kGe && op != TokenType::kLe && op != TokenType::kEq) {
    return ErrorAt(Peek(), "expected comparison operator");
  }
  Consume();
  return op;
}

Result<ParsedQuery> Parser::Run() {
  ParsedQuery query;
  if (PeekKeyword("EXPLAIN")) {
    Consume();
    query.explain = true;
  }
  if (Status s = ExpectKeyword("SELECT"); !s.ok()) return s;
  if (Result<Token> t = Expect(TokenType::kIdent); !t.ok()) {
    return t.status();
  }
  if (Status s = ExpectKeyword("FROM"); !s.ok()) return s;
  Result<Token> target = Expect(TokenType::kIdent);
  if (!target.ok()) return target.status();
  query.target = target->text;

  if (PeekKeyword("WHERE")) {
    Consume();
    if (Status s = ParseWhere(query); !s.ok()) return s;
  }
  if (PeekKeyword("WITH")) {
    Consume();
    if (Status s = ExpectKeyword("QOS"); !s.ok()) return s;
    if (Status s = ParseQosClause(query); !s.ok()) return s;
    query.has_qos_clause = true;
  }
  if (Peek().type == TokenType::kSemicolon) Consume();
  if (Peek().type != TokenType::kEnd) {
    return ErrorAt(Peek(), "trailing input");
  }
  if (Status s = Validate(query); !s.ok()) return s;
  return query;
}

Status Parser::ParseWhere(ParsedQuery& query) {
  if (Status s = ParseTerm(query); !s.ok()) return s;
  while (PeekKeyword("AND")) {
    Consume();
    if (Status s = ParseTerm(query); !s.ok()) return s;
  }
  return Status::Ok();
}

Status Parser::ParseTerm(ParsedQuery& query) {
  if (PeekKeyword("CONTAINS")) {
    Consume();
    if (Result<Token> t = Expect(TokenType::kLParen); !t.ok()) {
      return t.status();
    }
    Result<Token> keyword = Expect(TokenType::kString);
    if (!keyword.ok()) return keyword.status();
    if (Result<Token> t = Expect(TokenType::kRParen); !t.ok()) {
      return t.status();
    }
    query.content.keywords.emplace_back(keyword->text);
    return Status::Ok();
  }
  if (PeekKeyword("TITLE")) {
    Consume();
    if (Result<Token> t = Expect(TokenType::kEq); !t.ok()) return t.status();
    Result<Token> title = Expect(TokenType::kString);
    if (!title.ok()) return title.status();
    query.content.title = title->text;
    return Status::Ok();
  }
  if (PeekKeyword("SIMILAR")) {
    Consume();
    if (Result<Token> t = Expect(TokenType::kLParen); !t.ok()) {
      return t.status();
    }
    std::vector<double> features;
    Result<Token> first = ExpectFiniteNumber();
    if (!first.ok()) return first.status();
    features.push_back(first->number);
    while (Peek().type == TokenType::kComma) {
      Consume();
      Result<Token> next = ExpectFiniteNumber();
      if (!next.ok()) return next.status();
      features.push_back(next->number);
    }
    if (Result<Token> t = Expect(TokenType::kRParen); !t.ok()) {
      return t.status();
    }
    query.content.similar_to = std::move(features);
    if (PeekKeyword("TOP")) {
      Consume();
      Result<int> k = ExpectWholeNumber("TOP");
      if (!k.ok()) return k.status();
      query.content.top_k = *k;
    }
    return Status::Ok();
  }
  return ErrorAt(Peek(), "expected CONTAINS, TITLE or SIMILAR");
}

Status Parser::ParseQosClause(ParsedQuery& query) {
  if (Result<Token> t = Expect(TokenType::kLParen); !t.ok()) {
    return t.status();
  }
  if (Status s = ParseQosItem(query); !s.ok()) return s;
  while (Peek().type == TokenType::kComma) {
    Consume();
    if (Status s = ParseQosItem(query); !s.ok()) return s;
  }
  if (Result<Token> t = Expect(TokenType::kRParen); !t.ok()) {
    return t.status();
  }
  return Status::Ok();
}

// The enum value `token` names, matched case-insensitively against
// `names`, which lists the enum's values in order.
template <typename Enum, size_t N>
Result<Enum> ParseName(const Token& token, const std::string_view (&names)[N],
                       std::string_view what) {
  for (size_t i = 0; i < N; ++i) {
    if (EqualsIgnoreCase(token.text, names[i])) return static_cast<Enum>(i);
  }
  std::string message = "unknown ";
  message += what;
  message += " '";
  message += token.text;
  message += '\'';
  return Status::InvalidArgument(std::move(message));
}

constexpr std::string_view kFormatNames[] = {"MPEG1", "MPEG2"};
constexpr std::string_view kAudioNames[] = {"none", "phone", "fm", "cd"};
constexpr std::string_view kSecurityNames[] = {"none", "standard", "strong"};

Status Parser::ParseQosItem(ParsedQuery& query) {
  Result<Token> name = Expect(TokenType::kIdent);
  if (!name.ok()) return name.status();
  media::AppQosRange& range = query.qos.range;

  if (EqualsIgnoreCase(name->text, "resolution")) {
    Result<TokenType> op = ExpectComparison();
    if (!op.ok()) return op.status();
    Result<Token> value = Expect(TokenType::kResolution);
    if (!value.ok()) return value.status();
    if (value->res_width < 0) {
      return ErrorAt(*value, "resolution width out of range");
    }
    if (value->res_height < 0) {
      return ErrorAt(*value, "resolution height out of range");
    }
    media::Resolution r{value->res_width, value->res_height};
    if (*op != TokenType::kLe) range.min_resolution = r;
    if (*op != TokenType::kGe) range.max_resolution = r;
    return Status::Ok();
  }
  if (EqualsIgnoreCase(name->text, "framerate") ||
      EqualsIgnoreCase(name->text, "color")) {
    bool is_framerate = EqualsIgnoreCase(name->text, "framerate");
    Result<TokenType> op = ExpectComparison();
    if (!op.ok()) return op.status();
    if (is_framerate) {
      Result<Token> rate = ExpectFiniteNumber();
      if (!rate.ok()) return rate.status();
      if (*op != TokenType::kLe) range.min_frame_rate = rate->number;
      if (*op != TokenType::kGe) range.max_frame_rate = rate->number;
    } else {
      Result<int> bits = ExpectWholeNumber("color depth");
      if (!bits.ok()) return bits.status();
      if (*op != TokenType::kLe) range.min_color_depth_bits = *bits;
      if (*op != TokenType::kGe) range.max_color_depth_bits = *bits;
    }
    return Status::Ok();
  }
  if (EqualsIgnoreCase(name->text, "format")) {
    if (Peek().type == TokenType::kEq) {
      Consume();
      Result<Token> fmt = Expect(TokenType::kIdent);
      if (!fmt.ok()) return fmt.status();
      Result<media::VideoFormat> format =
          ParseName<media::VideoFormat>(*fmt, kFormatNames, "format");
      if (!format.ok()) return format.status();
      range.accepted_formats = 1u << static_cast<int>(*format);
      return Status::Ok();
    }
    if (Status s = ExpectKeyword("IN"); !s.ok()) return s;
    if (Result<Token> t = Expect(TokenType::kLParen); !t.ok()) {
      return t.status();
    }
    uint32_t mask = 0;
    while (true) {
      Result<Token> fmt = Expect(TokenType::kIdent);
      if (!fmt.ok()) return fmt.status();
      Result<media::VideoFormat> format =
          ParseName<media::VideoFormat>(*fmt, kFormatNames, "format");
      if (!format.ok()) return format.status();
      mask |= 1u << static_cast<int>(*format);
      if (Peek().type != TokenType::kComma) break;
      Consume();
    }
    if (Result<Token> t = Expect(TokenType::kRParen); !t.ok()) {
      return t.status();
    }
    range.accepted_formats = mask;
    return Status::Ok();
  }
  if (EqualsIgnoreCase(name->text, "startup")) {
    // Time Guarantee: an upper bound on startup latency in seconds.
    TokenType op = Peek().type;
    if (op != TokenType::kLe && op != TokenType::kEq) {
      return ErrorAt(Peek(), "expected '<=' or '=' after startup");
    }
    Consume();
    Result<Token> value = ExpectFiniteNumber();
    if (!value.ok()) return value.status();
    if (value->number <= 0.0) {
      return ErrorAt(*value, "startup bound must be positive");
    }
    query.qos.max_startup_seconds = value->number;
    return Status::Ok();
  }
  if (EqualsIgnoreCase(name->text, "audio")) {
    Result<TokenType> op = ExpectComparison();
    if (!op.ok()) return op.status();
    Result<Token> level = Expect(TokenType::kIdent);
    if (!level.ok()) return level.status();
    Result<media::AudioQuality> audio =
        ParseName<media::AudioQuality>(*level, kAudioNames, "audio quality");
    if (!audio.ok()) return audio.status();
    if (*op != TokenType::kLe) range.min_audio = *audio;
    if (*op != TokenType::kGe) range.max_audio = *audio;
    return Status::Ok();
  }
  if (EqualsIgnoreCase(name->text, "security")) {
    TokenType op = Peek().type;
    if (op != TokenType::kGe && op != TokenType::kEq) {
      return ErrorAt(Peek(), "expected '>=' or '=' after security");
    }
    Consume();
    Result<Token> level = Expect(TokenType::kIdent);
    if (!level.ok()) return level.status();
    Result<media::SecurityLevel> security = ParseName<media::SecurityLevel>(
        *level, kSecurityNames, "security level");
    if (!security.ok()) return security.status();
    query.qos.min_security = *security;
    return Status::Ok();
  }
  return ErrorAt(*name,
                 "unknown QoS parameter '" + std::string(name->text) + "'");
}

Status Parser::Validate(const ParsedQuery& query) const {
  const media::AppQosRange& range = query.qos.range;
  if (range.min_resolution.PixelCount() >
      range.max_resolution.PixelCount()) {
    return Status::InvalidArgument("empty resolution range");
  }
  if (range.min_color_depth_bits > range.max_color_depth_bits) {
    return Status::InvalidArgument("empty color depth range");
  }
  if (range.min_frame_rate > range.max_frame_rate) {
    return Status::InvalidArgument("empty frame rate range");
  }
  if (range.accepted_formats == 0) {
    return Status::InvalidArgument("no accepted format");
  }
  if (range.min_audio > range.max_audio) {
    return Status::InvalidArgument("empty audio quality range");
  }
  if (query.content.top_k < 1) {
    return Status::InvalidArgument("TOP must be at least 1");
  }
  return Status::Ok();
}

}  // namespace

Result<ParsedQuery> ParseQuery(std::string_view input) {
  Result<std::vector<Token>> tokens = Tokenize(input);
  if (!tokens.ok()) return tokens.status();
  return Parser(*tokens).Run();
}

}  // namespace quasaq::query
