#ifndef QUASAQ_QUERY_PARSER_H_
#define QUASAQ_QUERY_PARSER_H_

#include <string_view>

#include "common/status.h"
#include "query/ast.h"

// Recursive-descent parser for QoS-aware queries (grammar in ast.h).
// Produces a ParsedQuery or a kInvalidArgument status pointing at the
// offending token. The parser walks the lexer's tokens, which view the
// input, without copying them; the ParsedQuery owns copies of only the
// text it keeps (target, title, keywords), so it may outlive the input.

namespace quasaq::query {

/// Parses one query. Keywords are case-insensitive.
Result<ParsedQuery> ParseQuery(std::string_view input);

namespace internal_parser {

/// Case-insensitive comparison used for keywords and enum literals.
bool EqualsIgnoreCase(std::string_view a, std::string_view b);

}  // namespace internal_parser
}  // namespace quasaq::query

#endif  // QUASAQ_QUERY_PARSER_H_
