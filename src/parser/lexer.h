#ifndef TCQ_PARSER_LEXER_H_
#define TCQ_PARSER_LEXER_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace tcq {

enum class TokenKind : uint8_t {
  kEnd,
  kIdent,      ///< Bare identifier; `keyword` says if it spells one.
  kInt,        ///< Integer literal.
  kFloat,      ///< Floating literal.
  kString,     ///< 'single quoted'.
  // Punctuation / operators.
  kLParen,     // (
  kRParen,     // )
  kLBrace,     // {
  kRBrace,     // }
  kComma,      // ,
  kSemicolon,  // ;
  kDot,        // .
  kStar,       // *
  kPlus,       // +
  kMinus,      // -
  kSlash,      // /
  kPercent,    // %
  kEq,         // = or ==
  kNe,         // != or <>
  kLt,         // <
  kLe,         // <=
  kGt,         // >
  kGe,         // >=
  kPlusEq,     // +=
  kMinusEq,    // -=
  kPlusPlus,   // ++
};

/// The words an identifier token can spell, matched without regard to
/// ASCII case. The reserved ones (kSelect to kBy) never name a source, an
/// alias or a column. The aggregate names, in AggKind order, are keywords
/// only before '('.
enum class Keyword : uint8_t {
  kNone, kSelect, kFrom, kWhere, kAs, kAnd, kOr, kNot, kFor, kWindowIs,
  kTrue, kFalse, kNull, kGroup, kBy,
  kCount, kSum, kAvg, kMin, kMax,
};

struct Token {
  TokenKind kind = TokenKind::kEnd;
  Keyword keyword = Keyword::kNone;  ///< kIdent only.
  /// The token's spelling in the input (which must outlive it). For a
  /// kString, the text between the quotes, `''` escapes not yet undone.
  std::string_view text;
  int64_t int_value = 0;  ///< kInt; INT64_MIN stands for 2^63 (see Lex).
  double float_value = 0.0;
  size_t offset = 0;    ///< Byte offset in the input, for error messages.

  bool IsReserved() const {
    return keyword != Keyword::kNone && keyword <= Keyword::kBy;
  }
};

/// Tokenizes a TelegraphCQ query string (SQL plus the for-loop/WindowIs
/// window construct of §4.1.1). Comments (`-- ...`) run to end of line.
/// An integer literal above INT64_MAX is a ParseError, except 2^63 itself,
/// which lexes as INT64_MIN for the parser's unary minus to take (as
/// `-9223372036854775808`) and to reject anywhere else. So is a float
/// literal a double cannot hold.
Result<std::vector<Token>> Lex(std::string_view input);

}  // namespace tcq

#endif  // TCQ_PARSER_LEXER_H_
