#include "parser/lexer.h"

#include <algorithm>
#include <charconv>
#include <string>

namespace tcq {

namespace {

bool IsDigit(char c) { return c >= '0' && c <= '9'; }
bool IsIdentStart(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
}
bool IsIdentChar(char c) { return IsIdentStart(c) || IsDigit(c); }
bool IsSpace(char c) {
  return c == ' ' || (c >= '\t' && c <= '\r');  // \t \n \v \f \r
}

Keyword KeywordOf(std::string_view word) {
  static constexpr std::pair<std::string_view, Keyword> kKeywords[] = {
      {"SELECT", Keyword::kSelect}, {"FROM", Keyword::kFrom},
      {"WHERE", Keyword::kWhere},   {"AS", Keyword::kAs},
      {"AND", Keyword::kAnd},       {"OR", Keyword::kOr},
      {"NOT", Keyword::kNot},       {"FOR", Keyword::kFor},
      {"WINDOWIS", Keyword::kWindowIs}, {"TRUE", Keyword::kTrue},
      {"FALSE", Keyword::kFalse},   {"NULL", Keyword::kNull},
      {"GROUP", Keyword::kGroup},   {"BY", Keyword::kBy},
      {"COUNT", Keyword::kCount},   {"SUM", Keyword::kSum},
      {"AVG", Keyword::kAvg},       {"MIN", Keyword::kMin},
      {"MAX", Keyword::kMax}};
  for (const auto& [name, keyword] : kKeywords) {
    if (name.size() != word.size()) continue;
    size_t i = 0;
    // Keywords are upper-case letters; clearing bit 5 upper-cases a
    // lower-case ASCII letter and never turns a digit or '_' into one.
    while (i < word.size() && (word[i] & ~0x20) == name[i]) ++i;
    if (i == word.size()) return keyword;
  }
  return Keyword::kNone;
}

}  // namespace

Result<std::vector<Token>> Lex(std::string_view input) {
  std::vector<Token> tokens;
  const size_t n = input.size();
  tokens.reserve(n / 2 + 2);  // Tokens plus separators, then kEnd.
  size_t i = 0;

  auto push = [&](TokenKind kind, size_t start, size_t len) -> Token& {
    Token& t = tokens.emplace_back();
    t.kind = kind;
    t.text = input.substr(start, len);
    t.offset = start;
    return t;
  };

  while (i < n) {
    const char c = input[i];
    if (IsSpace(c)) {
      ++i;
      continue;
    }
    // Line comment.
    if (c == '-' && i + 1 < n && input[i + 1] == '-') {
      while (i < n && input[i] != '\n') ++i;
      continue;
    }
    // Identifier / keyword.
    if (IsIdentStart(c)) {
      const size_t start = i;
      while (i < n && IsIdentChar(input[i])) ++i;
      Token& t = push(TokenKind::kIdent, start, i - start);
      t.keyword = KeywordOf(t.text);
      continue;
    }
    // Number.
    if (IsDigit(c)) {
      const size_t start = i;
      bool is_float = false;
      while (i < n && IsDigit(input[i])) ++i;
      if (i + 1 < n && input[i] == '.' && IsDigit(input[i + 1])) {
        is_float = true;
        ++i;
        while (i < n && IsDigit(input[i])) ++i;
      }
      Token& t = push(is_float ? TokenKind::kFloat : TokenKind::kInt, start,
                      i - start);
      const char* first = input.data() + start;
      const char* last = input.data() + i;
      constexpr uint64_t kMinMagnitude = uint64_t{1} << 63;  // -INT64_MIN.
      uint64_t v = 0;
      if (is_float ? std::from_chars(first, last, t.float_value).ec !=
                         std::errc()
                   : std::from_chars(first, last, v).ec != std::errc() ||
                         v > kMinMagnitude) {
        return Status::ParseError(std::string(is_float ? "float" : "integer") +
                                  " literal out of range at offset " +
                                  std::to_string(start));
      }
      t.int_value = v == kMinMagnitude ? INT64_MIN : static_cast<int64_t>(v);
      continue;
    }
    // String literal.
    if (c == '\'') {
      const size_t start = ++i;
      while (i < n) {
        if (input[i] == '\'') {
          if (i + 1 < n && input[i + 1] == '\'') {  // Escaped quote.
            i += 2;
            continue;
          }
          break;
        }
        ++i;
      }
      if (i >= n) {
        return Status::ParseError("unterminated string literal at offset " +
                                  std::to_string(start - 1));
      }
      push(TokenKind::kString, start, i - start).offset = start - 1;
      ++i;  // Closing quote.
      continue;
    }
    // Operators and punctuation, two-character spellings first.
    static constexpr std::pair<std::string_view, TokenKind> kOperators[] = {
        {"==", TokenKind::kEq},       {"!=", TokenKind::kNe},
        {"<>", TokenKind::kNe},       {"<=", TokenKind::kLe},
        {">=", TokenKind::kGe},       {"+=", TokenKind::kPlusEq},
        {"-=", TokenKind::kMinusEq},  {"++", TokenKind::kPlusPlus},
        {"(", TokenKind::kLParen},    {")", TokenKind::kRParen},
        {"{", TokenKind::kLBrace},    {"}", TokenKind::kRBrace},
        {",", TokenKind::kComma},     {";", TokenKind::kSemicolon},
        {".", TokenKind::kDot},       {"*", TokenKind::kStar},
        {"+", TokenKind::kPlus},      {"-", TokenKind::kMinus},
        {"/", TokenKind::kSlash},     {"%", TokenKind::kPercent},
        {"=", TokenKind::kEq},        {"<", TokenKind::kLt},
        {">", TokenKind::kGt}};
    const std::string_view rest = input.substr(i);
    const auto* op = std::find_if(
        std::begin(kOperators), std::end(kOperators),
        [&](const auto& o) { return rest.starts_with(o.first); });
    if (op == std::end(kOperators)) {
      return Status::ParseError(
          (c == '!' ? std::string("stray '!'")
                    : std::string("unexpected character '") + c + "'") +
          " at offset " + std::to_string(i));
    }
    push(op->second, i, op->first.size());
    i += op->first.size();
  }
  push(TokenKind::kEnd, n, 0);
  return tokens;
}

}  // namespace tcq
