#include "parser/parser.h"

#include <sstream>

#include "parser/lexer.h"

namespace tcq {

namespace {

/// Recursive-descent parser over the token stream. Expression contexts:
/// in the SELECT/WHERE clauses bare identifiers are columns; inside the
/// for-loop construct they are loop variables.
class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<ParsedQuery> Parse() {
    ParsedQuery query;
    TCQ_RETURN_NOT_OK(Expect(Keyword::kSelect, "SELECT"));
    TCQ_RETURN_NOT_OK(ParseSelectList(&query));
    TCQ_RETURN_NOT_OK(Expect(Keyword::kFrom, "FROM"));
    TCQ_RETURN_NOT_OK(ParseFromList(&query));
    if (PeekKeyword(Keyword::kWhere)) {
      Advance();
      TCQ_ASSIGN_OR_RETURN(query.where, ParseExpr());
    }
    if (PeekKeyword(Keyword::kGroup)) {
      Advance();
      TCQ_RETURN_NOT_OK(Expect(Keyword::kBy, "BY"));
      while (true) {
        TCQ_ASSIGN_OR_RETURN(ExprPtr key, ParseExpr());
        query.group_by.push_back(std::move(key));
        if (Peek().kind != TokenKind::kComma) break;
        Advance();
      }
    }
    if (PeekKeyword(Keyword::kFor)) {
      ForLoopSpec spec;
      TCQ_RETURN_NOT_OK(ParseForLoop(&spec));
      query.window = std::move(spec);
    }
    // Optional trailing semicolon.
    if (Peek().kind == TokenKind::kSemicolon) Advance();
    if (Peek().kind != TokenKind::kEnd) {
      return Err("unexpected trailing input");
    }
    return query;
  }

 private:
  // ---- Token helpers --------------------------------------------------
  const Token& Peek(size_t ahead = 0) const {
    const size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  const Token& Advance() { return tokens_[pos_++]; }
  bool PeekKeyword(Keyword kw) const { return Peek().keyword == kw; }

  Status Err(const std::string& msg) const {
    return Status::ParseError(msg + " (near offset " +
                              std::to_string(Peek().offset) + ")");
  }

  Status Expect(Keyword keyword, const char* spelling) {
    if (!PeekKeyword(keyword)) {
      return Err(std::string("expected ") + spelling);
    }
    Advance();
    return Status::OK();
  }

  Status ExpectToken(TokenKind kind, const char* what) {
    if (Peek().kind != kind) return Err(std::string("expected ") + what);
    Advance();
    return Status::OK();
  }

  // ---- Clauses ---------------------------------------------------------
  Status ParseSelectList(ParsedQuery* query) {
    query->select.reserve(4);
    while (true) {
      SelectItem item;
      if (Peek().kind == TokenKind::kStar) {
        Advance();
        item.star = true;
      } else if (Peek().kind == TokenKind::kIdent &&
                 Peek(1).kind == TokenKind::kDot &&
                 Peek(2).kind == TokenKind::kStar) {
        item.star = true;
        item.star_qualifier = Advance().text;
        Advance();  // '.'
        Advance();  // '*'
      } else {
        TCQ_ASSIGN_OR_RETURN(item.expr, ParseExpr());
        if (PeekKeyword(Keyword::kAs)) {
          Advance();
          if (Peek().kind != TokenKind::kIdent) return Err("expected alias");
          item.alias = Advance().text;
        }
      }
      query->select.push_back(std::move(item));
      if (Peek().kind != TokenKind::kComma) break;
      Advance();
    }
    if (query->select.empty()) return Err("empty select list");
    return Status::OK();
  }

  Status ParseFromList(ParsedQuery* query) {
    while (true) {
      if (Peek().kind != TokenKind::kIdent || Peek().IsReserved()) {
        return Err("expected stream or table name");
      }
      TableRef ref;
      ref.name = Advance().text;
      // Dotted stream names (`FROM tcq.metrics`): the introspection
      // namespace lives alongside user streams in the catalog, so a
      // source name is `ident (. ident)*`.
      while (Peek().kind == TokenKind::kDot &&
             Peek(1).kind == TokenKind::kIdent && !Peek(1).IsReserved()) {
        Advance();  // '.'
        ref.name += '.';
        ref.name += Advance().text;
      }
      if (PeekKeyword(Keyword::kAs)) {
        Advance();
        if (Peek().kind != TokenKind::kIdent) return Err("expected alias");
        ref.alias = Advance().text;
      } else if (Peek().kind == TokenKind::kIdent && !Peek().IsReserved()) {
        ref.alias = Advance().text;  // Implicit alias: `Stream c1`.
      }
      query->from.push_back(std::move(ref));
      if (Peek().kind != TokenKind::kComma) break;
      Advance();
    }
    return Status::OK();
  }

  // for (t = init; cond; step) { WindowIs(S, l, r); ... }
  // Inside it identifiers are loop variables. An error ends the parse, so
  // only the way out that succeeds resets the context.
  Status ParseForLoop(ForLoopSpec* spec) {
    TCQ_RETURN_NOT_OK(Expect(Keyword::kFor, "FOR"));
    TCQ_RETURN_NOT_OK(ExpectToken(TokenKind::kLParen, "'('"));
    in_window_context_ = true;

    // Init: `t = expr` or empty.
    if (Peek().kind != TokenKind::kSemicolon) {
      if (Peek().kind != TokenKind::kIdent) {
        return Err("expected loop variable in for-loop init");
      }
      spec->var = Advance().text;
      TCQ_RETURN_NOT_OK(ExpectToken(TokenKind::kEq,
                                    "'=' in for-loop init"));
      TCQ_ASSIGN_OR_RETURN(spec->init, ParseExpr());
    }
    TCQ_RETURN_NOT_OK(
        ExpectToken(TokenKind::kSemicolon, "';' after for-loop init"));

    // Condition (may be empty).
    if (Peek().kind != TokenKind::kSemicolon) {
      TCQ_ASSIGN_OR_RETURN(spec->condition, ParseExpr());
    }
    TCQ_RETURN_NOT_OK(
        ExpectToken(TokenKind::kSemicolon, "';' after for-loop condition"));

    // Step: `t = expr`, `t += e`, `t -= e`, `t++`, or empty.
    if (Peek().kind != TokenKind::kRParen) {
      if (Peek().kind != TokenKind::kIdent) {
        return Err("expected loop variable in for-loop step");
      }
      const std::string var(Advance().text);
      if (var != spec->var && spec->init != nullptr) {
        return Err("for-loop step must update variable '" + spec->var + "'");
      }
      if (spec->init == nullptr) spec->var = var;
      const TokenKind op = Peek().kind;
      if (op == TokenKind::kPlusPlus) {
        Advance();
        spec->step = Expr::Binary(BinaryOp::kAdd, Expr::Variable(var),
                                  Expr::Literal(Value::Int64(1)));
      } else if (op == TokenKind::kEq || op == TokenKind::kPlusEq ||
                 op == TokenKind::kMinusEq) {
        Advance();
        TCQ_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
        spec->step = op == TokenKind::kEq
                         ? e
                         : Expr::Binary(op == TokenKind::kPlusEq
                                            ? BinaryOp::kAdd
                                            : BinaryOp::kSub,
                                        Expr::Variable(var), e);
      } else {
        return Err("expected '=', '+=', '-=' or '++' in for-loop step");
      }
    }
    TCQ_RETURN_NOT_OK(ExpectToken(TokenKind::kRParen, "')'"));
    TCQ_RETURN_NOT_OK(ExpectToken(TokenKind::kLBrace, "'{'"));

    while (Peek().kind != TokenKind::kRBrace) {
      TCQ_RETURN_NOT_OK(Expect(Keyword::kWindowIs, "WindowIs clause"));
      TCQ_RETURN_NOT_OK(ExpectToken(TokenKind::kLParen, "'('"));
      if (Peek().kind != TokenKind::kIdent) {
        return Err("expected stream name in WindowIs");
      }
      WindowIsClause clause;
      clause.stream = Advance().text;
      TCQ_RETURN_NOT_OK(ExpectToken(TokenKind::kComma, "','"));
      TCQ_ASSIGN_OR_RETURN(clause.left_end, ParseExpr());
      TCQ_RETURN_NOT_OK(ExpectToken(TokenKind::kComma, "','"));
      TCQ_ASSIGN_OR_RETURN(clause.right_end, ParseExpr());
      TCQ_RETURN_NOT_OK(ExpectToken(TokenKind::kRParen, "')'"));
      TCQ_RETURN_NOT_OK(ExpectToken(TokenKind::kSemicolon, "';'"));
      spec->windows.push_back(std::move(clause));
    }
    Advance();  // '}'
    in_window_context_ = false;
    return Status::OK();
  }

  // ---- Expressions ------------------------------------------------------
  Result<ExprPtr> ParseExpr() { return ParseOr(); }

  Result<ExprPtr> ParseOr() {
    TCQ_ASSIGN_OR_RETURN(ExprPtr left, ParseAnd());
    while (PeekKeyword(Keyword::kOr)) {
      Advance();
      TCQ_ASSIGN_OR_RETURN(ExprPtr right, ParseAnd());
      left = Expr::Binary(BinaryOp::kOr, left, right);
    }
    return left;
  }

  Result<ExprPtr> ParseAnd() {
    TCQ_ASSIGN_OR_RETURN(ExprPtr left, ParseNot());
    while (PeekKeyword(Keyword::kAnd)) {
      Advance();
      TCQ_ASSIGN_OR_RETURN(ExprPtr right, ParseNot());
      left = Expr::Binary(BinaryOp::kAnd, left, right);
    }
    return left;
  }

  Result<ExprPtr> ParseNot() {
    if (PeekKeyword(Keyword::kNot)) {
      Advance();
      TCQ_ASSIGN_OR_RETURN(ExprPtr operand, ParseNot());
      return Expr::Unary(UnaryOp::kNot, operand);
    }
    return ParseComparison();
  }

  Result<ExprPtr> ParseComparison() {
    TCQ_ASSIGN_OR_RETURN(ExprPtr left, ParseAdditive());
    BinaryOp op;
    switch (Peek().kind) {
      case TokenKind::kEq:
        op = BinaryOp::kEq;
        break;
      case TokenKind::kNe:
        op = BinaryOp::kNe;
        break;
      case TokenKind::kLt:
        op = BinaryOp::kLt;
        break;
      case TokenKind::kLe:
        op = BinaryOp::kLe;
        break;
      case TokenKind::kGt:
        op = BinaryOp::kGt;
        break;
      case TokenKind::kGe:
        op = BinaryOp::kGe;
        break;
      default:
        return left;
    }
    Advance();
    TCQ_ASSIGN_OR_RETURN(ExprPtr right, ParseAdditive());
    return Expr::Binary(op, left, right);
  }

  Result<ExprPtr> ParseAdditive() {
    TCQ_ASSIGN_OR_RETURN(ExprPtr left, ParseMultiplicative());
    while (Peek().kind == TokenKind::kPlus ||
           Peek().kind == TokenKind::kMinus) {
      const BinaryOp op = Advance().kind == TokenKind::kPlus ? BinaryOp::kAdd
                                                             : BinaryOp::kSub;
      TCQ_ASSIGN_OR_RETURN(ExprPtr right, ParseMultiplicative());
      left = Expr::Binary(op, left, right);
    }
    return left;
  }

  Result<ExprPtr> ParseMultiplicative() {
    TCQ_ASSIGN_OR_RETURN(ExprPtr left, ParseUnary());
    while (Peek().kind == TokenKind::kStar ||
           Peek().kind == TokenKind::kSlash ||
           Peek().kind == TokenKind::kPercent) {
      BinaryOp op;
      switch (Advance().kind) {
        case TokenKind::kStar:
          op = BinaryOp::kMul;
          break;
        case TokenKind::kSlash:
          op = BinaryOp::kDiv;
          break;
        default:
          op = BinaryOp::kMod;
          break;
      }
      TCQ_ASSIGN_OR_RETURN(ExprPtr right, ParseUnary());
      left = Expr::Binary(op, left, right);
    }
    return left;
  }

  Result<ExprPtr> ParseUnary() {
    if (Peek().kind == TokenKind::kMinus) {
      Advance();
      // -9223372036854775808: the one literal only a minus makes valid.
      if (Peek().kind == TokenKind::kInt && Peek().int_value == INT64_MIN) {
        Advance();
        return Expr::Literal(Value::Int64(INT64_MIN));
      }
      TCQ_ASSIGN_OR_RETURN(ExprPtr operand, ParseUnary());
      // Fold -literal for readable ASTs (-INT64_MIN stays a negation,
      // which evaluates to NULL).
      if (operand->kind() == ExprKind::kLiteral) {
        const Value& v = operand->literal();
        if (v.type() == ValueType::kInt64 && v.int64_value() != INT64_MIN) {
          return Expr::Literal(Value::Int64(-v.int64_value()));
        }
        if (v.type() == ValueType::kDouble) {
          return Expr::Literal(Value::Double(-v.double_value()));
        }
      }
      return Expr::Unary(UnaryOp::kNeg, operand);
    }
    return ParsePrimary();
  }

  static std::optional<AggKind> AggregateKindOf(const Token& t) {
    static_assert(static_cast<int>(Keyword::kMax) -
                      static_cast<int>(Keyword::kCount) ==
                  static_cast<int>(AggKind::kMax));
    if (t.keyword < Keyword::kCount) return std::nullopt;
    return static_cast<AggKind>(static_cast<int>(t.keyword) -
                                static_cast<int>(Keyword::kCount));
  }

  Result<ExprPtr> ParsePrimary() {
    const Token& t = Peek();
    switch (t.kind) {
      case TokenKind::kInt: {
        if (t.int_value == INT64_MIN) {  // 2^63 without a minus.
          return Status::ParseError("integer literal out of range at offset " +
                                    std::to_string(t.offset));
        }
        return Expr::Literal(Value::Int64(Advance().int_value));
      }
      case TokenKind::kFloat: {
        const double v = Advance().float_value;
        return Expr::Literal(Value::Double(v));
      }
      case TokenKind::kString: {
        std::string v;
        for (size_t i = 0; i < t.text.size(); ++i) {
          v += t.text[i];
          if (t.text[i] == '\'') ++i;  // '' is one quote.
        }
        Advance();
        return Expr::Literal(Value::String(std::move(v)));
      }
      case TokenKind::kLParen: {
        Advance();
        TCQ_ASSIGN_OR_RETURN(ExprPtr inner, ParseExpr());
        TCQ_RETURN_NOT_OK(ExpectToken(TokenKind::kRParen, "')'"));
        return inner;
      }
      case TokenKind::kIdent: {
        switch (t.keyword) {
          case Keyword::kTrue:
            Advance();
            return Expr::Literal(Value::Bool(true));
          case Keyword::kFalse:
            Advance();
            return Expr::Literal(Value::Bool(false));
          case Keyword::kNull:
            Advance();
            return Expr::Literal(Value::Null());
          default:
            break;
        }
        // Aggregate call?
        if (auto agg = AggregateKindOf(t);
            agg.has_value() && Peek(1).kind == TokenKind::kLParen) {
          Advance();  // Name.
          Advance();  // '('.
          if (Peek().kind == TokenKind::kStar) {
            Advance();
            TCQ_RETURN_NOT_OK(ExpectToken(TokenKind::kRParen, "')'"));
            if (*agg != AggKind::kCount) {
              return Err("only COUNT accepts '*'");
            }
            return Expr::CountStar();
          }
          TCQ_ASSIGN_OR_RETURN(ExprPtr arg, ParseExpr());
          TCQ_RETURN_NOT_OK(ExpectToken(TokenKind::kRParen, "')'"));
          return Expr::Aggregate(*agg, arg);
        }
        if (t.IsReserved()) {
          return Err("unexpected keyword " + std::string(t.text));
        }
        // Identifier, possibly qualified: ident | ident.ident.
        std::string name(Advance().text);
        if (Peek().kind == TokenKind::kDot &&
            Peek(1).kind == TokenKind::kIdent) {
          Advance();
          name += '.';
          name += Advance().text;
          return Expr::Column(name);  // Qualified: always a column.
        }
        if (in_window_context_) return Expr::Variable(name);
        return Expr::Column(name);
      }
      default:
        return Err("expected expression");
    }
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  bool in_window_context_ = false;
};

}  // namespace

std::string ParsedQuery::ToString() const {
  std::ostringstream os;
  os << "SELECT ";
  for (size_t i = 0; i < select.size(); ++i) {
    if (i > 0) os << ", ";
    const SelectItem& item = select[i];
    if (item.star) {
      os << (item.star_qualifier.empty() ? "*" : item.star_qualifier + ".*");
    } else {
      os << item.expr->ToString();
      if (!item.alias.empty()) os << " AS " << item.alias;
    }
  }
  os << " FROM ";
  for (size_t i = 0; i < from.size(); ++i) {
    if (i > 0) os << ", ";
    os << from[i].name;
    if (!from[i].alias.empty()) os << " AS " << from[i].alias;
  }
  if (where != nullptr) os << " WHERE " << where->ToString();
  if (window.has_value()) {
    os << " for(...){" << window->windows.size() << " WindowIs}";
  }
  return os.str();
}

Result<ParsedQuery> ParseQuery(const std::string& input) {
  TCQ_ASSIGN_OR_RETURN(std::vector<Token> tokens, Lex(input));
  Parser parser(std::move(tokens));
  return parser.Parse();
}

}  // namespace tcq
