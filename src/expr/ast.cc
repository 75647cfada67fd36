#include "expr/ast.h"

#include <charconv>
#include <cstdint>
#include <sstream>

#include "common/logging.h"

namespace tcq {

const char* BinaryOpToString(BinaryOp op) {
  switch (op) {
    case BinaryOp::kAdd:
      return "+";
    case BinaryOp::kSub:
      return "-";
    case BinaryOp::kMul:
      return "*";
    case BinaryOp::kDiv:
      return "/";
    case BinaryOp::kMod:
      return "%";
    case BinaryOp::kEq:
      return "=";
    case BinaryOp::kNe:
      return "!=";
    case BinaryOp::kLt:
      return "<";
    case BinaryOp::kLe:
      return "<=";
    case BinaryOp::kGt:
      return ">";
    case BinaryOp::kGe:
      return ">=";
    case BinaryOp::kAnd:
      return "AND";
    case BinaryOp::kOr:
      return "OR";
  }
  return "?";
}

const char* AggKindToString(AggKind k) {
  switch (k) {
    case AggKind::kCount:
      return "COUNT";
    case AggKind::kSum:
      return "SUM";
    case AggKind::kAvg:
      return "AVG";
    case AggKind::kMin:
      return "MIN";
    case AggKind::kMax:
      return "MAX";
  }
  return "?";
}

std::shared_ptr<Expr> Expr::Make(ExprKind kind) {
  auto e = std::make_shared<Expr>(Key{});
  e->kind_ = kind;
  return e;
}

ExprPtr Expr::Literal(Value v) {
  auto e = Make(ExprKind::kLiteral);
  e->result_type_ = v.type();
  e->literal_ = std::move(v);
  return e;
}

ExprPtr Expr::Column(std::string name) {
  auto e = Make(ExprKind::kColumn);
  e->name_ = std::move(name);
  return e;
}

ExprPtr Expr::Variable(std::string name) {
  auto e = Make(ExprKind::kVariable);
  e->column_index_ = name == "ST" ? kStartTimeSlot : kLoopVarSlot;
  e->name_ = std::move(name);
  e->result_type_ = ValueType::kInt64;
  return e;
}

ExprPtr Expr::Unary(UnaryOp op, ExprPtr operand) {
  auto e = Make(ExprKind::kUnary);
  e->unary_op_ = op;
  e->left_ = std::move(operand);
  return e;
}

ExprPtr Expr::Binary(BinaryOp op, ExprPtr left, ExprPtr right) {
  auto e = Make(ExprKind::kBinary);
  e->binary_op_ = op;
  e->left_ = std::move(left);
  e->right_ = std::move(right);
  return e;
}

ExprPtr Expr::Aggregate(AggKind kind, ExprPtr arg) {
  auto e = Make(ExprKind::kAggregate);
  e->agg_kind_ = kind;
  e->left_ = std::move(arg);
  return e;
}

ExprPtr Expr::CountStar() { return Aggregate(AggKind::kCount, nullptr); }

namespace {

bool IsNumeric(ValueType t) {
  return t == ValueType::kInt64 || t == ValueType::kDouble;
}

bool IsComparison(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq:
    case BinaryOp::kNe:
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe:
      return true;
    default:
      return false;
  }
}

bool IsArithmetic(BinaryOp op) {
  switch (op) {
    case BinaryOp::kAdd:
    case BinaryOp::kSub:
    case BinaryOp::kMul:
    case BinaryOp::kDiv:
    case BinaryOp::kMod:
      return true;
    default:
      return false;
  }
}

}  // namespace

Result<ExprPtr> Expr::Bind(const Schema& schema) const {
  switch (kind_) {
    case ExprKind::kLiteral:
    case ExprKind::kVariable:
      return shared_from_this();  // Already self-contained; share the node.
    case ExprKind::kColumn: {
      TCQ_ASSIGN_OR_RETURN(size_t idx, schema.IndexOf(name_));
      auto e = std::make_shared<Expr>(Key{}, *this);
      e->column_index_ = static_cast<int>(idx);
      e->result_type_ = schema.field(idx).type;
      return ExprPtr(e);
    }
    case ExprKind::kUnary: {
      TCQ_ASSIGN_OR_RETURN(ExprPtr operand, left_->Bind(schema));
      auto e = std::make_shared<Expr>(Key{}, *this);
      e->left_ = operand;
      if (unary_op_ == UnaryOp::kNot) {
        if (operand->result_type_ != ValueType::kBool) {
          return Status::TypeError("NOT requires a boolean operand, got " +
                                   operand->ToString());
        }
        e->result_type_ = ValueType::kBool;
      } else {  // kNeg
        if (!IsNumeric(operand->result_type_)) {
          return Status::TypeError("unary - requires a numeric operand");
        }
        e->result_type_ = operand->result_type_;
      }
      return ExprPtr(e);
    }
    case ExprKind::kBinary: {
      TCQ_ASSIGN_OR_RETURN(ExprPtr l, left_->Bind(schema));
      TCQ_ASSIGN_OR_RETURN(ExprPtr r, right_->Bind(schema));
      auto e = std::make_shared<Expr>(Key{}, *this);
      e->left_ = l;
      e->right_ = r;
      const ValueType lt = l->result_type_;
      const ValueType rt = r->result_type_;
      if (IsArithmetic(binary_op_)) {
        if (!IsNumeric(lt) || !IsNumeric(rt)) {
          return Status::TypeError("arithmetic on non-numeric operands in " +
                                   ToString());
        }
        if (binary_op_ == BinaryOp::kMod &&
            (lt != ValueType::kInt64 || rt != ValueType::kInt64)) {
          return Status::TypeError("% requires integer operands");
        }
        e->result_type_ = (lt == ValueType::kDouble || rt == ValueType::kDouble)
                              ? ValueType::kDouble
                              : ValueType::kInt64;
      } else if (IsComparison(binary_op_)) {
        const bool both_numeric = IsNumeric(lt) && IsNumeric(rt);
        if (!both_numeric && lt != rt) {
          return Status::TypeError("cannot compare " +
                                   std::string(ValueTypeToString(lt)) +
                                   " with " + ValueTypeToString(rt) + " in " +
                                   ToString());
        }
        e->result_type_ = ValueType::kBool;
      } else {  // AND / OR
        if (lt != ValueType::kBool || rt != ValueType::kBool) {
          return Status::TypeError("AND/OR require boolean operands in " +
                                   ToString());
        }
        e->result_type_ = ValueType::kBool;
      }
      return ExprPtr(e);
    }
    case ExprKind::kAggregate:
      return Status::InvalidArgument(
          "aggregate expression cannot be bound as a row expression: " +
          ToString());
  }
  return Status::Internal("unreachable expr kind");
}

Value Expr::EvalInternal(const Tuple* tuple, const LoopVars* vars) const {
  switch (kind_) {
    case ExprKind::kLiteral:
      return literal_;
    case ExprKind::kColumn:
      TCQ_DCHECK(column_index_ >= 0) << "unbound column " << name_;
      TCQ_DCHECK(tuple != nullptr);
      return tuple->cell(static_cast<size_t>(column_index_));
    case ExprKind::kVariable:
      TCQ_DCHECK(vars != nullptr) << "variable " << name_ << " without vars";
      return Value::Int64((*vars)[static_cast<size_t>(column_index_)]);
    case ExprKind::kUnary: {
      const Value v = left_->EvalInternal(tuple, vars);
      if (v.is_null()) return Value::Null();
      if (unary_op_ == UnaryOp::kNot) return Value::Bool(!v.bool_value());
      if (v.type() == ValueType::kInt64) {
        if (v.int64_value() == INT64_MIN) return Value::Null();  // Overflow.
        return Value::Int64(-v.int64_value());
      }
      return Value::Double(-v.double_value());
    }
    case ExprKind::kBinary: {
      // Short-circuit logical ops.
      if (binary_op_ == BinaryOp::kAnd || binary_op_ == BinaryOp::kOr) {
        const Value l = left_->EvalInternal(tuple, vars);
        const bool lb = !l.is_null() && l.bool_value();
        if (binary_op_ == BinaryOp::kAnd && !lb) return Value::Bool(false);
        if (binary_op_ == BinaryOp::kOr && lb) return Value::Bool(true);
        const Value r = right_->EvalInternal(tuple, vars);
        return Value::Bool(!r.is_null() && r.bool_value());
      }
      const Value l = left_->EvalInternal(tuple, vars);
      const Value r = right_->EvalInternal(tuple, vars);
      if (IsComparison(binary_op_)) {
        if (l.is_null() || r.is_null()) return Value::Bool(false);
        const int c = l.Compare(r);
        switch (binary_op_) {
          case BinaryOp::kEq:
            return Value::Bool(c == 0);
          case BinaryOp::kNe:
            return Value::Bool(c != 0);
          case BinaryOp::kLt:
            return Value::Bool(c < 0);
          case BinaryOp::kLe:
            return Value::Bool(c <= 0);
          case BinaryOp::kGt:
            return Value::Bool(c > 0);
          default:
            return Value::Bool(c >= 0);
        }
      }
      // Arithmetic. Integer overflow yields NULL (never wraps: signed
      // overflow is undefined behavior).
      if (l.is_null() || r.is_null()) return Value::Null();
      const bool int_math =
          l.type() == ValueType::kInt64 && r.type() == ValueType::kInt64;
      int64_t out = 0;
      switch (binary_op_) {
        case BinaryOp::kAdd:
          if (!int_math) return Value::Double(l.AsDouble() + r.AsDouble());
          if (__builtin_add_overflow(l.int64_value(), r.int64_value(), &out)) {
            return Value::Null();
          }
          return Value::Int64(out);
        case BinaryOp::kSub:
          if (!int_math) return Value::Double(l.AsDouble() - r.AsDouble());
          if (__builtin_sub_overflow(l.int64_value(), r.int64_value(), &out)) {
            return Value::Null();
          }
          return Value::Int64(out);
        case BinaryOp::kMul:
          if (!int_math) return Value::Double(l.AsDouble() * r.AsDouble());
          if (__builtin_mul_overflow(l.int64_value(), r.int64_value(), &out)) {
            return Value::Null();
          }
          return Value::Int64(out);
        case BinaryOp::kDiv:
          if (int_math) {
            if (r.int64_value() == 0) return Value::Null();
            if (l.int64_value() == INT64_MIN && r.int64_value() == -1) {
              return Value::Null();
            }
            return Value::Int64(l.int64_value() / r.int64_value());
          }
          if (r.AsDouble() == 0.0) return Value::Null();
          return Value::Double(l.AsDouble() / r.AsDouble());
        case BinaryOp::kMod:
          if (r.int64_value() == 0 || r.int64_value() == -1) {
            // x % -1 is 0, but INT64_MIN % -1 traps: answer it directly.
            return r.int64_value() == 0 ? Value::Null() : Value::Int64(0);
          }
          return Value::Int64(l.int64_value() % r.int64_value());
        default:
          break;
      }
      return Value::Null();
    }
    case ExprKind::kAggregate:
      TCQ_CHECK(false) << "aggregate evaluated as row expression";
  }
  return Value::Null();
}

Value Expr::Eval(const Tuple& tuple, const LoopVars* vars) const {
  return EvalInternal(&tuple, vars);
}

Value Expr::EvalConst(const LoopVars& vars) const {
  return EvalInternal(nullptr, &vars);
}

bool Expr::ContainsAggregate() const {
  if (kind_ == ExprKind::kAggregate) return true;
  if (left_ && left_->ContainsAggregate()) return true;
  if (right_ && right_->ContainsAggregate()) return true;
  return false;
}

void Expr::CollectColumns(std::vector<std::string>* out) const {
  if (kind_ == ExprKind::kColumn) out->push_back(name_);
  if (left_) left_->CollectColumns(out);
  if (right_) right_->CollectColumns(out);
}


namespace {
/// A literal as the parser reads it back to the same value: quotes doubled
/// inside strings, doubles in shortest fixed notation with a point.
std::string LiteralToString(const Value& v) {
  if (v.type() == ValueType::kString) {
    std::string out = "'";
    for (const char c : v.string_value()) {
      out += c;
      if (c == '\'') out += c;
    }
    return out + "'";
  }
  if (v.type() != ValueType::kDouble) return v.ToString();
  char buf[400];  // The longest fixed double has 327 characters.
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf),
                                       v.double_value(),
                                       std::chars_format::fixed);
  std::string out(buf, ec == std::errc() ? end : buf);
  if (out.find_first_of(".na") == std::string::npos) out += ".0";  // inf, nan
  return out;
}
}  // namespace

std::string Expr::ToString() const {
  switch (kind_) {
    case ExprKind::kLiteral:
      return LiteralToString(literal_);
    case ExprKind::kColumn:
      return name_;
    case ExprKind::kVariable:
      return "$" + name_;
    case ExprKind::kUnary:
      return unary_op_ == UnaryOp::kNot ? "NOT (" + left_->ToString() + ")"
                                        : "-(" + left_->ToString() + ")";
    case ExprKind::kBinary: {
      std::ostringstream os;
      os << "(" << left_->ToString() << " " << BinaryOpToString(binary_op_)
         << " " << right_->ToString() << ")";
      return os.str();
    }
    case ExprKind::kAggregate: {
      std::ostringstream os;
      os << AggKindToString(agg_kind_) << "("
         << (left_ ? left_->ToString() : "*") << ")";
      return os.str();
    }
  }
  return "?";
}

namespace {
void AppendConjuncts(const ExprPtr& expr, std::vector<ExprPtr>* out) {
  if (expr->kind() == ExprKind::kBinary &&
      expr->binary_op() == BinaryOp::kAnd) {
    AppendConjuncts(expr->left(), out);
    AppendConjuncts(expr->right(), out);
  } else {
    out->push_back(expr);
  }
}
}  // namespace

std::vector<ExprPtr> ExtractConjuncts(const ExprPtr& expr) {
  std::vector<ExprPtr> out;
  if (!expr) return out;
  out.reserve(4);
  AppendConjuncts(expr, &out);
  return out;
}

ExprPtr MakeConjunction(const std::vector<ExprPtr>& conjuncts) {
  if (conjuncts.empty()) return Expr::Literal(Value::Bool(true));
  ExprPtr acc = conjuncts[0];
  for (size_t i = 1; i < conjuncts.size(); ++i) {
    acc = Expr::Binary(BinaryOp::kAnd, acc, conjuncts[i]);
  }
  return acc;
}

}  // namespace tcq
