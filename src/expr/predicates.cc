#include "expr/predicates.h"

#include <cmath>

namespace tcq {

BinaryOp FlipComparison(BinaryOp op) {
  switch (op) {
    case BinaryOp::kLt:
      return BinaryOp::kGt;
    case BinaryOp::kLe:
      return BinaryOp::kGe;
    case BinaryOp::kGt:
      return BinaryOp::kLt;
    case BinaryOp::kGe:
      return BinaryOp::kLe;
    default:
      return op;  // = and != are symmetric.
  }
}

std::optional<SimplePredicate> MatchSimplePredicate(const ExprPtr& expr) {
  if (!expr || expr->kind() != ExprKind::kBinary) return std::nullopt;
  const BinaryOp op = expr->binary_op();
  switch (op) {
    case BinaryOp::kEq:
    case BinaryOp::kNe:
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe:
      break;
    default:
      return std::nullopt;
  }
  const ExprPtr& l = expr->left();
  const ExprPtr& r = expr->right();
  if (l->kind() == ExprKind::kColumn && r->kind() == ExprKind::kLiteral) {
    return SimplePredicate{l->column_name(), op, r->literal()};
  }
  if (l->kind() == ExprKind::kLiteral && r->kind() == ExprKind::kColumn) {
    return SimplePredicate{r->column_name(), FlipComparison(op), l->literal()};
  }
  return std::nullopt;
}

std::optional<EquiJoinPredicate> MatchEquiJoin(const ExprPtr& expr) {
  if (!expr || expr->kind() != ExprKind::kBinary ||
      expr->binary_op() != BinaryOp::kEq) {
    return std::nullopt;
  }
  const ExprPtr& l = expr->left();
  const ExprPtr& r = expr->right();
  if (l->kind() == ExprKind::kColumn && r->kind() == ExprKind::kColumn) {
    return EquiJoinPredicate{l->column_name(), r->column_name()};
  }
  return std::nullopt;
}

namespace {

/// `constant` as a GroupedFilter on a `column`-typed column holds it, or
/// nullopt when the factor must stay residual. An INT64 constant on a
/// DOUBLE column becomes the double Value::Compare compares it as; any
/// other type mix, a NULL constant and a NaN (equal to every number, so
/// not a point in the sorted bounds) stay residual.
std::optional<Value> GroupedConstant(ValueType column, const Value& constant) {
  switch (column) {
    case ValueType::kDouble:
      if (constant.type() == ValueType::kInt64) {
        return Value::Double(static_cast<double>(constant.int64_value()));
      }
      if (constant.type() != ValueType::kDouble ||
          std::isnan(constant.double_value())) {
        return std::nullopt;
      }
      return constant;
    case ValueType::kBool:
    case ValueType::kInt64:
    case ValueType::kString:
      if (constant.type() != column) return std::nullopt;
      return constant;
    default:
      return std::nullopt;
  }
}

}  // namespace

Result<FactorPlan> ClassifyFactor(const ExprPtr& factor,
                                  const Schema& schema) {
  FactorPlan plan;
  if (auto ej = MatchEquiJoin(factor)) {
    TCQ_ASSIGN_OR_RETURN(size_t ca, schema.IndexOf(ej->left_column));
    TCQ_ASSIGN_OR_RETURN(size_t cb, schema.IndexOf(ej->right_column));
    if (schema.field(ca).qualifier != schema.field(cb).qualifier) {
      plan.kind = FactorPlan::Kind::kJoin;
      plan.column = ca;
      plan.column_b = cb;
      return plan;
    }
  }
  if (auto sp = MatchSimplePredicate(factor)) {
    if (auto idx = schema.IndexOf(sp->column); idx.ok()) {
      if (std::optional<Value> c =
              GroupedConstant(schema.field(*idx).type, sp->constant)) {
        plan.kind = FactorPlan::Kind::kGrouped;
        plan.column = *idx;
        plan.op = sp->op;
        plan.constant = std::move(*c);
        return plan;
      }
    }
  }
  TCQ_ASSIGN_OR_RETURN(plan.bound, factor->Bind(schema));
  return plan;
}

std::string QualifierOf(const std::string& column_name) {
  const size_t dot = column_name.find('.');
  return dot == std::string::npos ? "" : column_name.substr(0, dot);
}

std::set<std::string> CollectQualifiers(const ExprPtr& expr) {
  std::set<std::string> out;
  std::vector<std::string> columns;
  expr->CollectColumns(&columns);
  for (const auto& c : columns) out.insert(QualifierOf(c));
  return out;
}

}  // namespace tcq
