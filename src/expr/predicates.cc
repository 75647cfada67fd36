#include "expr/predicates.h"

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
      plan.kind = FactorPlan::Kind::kGrouped;
      plan.column = *idx;
      plan.op = sp->op;
      plan.constant = std::move(sp->constant);
      return plan;
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
