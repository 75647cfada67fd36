#include "cacq/shared_ops.h"

#include "common/logging.h"

namespace tcq {

// ---------------------------------------------------------- GroupedFilterOp

GroupedFilterOp::GroupedFilterOp(std::string name, size_t column,
                                 SmallBitset required)
    : EddyOperator(std::move(name)),
      column_(column),
      required_(std::move(required)) {}

bool GroupedFilterOp::Eligible(const SmallBitset& sources) const {
  return sources.Contains(required_);
}

EddyOpResult GroupedFilterOp::Process(RoutedTuple& rt) {
  EddyOpResult result;
  if (rt.queries.size_bits() < filter_.num_queries()) {
    rt.queries.Resize(filter_.num_queries());
  }
  filter_.Apply(rt.tuple.cell(column_), &rt.queries);
  result.pass = !rt.queries.None();
  return result;
}

// ---------------------------------------------------------- ResidualFilterOp

ResidualFilterOp::ResidualFilterOp(std::string name, SmallBitset required)
    : EddyOperator(std::move(name)), required_(std::move(required)) {}

void ResidualFilterOp::AddResidual(QueryId q, ExprPtr bound_expr) {
  TCQ_CHECK(bound_expr != nullptr);
  residuals_.emplace_back(q, std::move(bound_expr));
}

void ResidualFilterOp::RemoveQuery(QueryId q) {
  residuals_.erase(
      std::remove_if(residuals_.begin(), residuals_.end(),
                     [q](const auto& r) { return r.first == q; }),
      residuals_.end());
}

bool ResidualFilterOp::Eligible(const SmallBitset& sources) const {
  return sources.Contains(required_);
}

EddyOpResult ResidualFilterOp::Process(RoutedTuple& rt) {
  EddyOpResult result;
  for (const auto& [q, expr] : residuals_) {
    if (q >= rt.queries.size_bits() || !rt.queries.Test(q)) continue;
    const Value keep = expr->Eval(rt.tuple);
    if (keep.is_null() || !keep.bool_value()) rt.queries.Clear(q);
  }
  result.pass = !rt.queries.None();
  return result;
}

}  // namespace tcq
