#ifndef TCQ_CACQ_SHARED_OPS_H_
#define TCQ_CACQ_SHARED_OPS_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "eddy/operator.h"
#include "eddy/operators.h"
#include "expr/ast.h"
#include "modules/grouped_filter.h"

namespace tcq {

/// Shared selection operator: one grouped filter indexing the predicates
/// many queries place on one column. Processing a tuple narrows its query
/// lineage; the tuple is consumed once no query remains interested.
class GroupedFilterOp : public EddyOperator {
 public:
  /// `column` = absolute cell index in the Eddy's full schema; `required`
  /// = the source owning that column.
  GroupedFilterOp(std::string name, size_t column, SmallBitset required);

  /// The underlying index, for predicate registration by the engine.
  GroupedFilter& filter() { return filter_; }
  const GroupedFilter& filter() const { return filter_; }

  bool Eligible(const SmallBitset& sources) const override;
  EddyOpResult Process(RoutedTuple& rt) override;

 private:
  size_t column_;
  SmallBitset required_;
  GroupedFilter filter_;
};

/// Per-query residual predicates that do not fit the grouped-filter shape
/// (OR trees, arithmetic, multi-column within one source). Evaluated only
/// for queries still in the tuple's lineage.
class ResidualFilterOp : public EddyOperator {
 public:
  ResidualFilterOp(std::string name, SmallBitset required);

  void AddResidual(QueryId q, ExprPtr bound_expr);
  void RemoveQuery(QueryId q);

  const SmallBitset& required() const { return required_; }

  bool Eligible(const SmallBitset& sources) const override;
  EddyOpResult Process(RoutedTuple& rt) override;

 private:
  SmallBitset required_;
  std::vector<std::pair<QueryId, ExprPtr>> residuals_;
};

}  // namespace tcq

#endif  // TCQ_CACQ_SHARED_OPS_H_
