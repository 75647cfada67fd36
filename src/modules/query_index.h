#ifndef TCQ_MODULES_QUERY_INDEX_H_
#define TCQ_MODULES_QUERY_INDEX_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/bitset.h"
#include "expr/ast.h"
#include "expr/predicates.h"
#include "modules/grouped_filter.h"
#include "tuple/tuple.h"

namespace tcq {

/// The selections many queries place on one tuple shape, indexed once:
/// CACQ's grouped filters plus per-query residual work (§3.1), which is
/// also PSoup's Query SteM ("a generalization of the notion of a grouped
/// filter", §3.2). Each registered query owns a *slot*, its bit in the
/// candidate sets Narrow reads and writes. Its factors are the
/// analyzer's FactorPlans: kGrouped `column op constant` factors enter
/// one GroupedFilter per column, kResidual ones stay bound expressions
/// evaluated per slot.
///
/// The standing-query engine (one index per source set), the shared
/// window scan and PSoup each keep one. Same thread rules as
/// GroupedFilter: one owner thread at a time.
class QueryIndex {
 public:
  /// Registers `factors` (kGrouped or kResidual with `bound` set) for
  /// `slot`, on top of any it already holds. O(factors): a GroupedFilter
  /// recompiles lazily on its next Apply.
  void Add(size_t slot, std::span<const FactorPlan> factors);

  /// Drops every factor of `slot`, touching only the columns and
  /// residuals it registered. The slot may then be added again.
  void Remove(size_t slot);

  /// Narrows `candidates` to the slots whose factors all hold on `t`; a
  /// slot with no factors stays as it is. Columns apply in the order
  /// they were first registered and stop once no candidate is left;
  /// then residuals run, only for slots still set. A NULL result fails
  /// the factor (SQL). `candidates` grows to the slot count if narrower.
  void Narrow(const Tuple& t, SmallBitset* candidates) const;

 private:
  struct Column {
    size_t column;  ///< The cell index in the tuples Narrow reads.
    GroupedFilter filter;
  };
  struct Slot {
    std::vector<uint32_t> columns;  ///< Into columns_, one per factor.
    std::vector<ExprPtr> residuals;
  };

  std::vector<Column> columns_;  ///< First-registration order.
  std::vector<Slot> slots_;
  SmallBitset residual_slots_;  ///< Slots with at least one residual.
};

}  // namespace tcq

#endif  // TCQ_MODULES_QUERY_INDEX_H_
