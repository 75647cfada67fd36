#ifndef TCQ_MODULES_AGGREGATE_H_
#define TCQ_MODULES_AGGREGATE_H_

#include <map>
#include <string>
#include <vector>

#include "common/clock.h"
#include "expr/ast.h"
#include "tuple/schema.h"
#include "tuple/tuple.h"

namespace tcq {

/// One aggregate output column: `AVG(closingPrice) AS avg_price`.
struct AggregateSpec {
  AggKind kind;
  ExprPtr arg;  ///< Bound against the input schema; null for COUNT(*).
  std::string output_name;
};

/// A query's aggregates and group keys, resolved once for evaluation:
/// each spec becomes an op chosen by its kind and its argument's type,
/// reading a bare column's cell in place or evaluating any other
/// argument. Built from the specs alone, so specs made by hand resolve
/// as the analyzer's do. A query keeps one plan however many windows,
/// panes and landmarks it holds; every state call passes it.
class AggregatePlan {
 public:
  AggregatePlan() = default;
  AggregatePlan(const std::vector<AggregateSpec>& specs,
                std::vector<ExprPtr> group_by);

  size_t size() const { return ops_.size(); }
  const std::vector<ExprPtr>& group_by() const { return group_by_; }

  /// True when Merge gives bit for bit what Add over the concatenation
  /// gives: COUNT, MIN, MAX and INT64 SUM. A double sum depends on its
  /// accumulation order, so DOUBLE SUM and AVG are not.
  bool Mergeable() const;

 private:
  friend class Accumulator;

  enum class Code : uint8_t {
    kCountStar,
    kCount,    ///< COUNT(arg): the non-NULL inputs.
    kSumInt,   ///< INT64 SUM, exact.
    kSumReal,  ///< DOUBLE SUM, and AVG of either type.
    kMinInt,
    kMaxInt,
    kMinReal,  ///< DOUBLE MIN/MAX, with NaN pinning.
    kMaxReal,
    kMinValue,  ///< STRING, BOOL (or NULL-typed) MIN/MAX.
    kMaxValue,
  };
  struct Op {
    Code code;
    AggKind kind;
    int column = -1;     ///< A bare column argument's cell, or -1.
    uint32_t value = 0;  ///< kMin/kMaxValue: its Value slot.
    ExprPtr arg;         ///< Evaluated when not a bare column.
  };

  std::vector<Op> ops_;
  std::vector<ExprPtr> group_by_;
  uint32_t num_values_ = 0;  ///< Value slots (STRING/BOOL extremes).
};

/// A streaming accumulator for one group: COUNT, SUM, AVG, MIN and MAX
/// over the tuples added, in the order added. INT64 and DOUBLE state is
/// kept as plain numbers; only a STRING or BOOL MIN/MAX keeps a Value.
class Accumulator {
 public:
  Accumulator() = default;
  explicit Accumulator(const AggregatePlan& plan)
      : states_(plan.size()), values_(plan.num_values_) {}

  void Add(const AggregatePlan& plan, const Tuple& t);
  /// Folds in the accumulator of tuples that follow this one's in order:
  /// the result is the accumulator of the concatenation. Only exact when
  /// plan.Mergeable().
  void Merge(const AggregatePlan& plan, const Accumulator& later);

  /// Aggregate i's result.
  Value Final(const AggregatePlan& plan, size_t i) const;

  /// Back to no inputs, keeping its storage.
  void Clear();

 private:
  using Code = AggregatePlan::Code;
  /// Trivially copyable, so clearing and copying is plain memory; 32
  /// bytes, two to a cache line.
  struct State {
    int64_t count = 0;  ///< Non-null inputs.
    bool has_extreme = false;
    /// A DOUBLE MIN or MAX whose first input was NaN is NaN, whatever
    /// follows: NaN compares equal to every value. `real.extreme` then
    /// holds the extreme of the inputs after it, which is what the state
    /// adds when merged behind another.
    bool pinned = false;
    /// By the op's Code; each member is written before it is read.
    union {
      /// INT64 SUM, exact: 128 bits cannot overflow on 2^64 int64
      /// inputs, so a sum passing out of range and back ends exact.
      __int128 int_sum = 0;
      double sum;           ///< DOUBLE SUM and every AVG.
      int64_t int_extreme;  ///< INT64 MIN/MAX.
      struct {
        double extreme;
        double nan;  ///< The NaN that pinned it.
      } real;        ///< DOUBLE MIN/MAX.
    };
  };

  /// Folds one non-NULL input of op `op` into its state.
  void Fold(const AggregatePlan::Op& op, State& s, const Value& v);

  std::vector<State> states_;
  std::vector<Value> values_;  ///< STRING/BOOL MIN/MAX extremes.
};

/// The aggregate state of a set of tuples — one window, one pane of a
/// query's windows, or a landmark's running state — without its plan:
/// every call passes it. One Accumulator when ungrouped, one per group
/// key otherwise.
class AggregateState {
 public:
  AggregateState() = default;
  explicit AggregateState(const AggregatePlan& plan)
      : single_(plan.group_by().empty() ? Accumulator(plan) : Accumulator()) {}

  void Add(const AggregatePlan& plan, const Tuple& t);
  /// Folds in the state of tuples that follow this state's own in
  /// order (Accumulator::Merge, per group).
  void Merge(const AggregatePlan& plan, const AggregateState& later);
  /// Back to no tuples, keeping what storage it can.
  void Clear();
  /// Result rows: group-by values then one value per aggregate, in spec
  /// order, one row per group sorted by key, each built in place. An
  /// ungrouped state gives one row even when empty (COUNT = 0, the rest
  /// NULL); a grouped one gives none. The rows vector is the one heap
  /// allocation of an ungrouped Emit.
  TupleVector Emit(const AggregatePlan& plan, Timestamp result_ts) const;

 private:
  Accumulator single_;  ///< Ungrouped.
  std::map<std::vector<Value>, Accumulator> groups_;  ///< Grouped.
};

}  // namespace tcq

#endif  // TCQ_MODULES_AGGREGATE_H_
