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

/// A streaming accumulator for one group: COUNT, SUM, AVG, MIN and MAX
/// over the tuples added, in the order added.
class Accumulator {
 public:
  explicit Accumulator(size_t num_aggs) : states_(num_aggs) {}

  void Add(const std::vector<AggregateSpec>& specs, const Tuple& t);
  /// Folds in the accumulator of tuples that follow this one's in order:
  /// the result is the accumulator of the concatenation. Only exact when
  /// Mergeable(specs).
  void Merge(const std::vector<AggregateSpec>& specs, const Accumulator& later);

  Value Final(const AggregateSpec& spec, size_t i) const;

  /// Back to no inputs, keeping its storage.
  void Clear();

  /// True when Merge gives bit for bit what Add over the concatenation
  /// gives: COUNT, MIN, MAX and INT64 SUM. A double sum depends on its
  /// accumulation order, so DOUBLE SUM and AVG are not.
  static bool Mergeable(const std::vector<AggregateSpec>& specs);

 private:
  struct State {
    int64_t count = 0;     ///< Non-null inputs.
    /// DOUBLE SUM and every AVG. For MIN/MAX, the NaN that `pinned` it.
    double sum = 0.0;
    /// INT64 SUM, exact: 128 bits cannot overflow on 2^64 int64 inputs,
    /// so a sum passing out of range and back ends exact.
    __int128 int_sum = 0;
    bool has_extreme = false;
    /// A MIN or MAX whose first input was NaN is NaN, whatever follows:
    /// NaN compares equal to every value. `extreme` then holds the
    /// extreme of the inputs after it, which is what the state adds
    /// when merged behind another.
    bool pinned = false;
    Value extreme;         ///< Running MIN or MAX.

    /// Folds `v` into a running MIN, or MAX when `max`: only a strictly
    /// better value replaces the extreme, so ties keep the first.
    void FoldExtreme(const Value& v, bool max);
    /// Folds in the extreme of inputs that follow this state's own.
    void MergeExtreme(const State& later, bool max);
  };
  std::vector<State> states_;
};

/// The aggregate state of a set of tuples — one window, one pane of a
/// query's windows, or a landmark's running state — without its specs: every call passes them, so a
/// query keeps one copy however many windows and panes it holds. One
/// Accumulator when ungrouped, one per group key otherwise.
class AggregateState {
 public:
  AggregateState(const std::vector<AggregateSpec>& specs,
                 const std::vector<ExprPtr>& group_by)
      : single_(group_by.empty() ? specs.size() : 0) {}

  void Add(const std::vector<AggregateSpec>& specs,
           const std::vector<ExprPtr>& group_by, const Tuple& t);
  /// Folds in the state of tuples that follow this state's own in
  /// order (Accumulator::Merge, per group).
  void Merge(const std::vector<AggregateSpec>& specs,
             const std::vector<ExprPtr>& group_by,
             const AggregateState& later);
  /// Back to no tuples, keeping what storage it can.
  void Clear();
  /// Result rows: group-by values then one value per aggregate, in spec
  /// order, one row per group sorted by key. An ungrouped state gives
  /// one row even when empty (COUNT = 0, the rest NULL); a grouped one
  /// gives none.
  TupleVector Emit(const std::vector<AggregateSpec>& specs,
                   const std::vector<ExprPtr>& group_by,
                   Timestamp result_ts) const;

 private:
  Accumulator single_;  ///< Ungrouped.
  std::map<std::vector<Value>, Accumulator> groups_;  ///< Grouped.
};

}  // namespace tcq

#endif  // TCQ_MODULES_AGGREGATE_H_
