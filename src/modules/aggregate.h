#ifndef TCQ_MODULES_AGGREGATE_H_
#define TCQ_MODULES_AGGREGATE_H_

#include <deque>
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

/// A streaming accumulator for one group. COUNT/SUM/AVG are subtractable
/// (sliding windows can retire tuples in O(1)); MIN/MAX are not — §4.1.2's
/// observation that a sliding MAX requires retaining the window.
class Accumulator {
 public:
  explicit Accumulator(size_t num_aggs) : states_(num_aggs) {}

  void Add(const std::vector<AggregateSpec>& specs, const Tuple& t);
  /// Retires a tuple. Only valid when Subtractable(specs).
  void Remove(const std::vector<AggregateSpec>& specs, const Tuple& t);
  /// Folds in the accumulator of tuples that follow this one's in order:
  /// the result is the accumulator of the concatenation. Only exact when
  /// Mergeable(specs).
  void Merge(const std::vector<AggregateSpec>& specs, const Accumulator& later);

  Value Final(const AggregateSpec& spec, size_t i) const;

  /// Back to no inputs, keeping its storage.
  void Clear();

  static bool Subtractable(const std::vector<AggregateSpec>& specs);
  /// True when Merge gives bit for bit what Add over the concatenation
  /// gives: COUNT, MIN, MAX and INT64 SUM. A double sum depends on its
  /// accumulation order, so DOUBLE SUM and AVG are not.
  static bool Mergeable(const std::vector<AggregateSpec>& specs);

  int64_t total_count() const { return rows_; }

 private:
  struct State {
    int64_t count = 0;     ///< Non-null inputs.
    /// DOUBLE SUM and every AVG. For MIN/MAX, the NaN that `pinned` it.
    double sum = 0.0;
    /// INT64 SUM, exact: 128 bits cannot overflow on 2^64 int64 inputs,
    /// so Remove can retire past a transient excursion out of range.
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
  int64_t rows_ = 0;
};

/// The aggregate state of a set of tuples — one window, or one pane of a
/// query's windows — without its specs: every call passes them, so a
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
  /// Result rows, as WindowAggregator::Emit gives them.
  TupleVector Emit(const std::vector<AggregateSpec>& specs,
                   const std::vector<ExprPtr>& group_by,
                   Timestamp result_ts) const;

 private:
  Accumulator single_;  ///< Ungrouped.
  std::map<std::vector<Value>, Accumulator> groups_;  ///< Grouped.
};

/// Windowed, optionally grouped aggregation. The caller streams tuples in
/// (Add) and asks for the result rows of the current window (Emit). Two
/// retirement modes cover the paper's window taxonomy:
///  * landmark / snapshot: never retire — purely incremental, O(1) state;
///  * sliding / hopping / reverse: SetWindow(lo, hi) retires tuples that
///    left the window — O(1) for subtractable aggregates, recompute from
///    the retained buffer otherwise.
class WindowAggregator {
 public:
  /// `group_by` are bound expressions forming the group key (may be empty).
  /// `retain_tuples` = false enables the landmark fast path (no buffer).
  WindowAggregator(std::vector<AggregateSpec> specs,
                   std::vector<ExprPtr> group_by, bool retain_tuples);

  void Add(const Tuple& t);

  /// Retires tuples with timestamp outside [lo, hi]. Requires
  /// retain_tuples; tuples that re-enter later windows must be re-Added.
  void SetWindow(Timestamp lo, Timestamp hi);

  /// Result rows for the current state: group-by values then one value per
  /// aggregate, in spec order. Deterministic group order (sorted by key).
  TupleVector Emit(Timestamp result_ts) const;

  void Reset();

  size_t buffered_tuples() const { return buffer_.size(); }
  uint64_t recomputes() const { return recomputes_; }

 private:
  std::vector<Value> GroupKey(const Tuple& t) const;
  void Recompute();

  const std::vector<AggregateSpec> specs_;
  const std::vector<ExprPtr> group_by_;
  const bool retain_tuples_;
  const bool subtractable_;

  std::map<std::vector<Value>, Accumulator> groups_;
  std::deque<Tuple> buffer_;  ///< Window contents (only when retaining).
  Timestamp lo_ = kMinTimestamp;
  Timestamp hi_ = kMaxTimestamp;
  uint64_t recomputes_ = 0;
};

}  // namespace tcq

#endif  // TCQ_MODULES_AGGREGATE_H_
