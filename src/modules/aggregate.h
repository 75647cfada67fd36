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

  Value Final(const AggregateSpec& spec, size_t i) const;

  static bool Subtractable(const std::vector<AggregateSpec>& specs);

  int64_t total_count() const { return rows_; }

 private:
  struct State {
    int64_t count = 0;     ///< Non-null inputs.
    double sum = 0.0;      ///< DOUBLE SUM and every AVG.
    /// INT64 SUM, exact: 128 bits cannot overflow on 2^64 int64 inputs,
    /// so Remove can retire past a transient excursion out of range.
    __int128 int_sum = 0;
    bool has_extreme = false;
    Value extreme;         ///< Running MIN or MAX.
  };
  std::vector<State> states_;
  int64_t rows_ = 0;
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
