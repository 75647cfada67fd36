#include "modules/aggregate.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace tcq {

AggregatePlan::AggregatePlan(const std::vector<AggregateSpec>& specs,
                             std::vector<ExprPtr> group_by)
    : group_by_(std::move(group_by)) {
  ops_.reserve(specs.size());
  for (const AggregateSpec& spec : specs) {
    Op op;
    op.kind = spec.kind;
    if (spec.arg == nullptr) {  // COUNT(*).
      op.code = Code::kCountStar;
      ops_.push_back(op);
      continue;
    }
    if (spec.arg->kind() == ExprKind::kColumn) {
      op.column = spec.arg->column_index();
    }
    if (op.column < 0) op.arg = spec.arg;
    // SUM over an INT64 argument is exact and INT64-typed (NULL once the
    // sum leaves the INT64 range, like integer expression overflow);
    // every other SUM, and every AVG, accumulates in double.
    const ValueType type = spec.arg->result_type();
    const bool max = spec.kind == AggKind::kMax;
    switch (spec.kind) {
      case AggKind::kCount:
        op.code = Code::kCount;
        break;
      case AggKind::kSum:
      case AggKind::kAvg:
        op.code = spec.kind == AggKind::kSum && type == ValueType::kInt64
                      ? Code::kSumInt
                      : Code::kSumReal;
        break;
      case AggKind::kMin:
      case AggKind::kMax:
        if (type == ValueType::kInt64) {
          op.code = max ? Code::kMaxInt : Code::kMinInt;
        } else if (type == ValueType::kDouble) {
          op.code = max ? Code::kMaxReal : Code::kMinReal;
        } else {
          op.code = max ? Code::kMaxValue : Code::kMinValue;
          op.value = num_values_++;
        }
        break;
    }
    ops_.push_back(op);
  }
}

bool AggregatePlan::Mergeable() const {
  return std::none_of(ops_.begin(), ops_.end(), [](const Op& op) {
    return op.code == Code::kSumReal;
  });
}

namespace {
/// Whether `v` replaces `extreme` in a running MIN, or MAX when `max`:
/// only a strictly better value does, so ties keep the first (and a NaN
/// never compares better).
template <typename T>
bool Better(const T& v, const T& extreme, bool max) {
  return max ? v > extreme : v < extreme;
}
}  // namespace

void Accumulator::Fold(const AggregatePlan::Op& op, State& s,
                       const Value& v) {
  if (v.is_null()) return;
  ++s.count;
  switch (op.code) {
    case Code::kCountStar:
    case Code::kCount:
      break;
    case Code::kSumInt:
      s.int_sum += v.int64_value();
      break;
    case Code::kSumReal:
      // The union holds the sum from its first input on.
      s.sum = (s.count == 1 ? 0.0 : s.sum) + v.AsDouble();
      break;
    case Code::kMinInt:
    case Code::kMaxInt: {
      const int64_t x = v.int64_value();
      if (!s.has_extreme || Better(x, s.int_extreme, op.code == Code::kMaxInt)) {
        s.int_extreme = x;
        s.has_extreme = true;
      }
      break;
    }
    case Code::kMinReal:
    case Code::kMaxReal: {
      const double x = v.double_value();
      if (std::isnan(x)) {
        // The first input pins the result; a NaN after it changes nothing.
        if (!s.has_extreme && !s.pinned) {
          s.pinned = true;
          s.real.nan = x;
        }
      } else if (!s.has_extreme ||
                 Better(x, s.real.extreme, op.code == Code::kMaxReal)) {
        s.real.extreme = x;
        s.has_extreme = true;
      }
      break;
    }
    case Code::kMinValue:
    case Code::kMaxValue: {
      Value& extreme = values_[op.value];
      if (!s.has_extreme || Better(v, extreme, op.code == Code::kMaxValue)) {
        extreme = v;
        s.has_extreme = true;
      }
      break;
    }
  }
}

void Accumulator::Add(const AggregatePlan& plan, const Tuple& t) {
  for (size_t i = 0; i < plan.ops_.size(); ++i) {
    const AggregatePlan::Op& op = plan.ops_[i];
    State& s = states_[i];
    if (op.code == Code::kCountStar) {
      ++s.count;
    } else if (op.column >= 0) {
      Fold(op, s, t.cell(static_cast<size_t>(op.column)));
    } else {
      Fold(op, s, op.arg->Eval(t));
    }
  }
}

void Accumulator::Merge(const AggregatePlan& plan, const Accumulator& later) {
  for (size_t i = 0; i < plan.ops_.size(); ++i) {
    const AggregatePlan::Op& op = plan.ops_[i];
    State& s = states_[i];
    const State& o = later.states_[i];
    const bool empty = s.count == 0;
    s.count += o.count;
    switch (op.code) {
      case Code::kCountStar:
      case Code::kCount:
        break;
      case Code::kSumInt:
        s.int_sum += o.int_sum;
        break;
      case Code::kSumReal:
        if (o.count > 0) s.sum = (empty ? 0.0 : s.sum) + o.sum;
        break;
      case Code::kMinInt:
      case Code::kMaxInt:
        if (o.has_extreme &&
            (!s.has_extreme ||
             Better(o.int_extreme, s.int_extreme, op.code == Code::kMaxInt))) {
          s.int_extreme = o.int_extreme;
          s.has_extreme = true;
        }
        break;
      case Code::kMinReal:
      case Code::kMaxReal:
        if (!s.has_extreme && !s.pinned && o.pinned) {
          s.pinned = true;
          s.real.nan = o.real.nan;
        }
        // `later`'s NaNs change nothing here; its best other value might.
        if (o.has_extreme &&
            (!s.has_extreme || Better(o.real.extreme, s.real.extreme,
                                      op.code == Code::kMaxReal))) {
          s.real.extreme = o.real.extreme;
          s.has_extreme = true;
        }
        break;
      case Code::kMinValue:
      case Code::kMaxValue: {
        const Value& extreme = later.values_[op.value];
        if (o.has_extreme &&
            (!s.has_extreme || Better(extreme, values_[op.value],
                                      op.code == Code::kMaxValue))) {
          values_[op.value] = extreme;
          s.has_extreme = true;
        }
        break;
      }
    }
  }
}

void Accumulator::Clear() {
  std::fill(states_.begin(), states_.end(), State());
  std::fill(values_.begin(), values_.end(), Value());
}

Value Accumulator::Final(const AggregatePlan& plan, size_t i) const {
  const AggregatePlan::Op& op = plan.ops_[i];
  const State& s = states_[i];
  switch (op.code) {
    case Code::kCountStar:
    case Code::kCount:
      return Value::Int64(s.count);
    case Code::kSumInt:
      if (s.count == 0 || s.int_sum > std::numeric_limits<int64_t>::max() ||
          s.int_sum < std::numeric_limits<int64_t>::min()) {
        return Value::Null();
      }
      return Value::Int64(static_cast<int64_t>(s.int_sum));
    case Code::kSumReal:
      if (s.count == 0) return Value::Null();
      if (op.kind == AggKind::kAvg) {
        return Value::Double(s.sum / static_cast<double>(s.count));
      }
      return Value::Double(s.sum);
    case Code::kMinInt:
    case Code::kMaxInt:
      return s.has_extreme ? Value::Int64(s.int_extreme) : Value::Null();
    case Code::kMinReal:
    case Code::kMaxReal:
      if (s.pinned) return Value::Double(s.real.nan);
      return s.has_extreme ? Value::Double(s.real.extreme) : Value::Null();
    case Code::kMinValue:
    case Code::kMaxValue:
      return s.has_extreme ? values_[op.value] : Value::Null();
  }
  return Value::Null();
}

void AggregateState::Add(const AggregatePlan& plan, const Tuple& t) {
  const std::vector<ExprPtr>& group_by = plan.group_by();
  if (group_by.empty()) {
    single_.Add(plan, t);
    return;
  }
  std::vector<Value> key;
  key.reserve(group_by.size());
  for (const ExprPtr& e : group_by) key.push_back(e->Eval(t));
  groups_.try_emplace(std::move(key), plan).first->second.Add(plan, t);
}

void AggregateState::Merge(const AggregatePlan& plan,
                           const AggregateState& later) {
  if (plan.group_by().empty()) {
    single_.Merge(plan, later.single_);
    return;
  }
  for (const auto& [key, acc] : later.groups_) {
    groups_.try_emplace(key, plan).first->second.Merge(plan, acc);
  }
}

void AggregateState::Clear() {
  single_.Clear();
  groups_.clear();
}

TupleVector AggregateState::Emit(const AggregatePlan& plan,
                                 Timestamp result_ts) const {
  const size_t n = plan.size();
  TupleVector rows;
  // One row even for an empty ungrouped set (COUNT = 0, the rest NULL).
  if (plan.group_by().empty()) {
    rows.reserve(1);
    rows.push_back(Tuple::Build(n, result_ts, [&](Value* cells) {
      for (size_t i = 0; i < n; ++i) cells[i] = single_.Final(plan, i);
    }));
    return rows;
  }
  rows.reserve(groups_.size());
  for (const auto& [key, acc] : groups_) {
    rows.push_back(
        Tuple::Build(key.size() + n, result_ts, [&](Value* cells) {
          std::copy(key.begin(), key.end(), cells);
          for (size_t i = 0; i < n; ++i) cells[key.size() + i] = acc.Final(plan, i);
        }));
  }
  return rows;
}

}  // namespace tcq
