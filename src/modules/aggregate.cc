#include "modules/aggregate.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace tcq {

namespace {
/// SUM over an INT64 argument is exact and INT64-typed (NULL once the sum
/// leaves the INT64 range, like integer expression overflow); every other
/// SUM, and every AVG, accumulates in double.
bool IntegerSum(const AggregateSpec& spec) {
  return spec.kind == AggKind::kSum && spec.arg != nullptr &&
         spec.arg->result_type() == ValueType::kInt64;
}

bool Better(const Value& v, const Value& than, bool max) {
  return max ? v > than : v < than;
}

bool IsNan(const Value& v) {
  return v.type() == ValueType::kDouble && std::isnan(v.double_value());
}

/// One result row: `cells` (the group key) followed by each aggregate.
Tuple FinalRow(std::vector<Value> cells, const Accumulator& acc,
               const std::vector<AggregateSpec>& specs, Timestamp ts) {
  cells.reserve(cells.size() + specs.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    cells.push_back(acc.Final(specs[i], i));
  }
  return Tuple::Make(std::move(cells), ts);
}
}  // namespace

void Accumulator::State::FoldExtreme(const Value& v, bool max) {
  if (!has_extreme && !pinned && IsNan(v)) {
    pinned = true;
    sum = v.double_value();
  } else if (pinned && IsNan(v)) {
    return;  // A NaN after the first changes nothing.
  } else if (!has_extreme || Better(v, extreme, max)) {
    extreme = v;  // A NaN never compares better.
    has_extreme = true;
  }
}

void Accumulator::State::MergeExtreme(const State& later, bool max) {
  if (!has_extreme && !pinned) {
    pinned = later.pinned;
    sum = later.sum;
  }
  // `later`'s NaNs change nothing here; its best other value might.
  if (later.has_extreme &&
      (!has_extreme || Better(later.extreme, extreme, max))) {
    extreme = later.extreme;
    has_extreme = true;
  }
}

void Accumulator::Add(const std::vector<AggregateSpec>& specs,
                      const Tuple& t) {
  for (size_t i = 0; i < specs.size(); ++i) {
    State& s = states_[i];
    if (specs[i].arg == nullptr) {  // COUNT(*).
      ++s.count;
      continue;
    }
    const Value v = specs[i].arg->Eval(t);
    if (v.is_null()) continue;
    ++s.count;
    switch (specs[i].kind) {
      case AggKind::kCount:
        break;
      case AggKind::kSum:
      case AggKind::kAvg:
        if (IntegerSum(specs[i])) {
          s.int_sum += v.int64_value();
        } else {
          s.sum += v.AsDouble();
        }
        break;
      case AggKind::kMin:
      case AggKind::kMax:
        s.FoldExtreme(v, specs[i].kind == AggKind::kMax);
        break;
    }
  }
}

void Accumulator::Merge(const std::vector<AggregateSpec>& specs,
                        const Accumulator& later) {
  for (size_t i = 0; i < specs.size(); ++i) {
    State& s = states_[i];
    const State& o = later.states_[i];
    s.count += o.count;
    if (specs[i].kind == AggKind::kMin || specs[i].kind == AggKind::kMax) {
      s.MergeExtreme(o, specs[i].kind == AggKind::kMax);
    } else {
      s.sum += o.sum;
      s.int_sum += o.int_sum;
    }
  }
}

void Accumulator::Clear() {
  std::fill(states_.begin(), states_.end(), State());
}

bool Accumulator::Mergeable(const std::vector<AggregateSpec>& specs) {
  return std::all_of(specs.begin(), specs.end(), [](const AggregateSpec& s) {
    return s.kind == AggKind::kCount || s.kind == AggKind::kMin ||
           s.kind == AggKind::kMax || IntegerSum(s);
  });
}

Value Accumulator::Final(const AggregateSpec& spec, size_t i) const {
  const State& s = states_[i];
  switch (spec.kind) {
    case AggKind::kCount:
      return Value::Int64(s.count);
    case AggKind::kSum:
      if (s.count == 0) return Value::Null();
      if (IntegerSum(spec)) {
        if (s.int_sum > std::numeric_limits<int64_t>::max() ||
            s.int_sum < std::numeric_limits<int64_t>::min()) {
          return Value::Null();
        }
        return Value::Int64(static_cast<int64_t>(s.int_sum));
      }
      return Value::Double(s.sum);
    case AggKind::kAvg:
      if (s.count == 0) return Value::Null();
      return Value::Double(s.sum / static_cast<double>(s.count));
    case AggKind::kMin:
    case AggKind::kMax:
      if (s.pinned) return Value::Double(s.sum);
      return s.has_extreme ? s.extreme : Value::Null();
  }
  return Value::Null();
}

void AggregateState::Add(const std::vector<AggregateSpec>& specs,
                         const std::vector<ExprPtr>& group_by,
                         const Tuple& t) {
  if (group_by.empty()) {
    single_.Add(specs, t);
    return;
  }
  std::vector<Value> key;
  key.reserve(group_by.size());
  for (const ExprPtr& e : group_by) key.push_back(e->Eval(t));
  groups_.try_emplace(std::move(key), specs.size())
      .first->second.Add(specs, t);
}

void AggregateState::Merge(const std::vector<AggregateSpec>& specs,
                           const std::vector<ExprPtr>& group_by,
                           const AggregateState& later) {
  if (group_by.empty()) {
    single_.Merge(specs, later.single_);
    return;
  }
  for (const auto& [key, acc] : later.groups_) {
    groups_.try_emplace(key, specs.size()).first->second.Merge(specs, acc);
  }
}

void AggregateState::Clear() {
  single_.Clear();
  groups_.clear();
}

TupleVector AggregateState::Emit(const std::vector<AggregateSpec>& specs,
                                 const std::vector<ExprPtr>& group_by,
                                 Timestamp result_ts) const {
  TupleVector rows;
  // One row even for an empty ungrouped set (COUNT = 0, the rest NULL).
  if (group_by.empty()) {
    rows.push_back(FinalRow({}, single_, specs, result_ts));
    return rows;
  }
  rows.reserve(groups_.size());
  for (const auto& [key, acc] : groups_) {
    rows.push_back(FinalRow(key, acc, specs, result_ts));
  }
  return rows;
}

}  // namespace tcq
