#include "modules/aggregate.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"

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
  ++rows_;
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
  rows_ += later.rows_;
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

void Accumulator::Remove(const std::vector<AggregateSpec>& specs,
                         const Tuple& t) {
  TCQ_DCHECK(Subtractable(specs)) << "MIN/MAX cannot retire incrementally";
  --rows_;
  for (size_t i = 0; i < specs.size(); ++i) {
    State& s = states_[i];
    if (specs[i].arg == nullptr) {
      --s.count;
      continue;
    }
    const Value v = specs[i].arg->Eval(t);
    if (v.is_null()) continue;
    --s.count;
    if (IntegerSum(specs[i])) {
      s.int_sum -= v.int64_value();
    } else if (specs[i].kind == AggKind::kSum ||
               specs[i].kind == AggKind::kAvg) {
      s.sum -= v.AsDouble();
    }
  }
}

void Accumulator::Clear() {
  std::fill(states_.begin(), states_.end(), State());
  rows_ = 0;
}

bool Accumulator::Subtractable(const std::vector<AggregateSpec>& specs) {
  return std::all_of(specs.begin(), specs.end(), [](const AggregateSpec& s) {
    return s.kind == AggKind::kCount || s.kind == AggKind::kSum ||
           s.kind == AggKind::kAvg;
  });
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

WindowAggregator::WindowAggregator(std::vector<AggregateSpec> specs,
                                   std::vector<ExprPtr> group_by,
                                   bool retain_tuples)
    : specs_(std::move(specs)),
      group_by_(std::move(group_by)),
      retain_tuples_(retain_tuples),
      subtractable_(Accumulator::Subtractable(specs_)) {
  TCQ_CHECK(!specs_.empty());
}

std::vector<Value> WindowAggregator::GroupKey(const Tuple& t) const {
  std::vector<Value> key;
  key.reserve(group_by_.size());
  for (const ExprPtr& e : group_by_) key.push_back(e->Eval(t));
  return key;
}

void WindowAggregator::Add(const Tuple& t) {
  auto [it, inserted] =
      groups_.try_emplace(GroupKey(t), Accumulator(specs_.size()));
  it->second.Add(specs_, t);
  if (retain_tuples_) buffer_.push_back(t);
}

void WindowAggregator::SetWindow(Timestamp lo, Timestamp hi) {
  lo_ = lo;
  hi_ = hi;
  if (!retain_tuples_) return;  // Landmark fast path: nothing retires.

  // Partition buffer into keep / retire.
  std::deque<Tuple> keep;
  std::vector<Tuple> retired;
  for (Tuple& t : buffer_) {
    if (t.timestamp() >= lo_ && t.timestamp() <= hi_) {
      keep.push_back(std::move(t));
    } else {
      retired.push_back(std::move(t));
    }
  }
  buffer_ = std::move(keep);
  if (retired.empty()) return;

  if (subtractable_) {
    for (const Tuple& t : retired) {
      auto it = groups_.find(GroupKey(t));
      TCQ_DCHECK(it != groups_.end());
      it->second.Remove(specs_, t);
      if (it->second.total_count() == 0) groups_.erase(it);
    }
  } else {
    Recompute();
  }
}

void WindowAggregator::Recompute() {
  ++recomputes_;
  groups_.clear();
  for (const Tuple& t : buffer_) {
    auto [it, inserted] =
        groups_.try_emplace(GroupKey(t), Accumulator(specs_.size()));
    it->second.Add(specs_, t);
  }
}

TupleVector WindowAggregator::Emit(Timestamp result_ts) const {
  TupleVector rows;
  // SQL semantics: an UNGROUPED aggregate over an empty window still
  // produces one row (COUNT = 0, SUM/AVG/MIN/MAX = NULL); a grouped one
  // produces no rows.
  if (groups_.empty() && group_by_.empty()) {
    rows.push_back(
        FinalRow({}, Accumulator(specs_.size()), specs_, result_ts));
    return rows;
  }
  rows.reserve(groups_.size());
  for (const auto& [key, acc] : groups_) {
    rows.push_back(FinalRow(key, acc, specs_, result_ts));
  }
  return rows;
}

void WindowAggregator::Reset() {
  groups_.clear();
  buffer_.clear();
  lo_ = kMinTimestamp;
  hi_ = kMaxTimestamp;
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
