#include "modules/aggregate.h"

#include <algorithm>
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
}  // namespace

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
        if (!s.has_extreme || v < s.extreme) {
          s.extreme = v;
          s.has_extreme = true;
        }
        break;
      case AggKind::kMax:
        if (!s.has_extreme || v > s.extreme) {
          s.extreme = v;
          s.has_extreme = true;
        }
        break;
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

bool Accumulator::Subtractable(const std::vector<AggregateSpec>& specs) {
  return std::all_of(specs.begin(), specs.end(), [](const AggregateSpec& s) {
    return s.kind == AggKind::kCount || s.kind == AggKind::kSum ||
           s.kind == AggKind::kAvg;
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
    Accumulator empty(specs_.size());
    std::vector<Value> cells;
    cells.reserve(specs_.size());
    for (size_t i = 0; i < specs_.size(); ++i) {
      cells.push_back(empty.Final(specs_[i], i));
    }
    rows.push_back(Tuple::Make(std::move(cells), result_ts));
    return rows;
  }
  rows.reserve(groups_.size());
  for (const auto& [key, acc] : groups_) {
    std::vector<Value> cells = key;
    for (size_t i = 0; i < specs_.size(); ++i) {
      cells.push_back(acc.Final(specs_[i], i));
    }
    rows.push_back(Tuple::Make(std::move(cells), result_ts));
  }
  return rows;
}

void WindowAggregator::Reset() {
  groups_.clear();
  buffer_.clear();
  lo_ = kMinTimestamp;
  hi_ = kMaxTimestamp;
}

}  // namespace tcq
