#include "oracle.h"

#include <algorithm>
#include <limits>

#include "parser/parser.h"

namespace tcq {

namespace {

bool Passes(const ExprPtr& predicate, const Tuple& t) {
  if (predicate == nullptr) return true;
  const Value v = predicate->Eval(t);
  return !v.is_null() && v.bool_value();
}

/// Removes the newest tuple whose payload equals `t`; false if none does.
bool EraseNewest(std::vector<Tuple>* tuples, const Tuple& t) {
  for (auto it = tuples->rbegin(); it != tuples->rend(); ++it) {
    if (it->PayloadEquals(t)) {
      tuples->erase(std::next(it).base());
      return true;
    }
  }
  return false;
}

/// One aggregate over one group.
struct Accumulation {
  int64_t count = 0;  ///< Non-NULL inputs (every row for COUNT(*)).
  __int128 int_sum = 0;
  double sum = 0.0;
  std::optional<Value> extreme;

  void Add(const AggregateSpec& spec, const Tuple& row) {
    const Value v = spec.arg == nullptr ? Value::Int64(0) : spec.arg->Eval(row);
    if (v.is_null()) return;
    ++count;
    if (spec.kind == AggKind::kSum && v.type() == ValueType::kInt64) {
      int_sum += v.int64_value();
    } else if (spec.kind == AggKind::kSum || spec.kind == AggKind::kAvg) {
      sum += v.AsDouble();
    } else if ((spec.kind == AggKind::kMin && (!extreme || v < *extreme)) ||
               (spec.kind == AggKind::kMax && (!extreme || v > *extreme))) {
      extreme = v;
    }
  }

  Value Final(const AggregateSpec& spec) const {
    if (spec.kind == AggKind::kCount) return Value::Int64(count);
    if (spec.kind == AggKind::kMin || spec.kind == AggKind::kMax) {
      return extreme.value_or(Value::Null());
    }
    if (count == 0) return Value::Null();
    if (spec.kind == AggKind::kAvg) {
      return Value::Double(sum / static_cast<double>(count));
    }
    if (spec.arg->result_type() != ValueType::kInt64) return Value::Double(sum);
    if (int_sum > std::numeric_limits<int64_t>::max() ||
        int_sum < std::numeric_limits<int64_t>::min()) {
      return Value::Null();
    }
    return Value::Int64(static_cast<int64_t>(int_sum));
  }
};

}  // namespace

Oracle::Oracle(const Catalog* catalog, Timestamp max_disorder)
    : catalog_(catalog), max_disorder_(max_disorder) {}

Status Oracle::Submit(size_t label, const std::string& sql,
                      bool speculative) {
  TCQ_ASSIGN_OR_RETURN(ParsedQuery parsed, ParseQuery(sql));
  Query q;
  q.speculative = speculative;
  q.windowed = parsed.window.has_value();
  std::vector<Field> fields;
  for (const TableRef& ref : parsed.from) {
    TCQ_ASSIGN_OR_RETURN(StreamDef def, catalog_->GetStream(ref.name));
    const SchemaPtr qualified =
        def.schema->WithQualifier(ref.EffectiveAlias());
    fields.insert(fields.end(), qualified->fields().begin(),
                  qualified->fields().end());
    q.sources.push_back(ref.name);
  }
  q.seen.resize(q.sources.size());
  if (q.sources.size() == 1 || q.windowed) {
    TCQ_ASSIGN_OR_RETURN(AnalyzedQuery analyzed, Analyze(parsed, *catalog_));
    q.analyzed = std::move(analyzed);
  }
  if (parsed.where != nullptr) {
    TCQ_ASSIGN_OR_RETURN(q.where, parsed.where->Bind(*Schema::Make(fields)));
  }
  if (q.windowed) {
    // ST: past everything the query's streams have already released.
    Timestamp st = 1;
    for (const std::string& s : q.sources) {
      st = std::max(st, streams_[s].safe + 1);
    }
    const ForLoopSpec& loop = *parsed.window;
    q.vars[kStartTimeSlot] = st;
    q.vars[kLoopVarSlot] = 0;  // The init may not name t; t = 0.
    if (loop.init != nullptr) {
      const Value init = loop.init->EvalConst(q.vars);
      q.loop_done = init.type() != ValueType::kInt64;
      if (!q.loop_done) q.vars[kLoopVarSlot] = init.int64_value();
    }
  }
  Query& stored = queries_.insert_or_assign(label, std::move(q)).first->second;
  if (stored.windowed) AdvanceQuery(&stored);
  return Status::OK();
}

void Oracle::Cancel(size_t label) {
  Query& q = queries_.at(label);
  q.out = Results(label);
  q.fired.clear();
  q.live = false;
}

void Oracle::PushBatch(const std::string& stream, std::vector<Tuple> batch) {
  Stream& s = streams_[stream];
  // Stragglers are judged against the frontier as of the previous tuple,
  // releases of this batch included.
  Timestamp frontier = s.safe;
  std::vector<Tuple> released;
  std::vector<Tuple> late;
  for (Tuple& t : batch) {
    t.set_timestamp(t.cell(0).int64_value());
    if (t.timestamp() < frontier) {
      late.push_back(t);
      continue;
    }
    s.raw = std::max(s.raw, t.timestamp());
    s.pending.push_back(t);
    if (s.raw >= kMinTimestamp + max_disorder_) {
      Release(stream, s.raw - max_disorder_, &released);
      if (!released.empty()) frontier = released.back().timestamp();
    }
  }
  Apply(stream, released, late, frontier);
  for (const Tuple& t : batch) Standing(stream, t, 1);
}

bool Oracle::Retract(const std::string& stream, const Tuple& tuple) {
  Tuple r = tuple;
  r.set_timestamp(r.cell(0).int64_value());
  if (!EraseNewest(&streams_[stream].history, r)) return false;
  r.set_retraction(true);
  Standing(stream, r, 2);
  return true;
}

void Oracle::Heartbeat(const std::string& stream, Timestamp ts) {
  std::vector<Tuple> released;
  Release(stream, ts, &released);
  streams_[stream].raw = std::max(streams_[stream].raw, ts);
  Apply(stream, released, {}, ts);
}

void Oracle::Replay(const std::string& stream) {
  Stream& s = streams_[stream];
  if (s.history.empty()) return;
  for (const Tuple& t : s.history) Standing(stream, t, 2);
  s.raw = std::max(s.raw, s.history.back().timestamp());
  Apply(stream, {}, {}, s.history.back().timestamp());
}

const std::vector<Tuple>& Oracle::History(const std::string& stream) const {
  return streams_.at(stream).history;
}

std::vector<Oracle::Set> Oracle::Results(size_t label) const {
  const Query& q = queries_.at(label);
  std::vector<Set> sets = q.out;
  for (const Step& step : q.fired) sets.push_back(Evaluate(q, step));
  return sets;
}

void Oracle::Release(const std::string& stream, Timestamp through,
                     std::vector<Tuple>* out) {
  Stream& s = streams_[stream];
  const auto go = std::stable_partition(
      s.pending.begin(), s.pending.end(),
      [&](const Tuple& t) { return t.timestamp() <= through; });
  std::vector<Tuple> released(s.pending.begin(), go);
  s.pending.erase(s.pending.begin(), go);
  std::stable_sort(released.begin(), released.end(),
                   [](const Tuple& a, const Tuple& b) {
                     return a.timestamp() < b.timestamp();
                   });
  out->insert(out->end(), released.begin(), released.end());
}

void Oracle::Apply(const std::string& stream,
                   const std::vector<Tuple>& released,
                   const std::vector<Tuple>& late, Timestamp safe) {
  Stream& s = streams_[stream];
  for (const std::vector<Tuple>* tuples : {&released, &late}) {
    for (const Tuple& t : *tuples) {
      s.history.insert(
          std::upper_bound(s.history.begin(), s.history.end(), t.timestamp(),
                           [](Timestamp ts, const Tuple& u) {
                             return ts < u.timestamp();
                           }),
          t);
    }
  }
  for (const Tuple& t : released) Standing(stream, t, 0);
  s.safe = std::max(s.safe, safe);
  for (auto& [label, q] : queries_) {
    if (q.live && q.windowed &&
        std::count(q.sources.begin(), q.sources.end(), stream) > 0) {
      AdvanceQuery(&q);
    }
  }
}

void Oracle::Standing(const std::string& stream, const Tuple& t, int lane) {
  for (auto& [label, q] : queries_) {
    if (!q.live || q.windowed) continue;
    if (lane != 2 && q.speculative != (lane == 1)) continue;
    for (size_t i = 0; i < q.sources.size(); ++i) {
      if (q.sources[i] == stream) Emit(&q, i, t);
    }
  }
}

void Oracle::Emit(Query* q, size_t source, const Tuple& t) {
  if (q->sources.size() == 1) {
    if (!Passes(q->where, t)) return;
    std::vector<Value> cells;
    for (const ExprPtr& e : q->analyzed->projections) {
      cells.push_back(e->Eval(t));
    }
    Tuple row = Tuple::Make(std::move(cells), t.timestamp());
    row.set_retraction(t.retraction());
    q->out.push_back(Set{t.timestamp(), {std::move(row)}});
    return;
  }
  // An equi-join of two streams: pair with every tuple the other side has
  // seen, then join the state (or, signed, drop the twin from it).
  for (const Tuple& other : q->seen[1 - source]) {
    Tuple pair =
        source == 0 ? Tuple::Concat(t, other) : Tuple::Concat(other, t);
    if (Passes(q->where, pair)) {
      q->out.push_back(Set{pair.timestamp(), {std::move(pair)}});
    }
  }
  if (t.retraction()) {
    EraseNewest(&q->seen[source], t);
  } else {
    q->seen[source].push_back(t);
  }
}

void Oracle::AdvanceQuery(Query* q) {
  // A window is final once a strictly later timestamp is safe on every
  // stream it reads (for a speculative query: has arrived).
  Timestamp hwm = kMaxTimestamp;
  for (const std::string& name : q->sources) {
    const Stream& s = streams_.at(name);
    hwm = std::min(hwm, q->speculative ? std::max(s.safe, s.raw) : s.safe);
  }
  for (;;) {
    if (!q->next.has_value()) q->next = NextStep(q);
    if (!q->next.has_value()) return;
    for (const auto& [left, right] : q->next->bounds) {
      if (right >= hwm) return;
    }
    if (q->speculative) {
      q->fired.push_back(std::move(*q->next));
    } else {
      q->out.push_back(Evaluate(*q, *q->next));
    }
    q->next.reset();
  }
}

std::optional<Oracle::Step> Oracle::NextStep(Query* q) {
  // for (t = init; condition(t); t = step(t)) { WindowIs(...); ... }
  const ForLoopSpec& loop = *q->analyzed->window;
  if (q->loop_done) return std::nullopt;
  const Timestamp t = q->vars[kLoopVarSlot];
  const Value go = loop.condition == nullptr
                       ? Value::Bool(true)
                       : loop.condition->EvalConst(q->vars);
  Step step;
  step.t = t;
  for (const WindowIsClause& clause : loop.windows) {
    const Value left = clause.left_end->EvalConst(q->vars);
    const Value right = clause.right_end->EvalConst(q->vars);
    if (go.type() != ValueType::kBool || !go.bool_value() ||
        left.type() != ValueType::kInt64 ||
        right.type() != ValueType::kInt64) {
      q->loop_done = true;
      return std::nullopt;
    }
    step.bounds.emplace_back(left.int64_value(), right.int64_value());
  }
  // No condition: the body runs once. A step that keeps t would repeat
  // this window forever.
  const Value next = loop.step != nullptr ? loop.step->EvalConst(q->vars)
                     : t == kMaxTimestamp ? Value::Null()
                                          : Value::Int64(t + 1);
  q->loop_done = loop.condition == nullptr ||
                 next.type() != ValueType::kInt64 || next.int64_value() == t;
  if (!q->loop_done) q->vars[kLoopVarSlot] = next.int64_value();
  return step;
}

Oracle::Set Oracle::Evaluate(const Query& q, const Step& step) const {
  const AnalyzedQuery& aq = *q.analyzed;
  // Every combination of one in-window tuple per source, in FROM order,
  // that passes the WHERE clause.
  std::vector<Tuple> rows;
  for (size_t s = 0; s < q.sources.size(); ++s) {
    const auto [left, right] =
        step.bounds[static_cast<size_t>(aq.window_clause_of_source[s])];
    std::vector<Tuple> in_window;
    for (const Tuple& t : streams_.at(q.sources[s]).history) {
      if (t.timestamp() >= left && t.timestamp() <= right) {
        in_window.push_back(t);
      }
    }
    if (s == 0) {
      rows = std::move(in_window);
      continue;
    }
    std::vector<Tuple> wider;
    for (const Tuple& r : rows) {
      for (const Tuple& t : in_window) wider.push_back(Tuple::Concat(r, t));
    }
    rows = std::move(wider);
  }
  std::erase_if(rows, [&](const Tuple& r) { return !Passes(q.where, r); });

  Set set;
  set.t = step.t;
  if (!aq.has_aggregates) {
    for (const Tuple& r : rows) {
      std::vector<Value> cells;
      for (const ExprPtr& e : aq.projections) cells.push_back(e->Eval(r));
      set.rows.push_back(Tuple::Make(std::move(cells), r.timestamp()));
    }
    return set;
  }
  std::map<std::vector<Value>, std::vector<Accumulation>> groups;
  // An ungrouped aggregate answers an empty window with one row.
  if (aq.group_by.empty()) groups[{}].resize(aq.aggregates.size());
  for (const Tuple& r : rows) {
    std::vector<Value> key;
    for (const ExprPtr& e : aq.group_by) key.push_back(e->Eval(r));
    std::vector<Accumulation>& accs = groups[key];
    accs.resize(aq.aggregates.size());
    for (size_t i = 0; i < accs.size(); ++i) accs[i].Add(aq.aggregates[i], r);
  }
  for (const auto& [key, accs] : groups) {
    std::vector<Value> cells = key;
    for (size_t i = 0; i < accs.size(); ++i) {
      cells.push_back(accs[i].Final(aq.aggregates[i]));
    }
    set.rows.push_back(Tuple::Make(std::move(cells), step.t));
  }
  return set;
}

}  // namespace tcq
