#include "psoup/psoup.h"

#include <algorithm>

#include "common/logging.h"
#include "expr/predicates.h"
#include "telemetry/metrics.h"

namespace tcq {

#ifndef TCQ_METRICS_DISABLED
namespace {

/// Process-wide PSoup telemetry (DESIGN.md §10).
struct PsoupMetrics {
  Counter* data_in;        ///< Tuples fed via OnData.
  Counter* materialized;   ///< Result-structure appends (data-side).
  Counter* registrations;  ///< Standing queries registered.
  Counter* invocations;    ///< Client Invoke calls answered.
  Gauge* resident_bytes;   ///< Data-SteM history bytes held in RAM.

  static PsoupMetrics& Get() {
    static PsoupMetrics* m = [] {
      MetricRegistry& reg = MetricRegistry::Global();
      auto* agg = new PsoupMetrics();
      agg->data_in = reg.GetCounter("tcq.psoup.data_in");
      agg->materialized = reg.GetCounter("tcq.psoup.materialized");
      agg->registrations = reg.GetCounter("tcq.psoup.registrations");
      agg->invocations = reg.GetCounter("tcq.psoup.invocations");
      agg->resident_bytes = reg.GetGauge("tcq.psoup.resident_bytes");
      return agg;
    }();
    return *m;
  }
};

}  // namespace
#endif  // TCQ_METRICS_DISABLED

PSoup::PSoup(SchemaPtr schema) : PSoup(std::move(schema), Options()) {}

PSoup::PSoup(SchemaPtr schema, Options options)
    : schema_(std::move(schema)), history_(options.history_span) {
  TCQ_CHECK(schema_ != nullptr);
}

PSoup::~PSoup() {
  // Gauge hygiene on teardown.
  TCQ_METRIC(PsoupMetrics::Get().resident_bytes->Add(-published_bytes_));
}

void PSoup::PublishHistoryBytes() {
  TCQ_METRIC(PsoupMetrics::Get().resident_bytes->Add(
      history_.resident_bytes() - published_bytes_));
  published_bytes_ = history_.resident_bytes();
}

void PSoup::AttachSpool(Spool* spool, std::string key,
                        size_t resident_limit) {
  history_.AttachSpool(spool, std::move(key), resident_limit);
  PublishHistoryBytes();
}

Result<QueryId> PSoup::Register(const ExprPtr& predicate,
                                Timestamp window_width) {
  if (window_width <= 0) {
    return Status::InvalidArgument("window width must be positive");
  }
  const QueryId qid = static_cast<QueryId>(queries_.size());

  QueryState state;
  state.window_width = window_width;

  // Classify the predicate's factors, but register nothing until every
  // one validates (atomic registration).
  std::vector<FactorPlan> factors;
  if (predicate != nullptr) {
    TCQ_ASSIGN_OR_RETURN(state.bound_predicate, predicate->Bind(*schema_));
    for (const ExprPtr& factor : ExtractConjuncts(predicate)) {
      TCQ_ASSIGN_OR_RETURN(FactorPlan fp, ClassifyFactor(factor, *schema_));
      // One stream has one qualifier, so a join factor cannot occur; bind
      // it like any residual if a schema ever mixes qualifiers.
      if (fp.kind == FactorPlan::Kind::kJoin) {
        fp.kind = FactorPlan::Kind::kResidual;
        TCQ_ASSIGN_OR_RETURN(fp.bound, factor->Bind(*schema_));
      }
      factors.push_back(std::move(fp));
    }
  }
  index_.Add(qid, factors);

  // "New query probes old data": seed the Results Structure from history
  // in timestamp order (a spooled prefix reads back through the spool's
  // page cache first), so the results deque stays sorted.
  history_.ScanApply(kMinTimestamp, kMaxTimestamp, [&](const Tuple& t) {
    if (state.bound_predicate != nullptr) {
      const Value keep = state.bound_predicate->Eval(t);
      if (keep.is_null() || !keep.bool_value()) return;
    }
    state.results.push_back(t);
  });

  state.active = true;
  queries_.push_back(std::move(state));
  active_bits_.Resize(queries_.size());
  active_bits_.Set(qid);
  ++active_;
  TCQ_METRIC(PsoupMetrics::Get().registrations->Add(1));
  return qid;
}

Status PSoup::Unregister(QueryId q) {
  if (q >= queries_.size() || !queries_[q].active) {
    return Status::NotFound("no such active query");
  }
  queries_[q].active = false;
  queries_[q].results.clear();
  active_bits_.Clear(q);
  --active_;
  index_.Remove(q);
  return Status::OK();
}

namespace {

/// Inserts `t` keeping `dq` sorted by timestamp. In-order arrivals hit the
/// O(1) push_back fast path; a late tuple pays an ordered insert so that
/// Invoke's binary search and front-eviction stay correct — duplicated and
/// out-of-order delivery must not corrupt materialized results.
void InsertByTimestamp(std::deque<Tuple>* dq, const Tuple& t) {
  if (dq->empty() || dq->back().timestamp() <= t.timestamp()) {
    dq->push_back(t);
    return;
  }
  const auto pos = std::upper_bound(
      dq->begin(), dq->end(), t.timestamp(),
      [](Timestamp ts, const Tuple& u) { return ts < u.timestamp(); });
  dq->insert(pos, t);
}

}  // namespace

void PSoup::OnData(const Tuple& tuple) {
  // Build into the Data SteM.
  history_.InsertOrdered(tuple);
  PublishHistoryBytes();
  TCQ_METRIC(PsoupMetrics::Get().data_in->Add(1));
  // Probe the Query SteM; materialize into each match's results.
  SmallBitset matches = active_bits_;
  index_.Narrow(tuple, &matches);
  matches.ForEachSet([&](size_t q) {
    InsertByTimestamp(&queries_[q].results, tuple);
    TCQ_METRIC(PsoupMetrics::Get().materialized->Add(1));
  });
}

Result<TupleVector> PSoup::Invoke(QueryId q, Timestamp now) const {
  if (q >= queries_.size() || !queries_[q].active) {
    return Status::NotFound("no such active query");
  }
  TCQ_METRIC(PsoupMetrics::Get().invocations->Add(1));
  const QueryState& state = queries_[q];
  const Timestamp lo = now - state.window_width + 1;
  // Results are timestamp-ordered: binary-search the window.
  const auto begin = std::lower_bound(
      state.results.begin(), state.results.end(), lo,
      [](const Tuple& t, Timestamp ts) { return t.timestamp() < ts; });
  const auto end = std::upper_bound(
      begin, state.results.end(), now,
      [](Timestamp ts, const Tuple& t) { return ts < t.timestamp(); });
  return TupleVector(begin, end);
}

void PSoup::EvictBefore(Timestamp ts) {
  history_.EvictBefore(ts);
  PublishHistoryBytes();
  for (QueryState& state : queries_) {
    while (!state.results.empty() &&
           state.results.front().timestamp() < ts) {
      state.results.pop_front();
    }
  }
}

size_t PSoup::materialized_results() const {
  size_t n = 0;
  for (const QueryState& s : queries_) n += s.results.size();
  return n;
}

}  // namespace tcq
