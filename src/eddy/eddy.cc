#include "eddy/eddy.h"

#include <algorithm>

#include "common/logging.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace tcq {

namespace {

#ifndef TCQ_METRICS_DISABLED
/// Process-wide routing telemetry, aggregated across eddies. Per-eddy and
/// per-operator detail stays on the Eddy (op_stats() and the accessors
/// above) and is composed into snapshots by whoever owns the eddy.
struct RoutingMetrics {
  Counter* injected;
  Counter* decisions;
  Counter* visits;
  Counter* emitted;
  Counter* cache_hits;
  Counter* cache_misses;

  static RoutingMetrics& Get() {
    static RoutingMetrics m = [] {
      MetricRegistry& r = MetricRegistry::Global();
      return RoutingMetrics{r.GetCounter("tcq.eddy.injected"),
                            r.GetCounter("tcq.eddy.decisions"),
                            r.GetCounter("tcq.eddy.visits"),
                            r.GetCounter("tcq.eddy.emitted"),
                            r.GetCounter("tcq.eddy.cache_hits"),
                            r.GetCounter("tcq.eddy.cache_misses")};
    }();
    return m;
  }
};

/// Decision-source markers used between the decision point and TraceHop.
constexpr int kDecisionPolicy = 0;
constexpr int kDecisionCached = 1;
constexpr int kDecisionSequence = 2;
#endif
/// Folds a bitset into one word (collision-free below 64 bits, which
/// covers realistic source counts and all but enormous operator sets).
uint64_t FoldBits(const SmallBitset& bits) {
  uint64_t key = 0;
  bits.ForEachSet([&](size_t i) { key |= uint64_t{1} << (i % 64); });
  return key;
}

/// Batch-cache key for a tuple's routing *stage*: both its source
/// composition and which operators it has already visited. Tuples at the
/// same stage may legitimately share one routing decision.
uint64_t StageKey(const RoutedTuple& rt) {
  return FoldBits(rt.sources) * 0x9E3779B97F4A7C15ULL ^ FoldBits(rt.done);
}
}  // namespace

Eddy::Eddy(const SourceLayout* layout, std::unique_ptr<RoutingPolicy> policy)
    : Eddy(layout, std::move(policy), Options()) {}

Eddy::Eddy(const SourceLayout* layout, std::unique_ptr<RoutingPolicy> policy,
           Options options)
    : layout_(layout), policy_(std::move(policy)), options_(options) {
  TCQ_CHECK(layout_ != nullptr);
  TCQ_CHECK(policy_ != nullptr);
  TCQ_CHECK(options_.batch_size >= 1);
  TCQ_CHECK(options_.fixed_sequence_length >= 1);
}

size_t Eddy::AddOperator(EddyOperatorPtr op, int group) {
  TCQ_CHECK(op != nullptr);
  ops_.push_back(std::move(op));
  groups_.push_back(group);
  is_probe_.push_back(ops_.back()->IsJoinProbe());
  stats_.emplace_back();
  cost_hints_.push_back(ops_.back()->CostHint());
  decision_cache_.clear();  // Cached choices may now be stale.
  return ops_.size() - 1;
}

void Eddy::Inject(size_t source, const Tuple& narrow) {
  SmallBitset sources(layout_->num_sources());
  sources.Set(source);
  RoutedTuple rt(layout_->Widen(source, narrow), std::move(sources),
                 ops_.size());
  rt.tuple.set_seq(next_seq_++);  // Arrival order, for join dedup.
  TCQ_METRIC(rt.trace_id = Tracer::Global().MaybeStartTrace());
  queue_.push_back(std::move(rt));
}

void Eddy::InjectBatch(size_t source, const std::vector<Tuple>& batch) {
  SmallBitset sources(layout_->num_sources());
  sources.Set(source);
  for (const Tuple& narrow : batch) {
    RoutedTuple rt(layout_->Widen(source, narrow), sources, ops_.size());
    rt.tuple.set_seq(next_seq_++);
    TCQ_METRIC(rt.trace_id = Tracer::Global().MaybeStartTrace());
    queue_.push_back(std::move(rt));
  }
  if (batch.size() > batch_hint_) batch_hint_ = batch.size();
}

void Eddy::InjectRouted(RoutedTuple rt) {
  if (rt.done.size_bits() < ops_.size()) rt.done.Resize(ops_.size());
  if (rt.tuple.seq() == 0) rt.tuple.set_seq(next_seq_++);
  if (rt.trace_id == 0) {
    TCQ_METRIC(rt.trace_id = Tracer::Global().MaybeStartTrace());
  }
  queue_.push_back(std::move(rt));
}

void Eddy::InjectRoutedBatch(std::vector<RoutedTuple>&& batch) {
  const size_t n = batch.size();
  for (RoutedTuple& rt : batch) InjectRouted(std::move(rt));
  batch.clear();
  if (n > batch_hint_) batch_hint_ = n;
}

uint64_t Eddy::StampArrival(Tuple* t) {
  if (t->seq() == 0) t->set_seq(next_seq_++);
  uint64_t trace_id = 0;
  TCQ_METRIC(trace_id = Tracer::Global().MaybeStartTrace());
  return trace_id;
}

void Eddy::RecordFixedVisits(size_t op, std::span<const uint8_t> passed) {
  if (passed.empty()) return;
  uint64_t n_passed = 0;
  if (op == kNoOperator) {
    n_passed = passed.size();
  } else {
    for (const uint8_t p : passed) {
      policy_->Observe(op, p != 0, &stats_);
      n_passed += p;
    }
    visits_ += passed.size();
    stats_[op].routed += passed.size();
    stats_[op].passed += n_passed;
  }
  emitted_ += n_passed;
#ifndef TCQ_METRICS_DISABLED
  RoutingMetrics::Get().injected->Add(passed.size());
  FlushMetrics();
#endif
}

void Eddy::EligibleOps(const RoutedTuple& rt, std::vector<size_t>* out) {
  const size_t cap_before = out->capacity();
  out->clear();
  for (size_t i = 0; i < ops_.size(); ++i) {
    if (!rt.done.Test(i) && ops_[i]->Eligible(rt.sources)) {
      out->push_back(i);
    }
  }
  if (out->capacity() != cap_before) ++scratch_allocs_;
}

void Eddy::SnapshotRanking(std::vector<size_t>* out) const {
  out->resize(ops_.size());
  for (size_t i = 0; i < ops_.size(); ++i) (*out)[i] = i;
  std::stable_sort(out->begin(), out->end(), [&](size_t a, size_t b) {
    const double wa = stats_[a].tickets / std::max(cost_hints_[a], 1e-9);
    const double wb = stats_[b].tickets / std::max(cost_hints_[b], 1e-9);
    return wa > wb;
  });
}

void Eddy::Complete(RoutedTuple&& rt) {
#ifndef TCQ_METRICS_DISABLED
  if (rt.trace_id != 0) {
    const bool emits = partial_sink_ != nullptr ||
                       rt.sources.Count() == layout_->num_sources();
    TraceEvent ev;
    ev.trace_id = rt.trace_id;
    ev.tuple_seq = rt.tuple.seq();
    ev.op = emits ? "[emit]" : "[discard]";
    ev.decision = TraceDecision::kNone;
    ev.passed = emits;
    ev.queue_depth = queue_.size();
    Tracer::Global().Record(std::move(ev));
  }
#endif
  // Shared (CACQ) mode: the engine above decides per-query delivery from
  // the tuple's composition and lineage.
  if (partial_sink_) {
    ++emitted_;
    partial_sink_(std::move(rt));
    return;
  }
  // Single-query mode: a tuple reaches the query output only when it spans
  // every source of this Eddy; partial compositions have served their
  // purpose (their state lives on inside SteMs awaiting future matches).
  if (rt.sources.Count() == layout_->num_sources()) {
    ++emitted_;
    if (sink_) sink_(std::move(rt));
  }
}

#ifndef TCQ_METRICS_DISABLED
void Eddy::TraceHop(const RoutedTuple& rt, size_t op, int decision_src,
                    bool passed) const {
  TraceEvent ev;
  ev.trace_id = rt.trace_id;
  ev.tuple_seq = rt.tuple.seq();
  ev.op = ops_[op]->name();
  switch (decision_src) {
    case kDecisionCached:
      ev.decision = TraceDecision::kCached;
      break;
    case kDecisionSequence:
      ev.decision = TraceDecision::kSequence;
      break;
    default:
      ev.decision = TraceDecision::kPolicy;
      break;
  }
  ev.passed = passed;
  ev.queue_depth = queue_.size();
  Tracer::Global().Record(std::move(ev));
}

void Eddy::FlushMetrics() {
  RoutingMetrics& m = RoutingMetrics::Get();
  m.decisions->Add(decisions_ - flushed_decisions_);
  m.visits->Add(visits_ - flushed_visits_);
  m.emitted->Add(emitted_ - flushed_emitted_);
  m.cache_hits->Add(cache_hits_ - flushed_cache_hits_);
  m.cache_misses->Add(cache_misses_ - flushed_cache_misses_);
  flushed_decisions_ = decisions_;
  flushed_visits_ = visits_;
  flushed_emitted_ = emitted_;
  flushed_cache_hits_ = cache_hits_;
  flushed_cache_misses_ = cache_misses_;
}
#endif

void Eddy::RouteOne(RoutedTuple rt) {
  if (rt.done.size_bits() < ops_.size()) rt.done.Resize(ops_.size());

  std::vector<size_t>& eligible = eligible_scratch_;
  EligibleOps(rt, &eligible);
  if (eligible.empty()) {
    Complete(std::move(rt));
    return;
  }

  // --- One routing decision (possibly served from the batch cache). ---
  // The cache engages for the configured batch_size knob AND for an
  // in-flight injected batch (batch_hint_), which amortizes one decision
  // over the whole batch at each routing stage.
  const size_t reuse_span = std::max(options_.batch_size, batch_hint_);
  size_t chosen;
#ifndef TCQ_METRICS_DISABLED
  int decision_src = kDecisionPolicy;
#endif
  if (reuse_span > 1) {
    const uint64_t key = StageKey(rt);
    auto it = decision_cache_.find(key);
    if (it != decision_cache_.end() && it->second.remaining > 0 &&
        std::find(eligible.begin(), eligible.end(), it->second.op) !=
            eligible.end()) {
      chosen = it->second.op;
      --it->second.remaining;
      ++cache_hits_;
      TCQ_METRIC(decision_src = kDecisionCached);
    } else {
      chosen = policy_->Choose(eligible, stats_, cost_hints_);
      ++decisions_;
      ++cache_misses_;
      decision_cache_[key] = {chosen, reuse_span - 1};
    }
  } else {
    chosen = policy_->Choose(eligible, stats_, cost_hints_);
    ++decisions_;
  }

  // --- Apply the chosen operator, then (optionally) a fixed sequence. ---
  std::vector<size_t>& ranking = ranking_scratch_;
  bool ranking_built = false;
  size_t applied = 0;
  size_t next_op = chosen;
  while (true) {
    ++visits_;
    EddyOpStats& s = stats_[next_op];
    ++s.routed;
    EddyOpResult result = ops_[next_op]->Process(rt);
    rt.done.Set(next_op);
    // Alternative access methods into the same target: visiting one
    // satisfies all, so results are never duplicated across alternatives.
    if (groups_[next_op] >= 0) {
      for (size_t i = 0; i < ops_.size(); ++i) {
        if (groups_[i] == groups_[next_op]) rt.done.Set(i);
      }
    }
    // One-probe rule: after any join probe the tuple is spent for joining;
    // its outputs (probe bits cleared below) carry the remaining work.
    if (is_probe_[next_op]) {
      for (size_t i = 0; i < ops_.size(); ++i) {
        if (is_probe_[i]) rt.done.Set(i);
      }
    }
    if (result.pass) ++s.passed;
    s.produced += result.outputs.size();
    policy_->Observe(next_op, result.pass, &stats_);
#ifndef TCQ_METRICS_DISABLED
    if (rt.trace_id != 0) TraceHop(rt, next_op, decision_src, result.pass);
    decision_src = kDecisionSequence;  // Further hops skip consultation.
#endif

    for (RoutedTuple& out : result.outputs) {
      out.trace_id = rt.trace_id;  // Matches stay on their probe's trace.
      if (out.done.size_bits() < ops_.size()) out.done.Resize(ops_.size());
      // Join outputs probe the targets they still miss: clear inherited
      // probe marks (eligibility keeps them away from present targets).
      for (size_t i = 0; i < ops_.size(); ++i) {
        if (is_probe_[i]) out.done.Clear(i);
      }
      queue_.push_back(std::move(out));
    }

    if (!result.pass) {  // Input consumed (dropped or absorbed).
#ifndef TCQ_METRICS_DISABLED
      // A traced tuple's path ends explicitly: a drop with no outputs is a
      // dead end; an absorbing probe's trace continues on its outputs.
      if (rt.trace_id != 0 && result.outputs.empty()) {
        TraceEvent ev;
        ev.trace_id = rt.trace_id;
        ev.tuple_seq = rt.tuple.seq();
        ev.op = "[discard]";
        ev.decision = TraceDecision::kNone;
        ev.passed = false;
        ev.queue_depth = queue_.size();
        Tracer::Global().Record(std::move(ev));
      }
#endif
      return;
    }

    EligibleOps(rt, &eligible);
    if (eligible.empty()) {
      Complete(std::move(rt));
      return;
    }
    ++applied;
    if (applied >= options_.fixed_sequence_length) break;

    // Continue the fixed sequence: highest-ranked eligible operator under
    // the decision-time snapshot, without consulting the policy again.
    if (!ranking_built) {
      const size_t cap_before = ranking.capacity();
      SnapshotRanking(&ranking);
      if (ranking.capacity() != cap_before) ++scratch_allocs_;
      ranking_built = true;
    }
    bool found = false;
    for (size_t candidate : ranking) {
      if (std::find(eligible.begin(), eligible.end(), candidate) !=
          eligible.end()) {
        next_op = candidate;
        found = true;
        break;
      }
    }
    if (!found) break;
  }

  // Sequence budget exhausted with the tuple still alive: requeue at the
  // front (depth-first keeps in-flight state bounded) for a new decision.
  queue_.push_front(std::move(rt));
}

void Eddy::Drain() {
#ifndef TCQ_METRICS_DISABLED
  RoutingMetrics::Get().injected->Add(queue_.size());
#endif
  while (!queue_.empty()) {
    RoutedTuple rt = std::move(queue_.front());
    queue_.pop_front();
    RouteOne(std::move(rt));
  }
  TCQ_METRIC(FlushMetrics());
  // The injected batch (if any) has fully routed: retire its amortization.
  // Entries widened to the batch length are clamped back to the configured
  // batch_size budget rather than discarded, so the §4.3 knob keeps its
  // remaining reuses across Drain calls exactly as if no batch had been
  // injected; with batch_size == 1 no reuse is configured and the cache
  // only held batch-widened entries, so it empties entirely.
  if (batch_hint_ > 0) {
    batch_hint_ = 0;
    if (options_.batch_size > 1) {
      const size_t cap = options_.batch_size - 1;
      for (auto& entry : decision_cache_) {
        if (entry.second.remaining > cap) entry.second.remaining = cap;
      }
    } else {
      decision_cache_.clear();
    }
  }
}

}  // namespace tcq
