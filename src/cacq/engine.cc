#include "cacq/engine.h"

#include <algorithm>

#include "common/logging.h"
#include "eddy/operators.h"

namespace tcq {

CacqEngine::CacqEngine() : CacqEngine(Options()) {}

CacqEngine::CacqEngine(Options options) : options_(std::move(options)) {
  eddy_ = std::make_unique<Eddy>(
      &layout_, MakePolicy(options_.policy, options_.seed), options_.eddy);
  eddy_->SetPartialSink([this](RoutedTuple&& rt) {
    Deliver(rt.tuple, rt.sources, rt.queries);
  });
}

Result<size_t> CacqEngine::AddStream(const std::string& name,
                                     SchemaPtr schema) {
  if (!queries_.empty()) {
    return Status::FailedPrecondition(
        "streams must be declared before queries");
  }
  if (layout_.SourceIndexOf(name) != layout_.num_sources()) {
    return Status::AlreadyExists("stream already declared: " + name);
  }
  const size_t idx = layout_.AddSource(name, std::move(schema));
  interested_.emplace_back();
  routes_.emplace_back();
  for (SourceRoute& route : routes_) {
    route.sources.Resize(layout_.num_sources());
  }
  routes_.back().sources.Set(idx);
  return idx;
}

class CacqEngine::IndexOp : public EddyOperator {
 public:
  IndexOp(std::string name, SmallBitset required)
      : EddyOperator(std::move(name)), required_(std::move(required)) {}

  const SmallBitset& required() const { return required_; }
  QueryIndex& index() { return index_; }

  bool Eligible(const SmallBitset& sources) const override {
    return sources.Contains(required_);
  }
  EddyOpResult Process(RoutedTuple& rt) override {
    index_.Narrow(rt.tuple, &rt.queries);
    EddyOpResult result;
    result.pass = !rt.queries.None();
    return result;
  }

 private:
  SmallBitset required_;
  QueryIndex index_;
};

CacqEngine::IndexOp& CacqEngine::IndexOpFor(const SmallBitset& required) {
  for (const auto& op : index_ops_) {
    if (op->required() == required) return *op;
  }
  std::string name = "index[";
  required.ForEachSet([&](size_t s) {
    if (name.back() != '[') name += ",";
    name += layout_.alias(s);
  });
  auto op = std::make_shared<IndexOp>(name + "]", required);
  const size_t op_index = eddy_->AddOperator(op);
  if (required.Count() == 1) {
    SourceRoute& route = routes_[required.FirstSet()];
    route.index = op.get();
    route.op = op_index;
  }
  index_ops_.push_back(op);
  return *op;
}

void CacqEngine::EnsureJoin(size_t src_a, int col_a, size_t src_b,
                            int col_b) {
  auto ensure_stem = [&](size_t src, int key) -> SteMPtr {
    JoinKey jk{src, key};
    auto it = stems_.find(jk);
    if (it != stems_.end()) return it->second;
    auto stem = std::make_shared<SteM>(
        "stem[" + layout_.alias(src) + "]", layout_.full_schema(), key);
    stems_.emplace(jk, stem);
    eddy_->AddOperator(std::make_shared<StemBuildOp>(
        "build[" + layout_.alias(src) + "]", src, stem));
    return stem;
  };
  SteMPtr stem_a = ensure_stem(src_a, col_a);
  SteMPtr stem_b = ensure_stem(src_b, col_b);
  routes_[src_a].joined = true;
  routes_[src_b].joined = true;

  auto ensure_probe = [&](size_t target, const SteMPtr& stem,
                          int stored_key, size_t probe_src, int probe_key) {
    if (!probe_edges_.emplace(target, stored_key, probe_key).second) return;
    SmallBitset probe_sources(layout_.num_sources());
    probe_sources.Set(probe_src);
    eddy_->AddOperator(
        std::make_shared<StemProbeOp>(
            "probe[" + layout_.alias(target) + "<-" +
                layout_.alias(probe_src) + "]",
            &layout_, target, stem, std::move(probe_sources), probe_key),
        /*group=*/static_cast<int>(target));
  };
  ensure_probe(src_b, stem_b, col_b, src_a, col_a);
  ensure_probe(src_a, stem_a, col_a, src_b, col_b);
}

Result<QueryId> CacqEngine::AddQuery(const CacqQuerySpec& spec) {
  TCQ_ASSIGN_OR_RETURN(const CacqQueryPlan plan, PlanQuery(layout_, spec));
  return InstallQuery(plan);
}

Result<CacqQueryPlan> CacqEngine::PlanQuery(const SourceLayout& layout,
                                            const CacqQuerySpec& spec) {
  if (spec.sources.empty()) {
    return Status::InvalidArgument("query needs at least one source");
  }
  CacqQueryPlan plan;
  plan.speculative = spec.speculative;
  plan.footprint.Resize(layout.num_sources());
  for (const std::string& name : spec.sources) {
    const size_t s = layout.SourceIndexOf(name);
    if (s == layout.num_sources()) {
      return Status::NotFound("query references unknown stream: " + name);
    }
    plan.footprint.Set(s);
  }

  // Classify each boolean factor of the WHERE clause.
  const SchemaPtr& schema = layout.full_schema();
  for (const ExprPtr& factor : ExtractConjuncts(spec.where)) {
    if (factor == nullptr) continue;
    TCQ_ASSIGN_OR_RETURN(FactorPlan fp, ClassifyFactor(factor, *schema));
    switch (fp.kind) {
      case FactorPlan::Kind::kJoin: {
        // Equi-join between two sources -> shared SteM machinery.
        const size_t sa =
            layout.SourceIndexOf(schema->field(fp.column).qualifier);
        const size_t sb =
            layout.SourceIndexOf(schema->field(fp.column_b).qualifier);
        if (!plan.footprint.Test(sa) || !plan.footprint.Test(sb)) {
          return Status::InvalidArgument(
              "join predicate references sources outside the footprint: " +
              factor->ToString());
        }
        plan.joins.push_back({sa, fp.column, sb, fp.column_b});
        break;
      }
      case FactorPlan::Kind::kGrouped:
      case FactorPlan::Kind::kResidual: {
        // Indexed with the other factors over the same sources.
        SmallBitset req(layout.num_sources());
        if (fp.kind == FactorPlan::Kind::kGrouped) {
          req.Set(layout.SourceIndexOf(schema->field(fp.column).qualifier));
        } else {
          std::vector<std::string> cols;
          factor->CollectColumns(&cols);
          for (const std::string& c : cols) {
            TCQ_ASSIGN_OR_RETURN(size_t idx, schema->IndexOf(c));
            req.Set(layout.SourceIndexOf(schema->field(idx).qualifier));
          }
          if (req.None()) req = plan.footprint;  // Constant predicate.
        }
        if (!plan.footprint.Contains(req)) {
          return Status::InvalidArgument(
              "predicate references sources outside the footprint: " +
              factor->ToString());
        }
        auto it = std::find_if(plan.selections.begin(), plan.selections.end(),
                               [&](const CacqQueryPlan::Selection& s) {
                                 return s.required == req;
                               });
        if (it == plan.selections.end()) {
          plan.selections.push_back({std::move(req), {}});
          it = plan.selections.end() - 1;
        }
        it->factors.push_back(std::move(fp));
        break;
      }
    }
  }
  return plan;
}

QueryId CacqEngine::InstallQuery(const CacqQueryPlan& plan) {
  const QueryId qid = static_cast<QueryId>(queries_.size());
  QueryInfo info;
  info.footprint = plan.footprint;
  // Join operators are created before index operators: the routing
  // policy's draws follow the eddy's operator order.
  for (const CacqQueryPlan::Join& j : plan.joins) {
    EnsureJoin(j.source_a, static_cast<int>(j.column_a), j.source_b,
               static_cast<int>(j.column_b));
  }
  for (const CacqQueryPlan::Selection& s : plan.selections) {
    IndexOpFor(s.required).index().Add(qid, s.factors);
  }
  info.active = true;
  info.footprint.ForEachSet([&](size_t s) {
    if (interested_[s].size_bits() <= qid) interested_[s].Resize(qid + 1);
    interested_[s].Set(qid);
  });
  if (delayed_queries_.size_bits() <= qid) {
    delayed_queries_.Resize(qid + 1);
    speculative_queries_.Resize(qid + 1);
  }
  (plan.speculative ? speculative_queries_ : delayed_queries_).Set(qid);
  queries_.push_back(std::move(info));
  ++active_queries_;
  return qid;
}

Status CacqEngine::RemoveQuery(QueryId q) {
  if (q >= queries_.size() || !queries_[q].active) {
    return Status::NotFound("no such active query");
  }
  QueryInfo& info = queries_[q];
  info.active = false;
  --active_queries_;
  for (auto& op : index_ops_) op->index().Remove(q);
  for (auto& [jk, stem] : stems_) stem->ScrubQuery(q);
  for (SmallBitset& bits : interested_) {
    if (q < bits.size_bits()) bits.Clear(q);
  }
  if (q < delayed_queries_.size_bits()) delayed_queries_.Clear(q);
  if (q < speculative_queries_.size_bits()) speculative_queries_.Clear(q);
  return Status::OK();
}

Status CacqEngine::Inject(const std::string& stream, const Tuple& tuple,
                          IngressLane lane) {
  const size_t s = layout_.SourceIndexOf(stream);
  if (s == layout_.num_sources()) {
    return Status::NotFound("unknown stream: " + stream);
  }
  return InjectBatch(s, std::span<const Tuple>(&tuple, 1), lane);
}

Status CacqEngine::InjectBatch(const std::string& stream,
                               const std::vector<Tuple>& batch,
                               IngressLane lane) {
  const size_t s = layout_.SourceIndexOf(stream);
  if (s == layout_.num_sources()) {
    return Status::NotFound("unknown stream: " + stream);
  }
  return InjectBatch(s, batch, lane);
}

Status CacqEngine::InjectBatch(size_t s, std::span<const Tuple> batch,
                               IngressLane lane) {
  if (s >= layout_.num_sources()) {
    return Status::OutOfRange("source index out of range");
  }
  SmallBitset interested = interested_[s];
  interested.Resize(queries_.size());
  if (lane != IngressLane::kAll) {
    SmallBitset lane_set = lane == IngressLane::kSpeculative
                               ? speculative_queries_
                               : delayed_queries_;
    lane_set.Resize(queries_.size());
    interested &= lane_set;
  }
  if (interested.None() || batch.empty()) return Status::OK();
  if (!routes_[s].joined) {
    RouteFixed(s, batch, interested);
    return Status::OK();
  }
  std::vector<RoutedTuple> rts;
  rts.reserve(batch.size());
  for (const Tuple& tuple : batch) {
    RoutedTuple rt;
    rt.tuple = layout_.Widen(s, tuple);
    rt.sources = routes_[s].sources;
    rt.queries = interested;
    rts.push_back(std::move(rt));
  }
  eddy_->InjectRoutedBatch(std::move(rts));
  eddy_->Drain();
  return Status::OK();
}

void CacqEngine::EvictBefore(Timestamp ts) {
  for (auto& [jk, stem] : stems_) stem->EvictBefore(ts);
}

std::vector<CacqEngine::StemSnapshot> CacqEngine::stem_snapshots() const {
  std::vector<StemSnapshot> out;
  out.reserve(stems_.size());
  for (const auto& [jk, stem] : stems_) {
    out.push_back(StemSnapshot{stem->name(), stem->size(), stem->stats()});
  }
  return out;
}

void CacqEngine::RouteFixed(size_t s, std::span<const Tuple> batch,
                            const SmallBitset& interested) {
  const SourceRoute& route = routes_[s];
  SmallBitset& lineage = lineage_scratch_;
  std::vector<uint8_t>& passed = passed_scratch_;
  passed.clear();
  for (const Tuple& narrow : batch) {
    Tuple t = layout_.Widen(s, narrow);
    const uint64_t trace_id = eddy_->StampArrival(&t);
    if (trace_id != 0) {
      // Sampled: the eddy records its hops. The tuples before it are
      // accounted first, so the policy observes in arrival order.
      eddy_->RecordFixedVisits(route.op, passed);
      passed.clear();
      RoutedTuple rt;
      rt.tuple = std::move(t);
      rt.sources = route.sources;
      rt.queries = interested;
      rt.trace_id = trace_id;
      eddy_->InjectRouted(std::move(rt));
      eddy_->Drain();
      continue;
    }
    lineage = interested;
    if (route.index != nullptr) route.index->index().Narrow(t, &lineage);
    const bool pass = !lineage.None();
    passed.push_back(pass);
    if (pass) Deliver(t, route.sources, lineage);
  }
  eddy_->RecordFixedVisits(route.op, passed);
}

void CacqEngine::Deliver(const Tuple& t, const SmallBitset& sources,
                         const SmallBitset& queries) {
  if (!sink_ || queries.None()) return;
  queries.ForEachSet([&](size_t q) {
    if (q >= queries_.size() || !queries_[q].active) return;
    // Deliver when the tuple's composition is exactly the query footprint.
    if (queries_[q].footprint == sources) {
      sink_(static_cast<QueryId>(q), t);
    }
  });
}

}  // namespace tcq
