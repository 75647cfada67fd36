#include "cacq/engine.h"

#include <algorithm>

#include "common/logging.h"
#include "expr/predicates.h"

namespace tcq {

CacqEngine::CacqEngine() : CacqEngine(Options()) {}

CacqEngine::CacqEngine(Options options) : options_(std::move(options)) {
  eddy_ = std::make_unique<Eddy>(
      &layout_, MakePolicy(options_.policy, options_.seed), options_.eddy);
  eddy_->SetPartialSink([this](RoutedTuple&& rt) { Deliver(std::move(rt)); });
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
  return idx;
}

std::shared_ptr<GroupedFilterOp> CacqEngine::FilterOpFor(size_t column) {
  auto it = filter_ops_.find(column);
  if (it != filter_ops_.end()) return it->second;
  // Which source owns this absolute column?
  size_t owner = layout_.num_sources();
  for (size_t s = 0; s < layout_.num_sources(); ++s) {
    if (column >= layout_.offset(s) &&
        column < layout_.offset(s) + layout_.arity(s)) {
      owner = s;
      break;
    }
  }
  TCQ_CHECK(owner < layout_.num_sources());
  SmallBitset required(layout_.num_sources());
  required.Set(owner);
  auto op = std::make_shared<GroupedFilterOp>(
      "gf[" + layout_.full_schema()->field(column).QualifiedName() + "]",
      column, std::move(required));
  eddy_->AddOperator(op);
  filter_ops_.emplace(column, op);
  return op;
}

std::shared_ptr<ResidualFilterOp> CacqEngine::ResidualOpFor(
    const SmallBitset& req) {
  for (const auto& op : residual_ops_) {
    if (op->required() == req) return op;
  }
  auto op = std::make_shared<ResidualFilterOp>("residual", req);
  eddy_->AddOperator(op);
  residual_ops_.push_back(op);
  return op;
}

void CacqEngine::EnsureJoin(size_t src_a, int col_a, size_t src_b,
                            int col_b) {
  auto ensure_stem = [&](size_t src, int key) -> SteMPtr {
    JoinKey jk{src, key};
    auto it = stems_.find(jk);
    if (it != stems_.end()) return it->second;
    auto stem = std::make_shared<SteM>(
        "stem[" + layout_.alias(src) + "]", layout_.full_schema(), key);
    if (options_.spool != nullptr) {
      stem->SetSpool(options_.spool,
                     options_.spool_prefix + "stem." + layout_.alias(src) +
                         "." + std::to_string(key));
    }
    stems_.emplace(jk, stem);
    eddy_->AddOperator(std::make_shared<StemBuildOp>(
        "build[" + layout_.alias(src) + "]", src, stem));
    return stem;
  };
  SteMPtr stem_a = ensure_stem(src_a, col_a);
  SteMPtr stem_b = ensure_stem(src_b, col_b);

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
        plan.filters.push_back({fp.column, fp.op, std::move(fp.constant)});
        break;
      case FactorPlan::Kind::kResidual: {
        // Per-query residual on the referenced sources.
        std::vector<std::string> cols;
        factor->CollectColumns(&cols);
        SmallBitset req(layout.num_sources());
        for (const std::string& c : cols) {
          TCQ_ASSIGN_OR_RETURN(size_t idx, schema->IndexOf(c));
          const size_t s = layout.SourceIndexOf(schema->field(idx).qualifier);
          TCQ_CHECK(s < layout.num_sources());
          req.Set(s);
        }
        if (req.None()) req = plan.footprint;  // Constant predicate.
        plan.residuals.push_back({std::move(req), std::move(fp.bound)});
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
  // Join and residual operators are created before grouped filters: the
  // routing policy's draws follow the eddy's operator order.
  for (const CacqQueryPlan::Join& j : plan.joins) {
    EnsureJoin(j.source_a, static_cast<int>(j.column_a), j.source_b,
               static_cast<int>(j.column_b));
  }
  for (const CacqQueryPlan::Residual& r : plan.residuals) {
    info.residual_ops.push_back(ResidualOpFor(r.required));
  }
  for (const CacqQueryPlan::Filter& f : plan.filters) {
    FilterOpFor(f.column)->filter().AddPredicate(qid, f.op, f.constant);
    info.filter_columns.push_back(f.column);
  }
  for (size_t i = 0; i < plan.residuals.size(); ++i) {
    info.residual_ops[i]->AddResidual(qid, plan.residuals[i].bound);
  }
  info.active = true;
  info.speculative = plan.speculative;
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
  for (size_t column : info.filter_columns) {
    filter_ops_[column]->filter().RemoveQuery(q);
  }
  for (auto& op : info.residual_ops) op->RemoveQuery(q);
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
  RoutedTuple rt;
  rt.tuple = layout_.Widen(s, tuple);
  rt.sources.Resize(layout_.num_sources());
  rt.sources.Set(s);
  rt.queries = interested_[s];
  rt.queries.Resize(queries_.size());
  if (lane != IngressLane::kAll) {
    SmallBitset lane_set = lane == IngressLane::kSpeculative
                               ? speculative_queries_
                               : delayed_queries_;
    lane_set.Resize(queries_.size());
    rt.queries &= lane_set;
  }
  if (rt.queries.None()) return Status::OK();  // Nobody is listening.
  eddy_->InjectRouted(std::move(rt));
  eddy_->Drain();
  return Status::OK();
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

Status CacqEngine::InjectBatch(size_t s, const std::vector<Tuple>& batch,
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
  std::vector<RoutedTuple> rts;
  rts.reserve(batch.size());
  for (const Tuple& tuple : batch) {
    RoutedTuple rt;
    rt.tuple = layout_.Widen(s, tuple);
    rt.sources.Resize(layout_.num_sources());
    rt.sources.Set(s);
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

void CacqEngine::Deliver(RoutedTuple&& rt) {
  if (!sink_ || rt.queries.None()) return;
  rt.queries.ForEachSet([&](size_t q) {
    if (q >= queries_.size() || !queries_[q].active) return;
    // Deliver when the tuple's composition is exactly the query footprint.
    if (queries_[q].footprint == rt.sources) {
      sink_(static_cast<QueryId>(q), rt.tuple);
    }
  });
}

}  // namespace tcq
