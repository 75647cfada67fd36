#include "core/server.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <span>

#include "common/logging.h"
#include "fjords/queue.h"
#include "spool/spool.h"
#include "stem/stem.h"
#include "telemetry/metrics.h"
#include "telemetry/pool_metrics.h"

namespace tcq {

namespace {

/// Sets this thread has queued into any server's delivery FIFO: tells a
/// DrainOnExit whether its call queued anything.
thread_local uint64_t t_queued_sets = 0;

/// Result rows a query's Poll buffer holds before it sheds its oldest
/// sets: a client that never polls cannot grow server memory forever.
constexpr size_t kMaxBufferedRows = 65536;

#ifndef TCQ_METRICS_DISABLED
/// Process-wide ingest/egress aggregates (DESIGN.md §10); the per-stream
/// and per-query detail lives on Server state and is composed by
/// SnapshotMetrics / PumpMetrics.
struct ServerMetrics {
  Counter* ingested;
  Counter* rejected;
  Counter* delivered_rows;
  Counter* start_clamped;  ///< Submits whose start time the watermark raised.
  // Disorder-path aggregates (DESIGN.md §15); per-stream detail lives on
  // StreamState::dis.
  Counter* dis_released;
  Counter* dis_late_within_bound;
  Counter* dis_beyond_bound;
  Counter* dis_dropped;
  Counter* dis_ingested_late;
  Counter* dis_heartbeats;
  Counter* dis_idle_heartbeats;
  Counter* dis_retractions;
  Counter* dis_unmatched_retractions;
  Counter* spool_replayed;  ///< Records re-delivered by ReplayStream.
  Counter* window_fired;    ///< Windows fired by windowed queries.
  Counter* window_scanned;  ///< Archive tuples their executions read.
  Counter* window_panes;    ///< Panes the window plans built.
  Counter* window_pane_rewrites;  ///< Panes a rewrite or eviction dropped.
  /// Queries ended by QueryRunner::kMaxStepsPerAdvance.
  Counter* window_budget_exceeded;
  Counter* egress_shed_rows;  ///< Buffered rows shed past the Poll bound.
  Counter* egress_result_sets;  ///< Result sets delivered (or buffered).

  static ServerMetrics& Get() {
    static ServerMetrics* m = [] {
      MetricRegistry& reg = MetricRegistry::Global();
      auto* agg = new ServerMetrics();
      agg->ingested = reg.GetCounter("tcq.server.ingested");
      agg->rejected = reg.GetCounter("tcq.server.rejected");
      agg->delivered_rows = reg.GetCounter("tcq.server.delivered_rows");
      agg->start_clamped = reg.GetCounter("tcq.server.start_clamped");
      agg->dis_released = reg.GetCounter("tcq.disorder.released");
      agg->dis_late_within_bound =
          reg.GetCounter("tcq.disorder.late_within_bound");
      agg->dis_beyond_bound = reg.GetCounter("tcq.disorder.beyond_bound");
      agg->dis_dropped = reg.GetCounter("tcq.disorder.dropped");
      agg->dis_ingested_late = reg.GetCounter("tcq.disorder.ingested_late");
      agg->dis_heartbeats = reg.GetCounter("tcq.disorder.heartbeats");
      agg->dis_idle_heartbeats =
          reg.GetCounter("tcq.disorder.idle_heartbeats");
      agg->dis_retractions = reg.GetCounter("tcq.disorder.retractions");
      agg->dis_unmatched_retractions =
          reg.GetCounter("tcq.disorder.unmatched_retractions");
      agg->spool_replayed = reg.GetCounter("tcq.spool.replayed");
      agg->window_fired = reg.GetCounter("tcq.window.fired");
      agg->window_scanned = reg.GetCounter("tcq.window.scanned");
      agg->window_panes = reg.GetCounter("tcq.window.panes");
      agg->window_pane_rewrites =
          reg.GetCounter("tcq.window.pane_rewrites");
      agg->window_budget_exceeded =
          reg.GetCounter("tcq.window.budget_exceeded");
      agg->egress_shed_rows = reg.GetCounter("tcq.egress.shed_rows");
      agg->egress_result_sets = reg.GetCounter("tcq.egress.result_sets");
      return agg;
    }();
    return *m;
  }
};
#endif  // TCQ_METRICS_DISABLED

/// A tuple fits its stream when it has the schema's arity and every
/// non-NULL cell has its column's declared type: filters, panes and the
/// exact SUM read a cell as its column's type.
Status CheckCells(const StreamDef& def, const Tuple& tuple) {
  const Schema& schema = *def.schema;
  if (tuple.arity() != schema.num_fields()) {
    return Status::InvalidArgument("tuple arity mismatch for " + def.name);
  }
  for (size_t i = 0; i < tuple.arity(); ++i) {
    const ValueType type = tuple.cell(i).type();
    if (type != ValueType::kNull && type != schema.field(i).type) {
      return Status::TypeError(
          "column " + schema.field(i).name + " of " + def.name + " is " +
          ValueTypeToString(schema.field(i).type) + ", not " +
          ValueTypeToString(type));
    }
  }
  return Status::OK();
}

}  // namespace

Server::Server() : Server(Options()) {}

Server::Server(Options options) : options_(std::move(options)) {
  clock_ms_ = [] {
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  };
  if (!options_.spool_dir.empty()) {
    // The shared history spool opens (or adopts) before any stream is
    // defined, so every archive — the metrics stream's included — can
    // attach at definition time. A server that cannot open its history
    // store must not come up half-blind: fail loudly.
    Spool::Options so;
    so.dir = options_.spool_dir;
    so.cache_pages = std::max<size_t>(1, options_.spool_cache_pages);
    so.segment_bytes = options_.spool_segment_bytes;
    so.sync_each_append = options_.spool_sync_each_append;
    auto opened = Spool::Open(std::move(so));
    TCQ_CHECK(opened.ok()) << opened.status();
    spool_ = std::move(*opened);
  }
  // Reserved introspection stream: continuous queries over engine
  // telemetry (PumpMetrics publishes snapshots into it).
  SchemaPtr schema = Schema::Make({{"name", ValueType::kString, ""},
                                   {"kind", ValueType::kString, ""},
                                   {"value", ValueType::kDouble, ""}});
  Status st = DefineStream(kMetricsStream, std::move(schema));
  TCQ_CHECK(st.ok()) << st;
#ifndef TCQ_METRICS_DISABLED
  // Pre-register the spine's metric families (they otherwise appear on
  // first use), so snapshots and the introspection stream have a stable
  // name set from the first pump — zero-valued until the path is hit.
  ServerMetrics::Get();
  queue_internal::EdgeMetrics::Get();
  stem_internal::AggregateMetrics::Get();
#endif
}

Server::~Server() {
  // Stop shard/egress threads while queries_ and streams_ are still
  // alive: member destruction order would otherwise tear down queries_
  // under a still-delivering egress thread.
  for (ShardedEngine* e : Engines()) e->Stop();
}

std::vector<ShardedEngine*> Server::Engines() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<ShardedEngine*> engines;
  for (auto& [name, ss] : streams_) {
    if (ss.engine != nullptr) engines.push_back(ss.engine.get());
  }
  return engines;
}

void Server::Quiesce() {
  // Collect under mu_, wait unlocked: a quiesce must not stall ingest on
  // other streams, and the engines live until ~Server.
  for (ShardedEngine* e : Engines()) {
    const Status st = e->Quiesce();
    if (!st.ok()) {
      // A dead (un-failed-over) shard can't be barriered; the server-level
      // quiesce stays best-effort rather than wedging every stream.
      TCQ_LOG(Warn) << "Quiesce skipped a dead shard: " << st.ToString();
    }
  }
  // Every sink call is done; the sets it queued may still be waiting
  // behind a drain on another thread.
  DrainDeliveries(/*wait=*/true);
}

Status Server::Rebalance(const std::string& stream, size_t bucket,
                         size_t to_shard) {
  // Same discipline as Quiesce: resolve the engine under mu_, migrate
  // unlocked — a migration blocks on shard barriers and must not stall
  // ingest on other streams (the engine lives until ~Server).
  ShardedEngine* engine = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = streams_.find(stream);
    if (it == streams_.end()) {
      return Status::NotFound("unknown stream: " + stream);
    }
    engine = it->second.engine.get();
    if (engine == nullptr || engine->num_shards() < 2) {
      return Status::FailedPrecondition(
          "stream is not running sharded (need cacq_shards > 1 and a "
          "standing query): " +
          stream);
    }
  }
  return engine->MigrateBucket(bucket, to_shard);
}

Status Server::DefineStream(const std::string& name, SchemaPtr schema,
                            int timestamp_field, int partition_field) {
  std::lock_guard<std::mutex> lock(mu_);
  StreamDef def;
  def.name = name;
  def.schema = std::move(schema);
  def.timestamp_field = timestamp_field;
  if (partition_field >= 0 &&
      static_cast<size_t>(partition_field) >= def.schema->num_fields()) {
    return Status::OutOfRange("partition field out of range for " + name);
  }
  TCQ_RETURN_NOT_OK(catalog_.RegisterStream(def));
  StreamState state;
  state.def = def;
  state.archive = std::make_unique<Archive>(options_.retention_span);
  if (spool_ != nullptr) {
    // Bounded-RAM history: the archive keeps a resident tail and demotes
    // the rest to the shared spool. Reopening a server on the same
    // spool_dir adopts the stream's spooled history here.
    state.archive->AttachSpool(
        spool_.get(), "stream." + name,
        std::max<size_t>(1, options_.spool_resident_tuples));
  }
  if (def.timestamp_field >= 0) {
    // Disorder is only possible with an application timestamp column;
    // arrival-sequence streams are in order by construction.
    state.reorder.set_max_disorder(std::max<Timestamp>(0,
                                                       options_.max_disorder));
    state.late_policy = options_.late_policy;
  }
  state.last_arrival_ms = clock_ms_();
  if (partition_field >= 0) {
    state.partition_column = static_cast<size_t>(partition_field);
  } else {
    // Default exchange key: the first non-timestamp column (timestamps
    // increase monotonically — hashing them would serialize each batch
    // onto one shard).
    state.partition_column =
        (def.timestamp_field == 0 && def.schema->num_fields() > 1) ? 1 : 0;
  }
  streams_.emplace(name, std::move(state));
  return Status::OK();
}

Status Server::DefineTable(const std::string& name, SchemaPtr schema,
                           TupleVector rows) {
  std::lock_guard<std::mutex> lock(mu_);
  StreamDef def;
  def.name = name;
  def.schema = std::move(schema);
  // Aggregates read a cell as its column's type, as for stream tuples.
  for (const Tuple& row : rows) TCQ_RETURN_NOT_OK(CheckCells(def, row));
  return catalog_.RegisterTable(std::move(def), std::move(rows));
}

Result<QueryId> Server::Submit(const std::string& sql) {
  return Submit(sql, SubmitOptions());
}

Result<QueryId> Server::Submit(const std::string& sql,
                               const SubmitOptions& opts) {
  // Parsing reads no server state: ingest need not wait for it.
  TCQ_ASSIGN_OR_RETURN(ParsedQuery parsed, ParseQuery(sql));
  std::lock_guard<std::mutex> lock(mu_);
  TCQ_ASSIGN_OR_RETURN(AnalyzedQuery analyzed,
                       Analyze(std::move(parsed), catalog_));

  const QueryId qid = static_cast<QueryId>(queries_.size());
  auto qs = std::make_unique<QueryState>();
  qs->consistency = opts.consistency;
  qs->analyzed = std::make_shared<const AnalyzedQuery>(std::move(analyzed));
  const AnalyzedQuery& aq = *qs->analyzed;
  const bool speculative = opts.consistency == Consistency::kSpeculative;

  if (aq.cacq_eligible) {
    // Standing single-stream filter: fold into the stream's engine
    // (created on first use; inline at one shard, a shard fleet above).
    const std::string& stream = aq.defs[0].name;
    StreamState& ss = streams_.at(stream);
    if (ss.engine == nullptr) {
      ShardedEngine::Options sopts;
      sopts.num_shards = std::max<size_t>(1, options_.cacq_shards);
      sopts.seed = options_.seed;
      sopts.num_buckets = options_.cacq_buckets;
      sopts.auto_rebalance = options_.auto_rebalance;
      sopts.rebalance = options_.rebalance;
      // Standbys need a fleet: one shard always runs inline.
      sopts.num_replicas = sopts.num_shards > 1 ? options_.cacq_replicas : 0;
      auto engine = std::make_unique<ShardedEngine>(std::move(sopts));
      auto added =
          engine->AddStream(stream, ss.def.schema, ss.partition_column);
      TCQ_CHECK(added.ok()) << added.status();
      // The sink runs on the egress thread, or inside PushBatch inline; it
      // captures the StreamState node (map nodes are address-stable) and
      // takes results_mu_ only. Inline, the pushing call drains the
      // delivery FIFO once it has released mu_; sharded, the egress
      // thread drains what it queued here.
      StreamState* node = &ss;
      const bool sharded = !engine->is_inline();
      engine->SetSink(
          [this, node, sharded](std::vector<ShardedEngine::Emission>&& batch) {
            const uint64_t queued = t_queued_sets;
            DeliverShardEmissions(node, std::move(batch));
            if (sharded && t_queued_sets != queued) {
              DrainDeliveries(/*wait=*/false);
            }
          });
      engine->Start();
      ss.engine = std::move(engine);
    }
    // The analysis classified every factor against the one source's
    // schema, whose columns the engine's layout shares: install that.
    CacqQueryPlan plan;
    plan.footprint.Resize(1);
    plan.footprint.Set(0);
    plan.speculative = speculative;
    if (!aq.filters.empty()) {
      CacqQueryPlan::Selection& all =
          plan.selections.emplace_back(plan.footprint);
      all.factors.reserve(aq.filters.size());
      for (const AnalyzedQuery::BoundFilter& f : aq.filters) {
        all.factors.push_back(f.plan);
      }
    }
    TCQ_ASSIGN_OR_RETURN(QueryId engine_q,
                         ss.engine->AddQuery(std::move(plan)));
    {
      std::lock_guard<std::mutex> rlock(results_mu_);
      if (ss.cacq_owner.size() <= engine_q) {
        ss.cacq_owner.resize(engine_q + 1, nullptr);
      }
      // The egress thread projects a query's rows from here on.
      qs->select_list = InternSelectListLocked(&ss, qs->analyzed);
      ss.cacq_owner[engine_q] = qs.get();
    }
    ++(speculative ? ss.cacq_speculative : ss.cacq_delayed);
    qs->is_cacq = true;
    qs->cacq_stream = stream;
    qs->cacq_id = engine_q;
  } else {
    // Windowed / snapshot path: a QueryRunner over the archives.
    std::vector<const Archive*> archives;
    std::vector<TupleVector> table_rows;
    Timestamp start_time = 1;
    for (const StreamDef& def : aq.defs) {
      if (def.is_table) {
        archives.push_back(nullptr);
        TCQ_ASSIGN_OR_RETURN(TupleVector rows,
                             catalog_.GetTableRows(def.name));
        table_rows.push_back(std::move(rows));
        continue;
      }
      StreamState& ss = streams_.at(def.name);
      archives.push_back(ss.archive.get());
      table_rows.emplace_back();
      if (ss.watermark + 1 > start_time) {
        // The for-loop start is clamped past data the stream has already
        // delivered (the query cannot fire windows over history whose
        // watermark has passed). Observable, not silent.
        start_time = ss.watermark + 1;
        TCQ_METRIC(ServerMetrics::Get().start_clamped->Add(1));
      }
    }
    QueryRunner::Options ropts;
    ropts.seed = options_.seed;
    ropts.start_time = start_time;
    ropts.speculative = speculative;
    qs->runner =
        std::make_unique<QueryRunner>(qs->analyzed, std::move(archives),
                                      std::move(table_rows), ropts);
    StreamState* plan = nullptr;
    if (qs->runner->shareable()) {
      plan = &streams_.at(aq.defs[0].name);
      if (plan->windows == nullptr) {
        plan->windows =
            std::make_unique<SharedWindowScan>(plan->archive.get());
      }
      qs->window_query = plan->windows->Add(qs->runner.get());
      qs->window_stream = plan;
    }
    for (const StreamDef& def : aq.defs) {
      if (def.is_table) continue;
      std::vector<QueryState*>& windowed = streams_.at(def.name).windowed;
      if (windowed.empty() || windowed.back() != qs.get()) {
        windowed.push_back(qs.get());  // Once per stream, self-joins too.
      }
    }
    // Table-only snapshots and past-window queries may already be
    // executable: fire them now.
    QueryState* const self = qs.get();
    AdvanceRunnersLocked(plan, std::span<QueryState* const>(&self, 1),
                         qs->window_query);
  }

  if (qs->consistency == Consistency::kSpeculative) ++num_speculative_;
  {
    // The egress thread indexes queries_ under results_mu_; push_back may
    // reallocate the vector's storage.
    std::lock_guard<std::mutex> rlock(results_mu_);
    qs->active = true;
    queries_.push_back(std::move(qs));
  }
  return qid;
}

Status Server::SetCallback(QueryId q, Callback cb) {
  DrainOnExit drain{this};
  std::unique_ptr<const Callback> replaced;  // Freed with no lock held.
  std::lock_guard<std::mutex> lock(mu_);
  if (q >= queries_.size() || !queries_[q]->active) {
    return Status::NotFound("no such active query");
  }
  QueryState* qs = queries_[q].get();
  std::lock_guard<std::mutex> rlock(results_mu_);
  replaced = std::move(qs->callback);
  if (cb) qs->callback = std::make_unique<const Callback>(std::move(cb));
  // A running drain may be calling the replaced callback right now.
  if (draining_ && replaced != nullptr) {
    retired_callbacks_.push_back(std::move(replaced));
  }
  // Disconnect: sets buffer for Poll (queued ones too, when drained).
  if (qs->callback == nullptr || qs->pending_sets() == 0) return Status::OK();
  // Connect: the backlog is older than any set of this query still in
  // the FIFO, so it goes in ahead of the first of them, in order.
  const auto pos = std::find_if(deliveries_.begin(), deliveries_.end(),
                                [qs](const Delivery& d) { return d.qs == qs; });
  std::vector<Delivery> backlog(qs->results.size());
  for (size_t i = 0; i < backlog.size(); ++i) {
    backlog[i].qs = qs;
    backlog[i].seq = ++enqueued_;
    backlog[i].set = std::move(qs->results[i]);
  }
  deliveries_.insert(pos, std::make_move_iterator(backlog.begin()),
                     std::make_move_iterator(backlog.end()));
  qs->queued += backlog.size();
  t_queued_sets += backlog.size();
  qs->results.clear();
  qs->buffered_rows = 0;
  return Status::OK();
}

Status Server::Cancel(QueryId q) {
  bool wait = false;
  QueryState* qs = nullptr;
  Status st;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (q >= queries_.size() || !queries_[q]->active) {
      return Status::NotFound("no such active query");
    }
    qs = queries_[q].get();
    if (qs->consistency == Consistency::kSpeculative && num_speculative_ > 0) {
      --num_speculative_;
    }
    StreamState* ss = qs->is_cacq ? &streams_.at(qs->cacq_stream) : nullptr;
    {
      // Unmap first so delivery drops emissions still in flight; the
      // drain starts no callback of an inactive query.
      std::lock_guard<std::mutex> rlock(results_mu_);
      qs->active = false;
      if (ss != nullptr) {
        ss->cacq_owner[qs->cacq_id] = nullptr;
        ReleaseSelectListLocked(ss, qs->select_list);
      }
      qs->results = Fifo<ResultSet>();
      qs->buffered_rows = 0;
      // A callback running on this thread is on our own stack.
      wait = qs->in_flight && drainer_ != std::this_thread::get_id();
    }
    if (qs->window_query != nullptr) {
      qs->window_stream->windows->Remove(qs->window_query);
      qs->window_stream->windowed_cancelled = true;
      qs->window_query = nullptr;
    } else if (qs->runner != nullptr) {
      for (const StreamDef& def : qs->analyzed->defs) {
        if (!def.is_table) streams_.at(def.name).windowed_cancelled = true;
      }
    }
    qs->runner.reset();
    if (ss != nullptr) {
      size_t& lane = qs->consistency == Consistency::kSpeculative
                         ? ss->cacq_speculative
                         : ss->cacq_delayed;
      if (lane > 0) --lane;
      st = ss->engine->RemoveQuery(qs->cacq_id);
    }
  }
  if (wait) {
    // The in-flight callback may itself be waiting for mu_.
    std::unique_lock<std::mutex> rlock(results_mu_);
    ++delivery_waiters_;
    delivered_cv_.wait(rlock, [qs] { return !qs->in_flight; });
    --delivery_waiters_;
  }
  return st;
}

Result<SchemaPtr> Server::OutputSchema(QueryId q) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (q >= queries_.size()) return Status::NotFound("no such query");
  return queries_[q]->analyzed->output_schema;
}

Status Server::Push(const std::string& stream, const Tuple& tuple) {
  DrainOnExit drain{this};
  std::lock_guard<std::mutex> lock(mu_);
  return PushLocked(stream, tuple);
}

Status Server::StampLocked(StreamState* ss, Tuple* tuple) {
  TCQ_RETURN_NOT_OK(CheckCells(ss->def, *tuple));
  // Stamp the engine timestamp: declared column or arrival order.
  ++ss->arrivals;
  Timestamp ts;
  if (ss->def.timestamp_field >= 0) {
    const Value& v =
        tuple->cell(static_cast<size_t>(ss->def.timestamp_field));
    if (v.type() != ValueType::kInt64) {
      return Status::TypeError("timestamp column must be INT64");
    }
    ts = v.int64_value();
  } else {
    ts = ss->arrivals;
  }
  tuple->set_timestamp(ts);
  return Status::OK();
}

Timestamp Server::RunnerWatermarkLocked(const QueryState& qs) const {
  // Delayed queries advance to the min safe watermark of their footprint,
  // speculative ones to the min raw watermark (floored at safe: a raw
  // mark never trails what has already been released). kMaxTimestamp for
  // a table-only query.
  const bool speculative = qs.consistency == Consistency::kSpeculative;
  Timestamp hwm = kMaxTimestamp;
  for (const StreamDef& def : qs.analyzed->defs) {
    if (def.is_table) continue;
    const StreamState& src = streams_.at(def.name);
    hwm = std::min(hwm, speculative ? std::max(src.watermark,
                                               src.reorder.raw_watermark())
                                    : src.watermark);
  }
  return hwm;
}

void Server::AdvanceQueriesLocked(StreamState* ss) {
  if (ss->windowed_cancelled) {
    std::erase_if(ss->windowed,
                  [](const QueryState* qs) { return !qs->active; });
    ss->windowed_cancelled = false;
  }
  AdvanceRunnersLocked(ss, ss->windowed);
}

void Server::AdvanceRunnersLocked(StreamState* ss,
                                  std::span<QueryState* const> queries,
                                  const SharedWindowScan::Query* only) {
  SharedWindowScan::Stats stats;
  if (ss != nullptr && ss->windows != nullptr) {
    stats = ss->windows->Advance(ss->watermark, only);
  }
  uint64_t fired = stats.fired;
  uint64_t scanned = stats.scanned;
  uint64_t budget_exceeded = stats.budget_exceeded;
  // Delivery in query order, as if each query had advanced on its own.
  for (QueryState* qs : queries) {
    if (qs->window_query != nullptr) {
      ss->windows->TakeResults(qs->window_query, &qs->fired);
    } else if (!qs->runner->done()) {
      const uint64_t before = qs->runner->tuples_scanned();
      fired += qs->runner->Advance(RunnerWatermarkLocked(*qs), &qs->fired);
      scanned += qs->runner->tuples_scanned() - before;
      // Only live runners advance, so a budget stop counts once.
      if (qs->runner->status().code() == StatusCode::kResourceExhausted) {
        ++budget_exceeded;
      }
    }
    if (!qs->fired.empty()) fired_.push_back(qs);
  }
  DeliverFired();
  if (budget_exceeded > 0) {
    windows_budget_exceeded_ += budget_exceeded;
    TCQ_METRIC(ServerMetrics::Get().window_budget_exceeded->Add(
        budget_exceeded));
  }
  if (fired == 0 && scanned == 0 && stats.pane_rewrites == 0) return;
  windows_fired_ += fired;
  windows_scanned_ += scanned;
  windows_panes_ += stats.panes;
  windows_pane_rewrites_ += stats.pane_rewrites;
  if (stats.fired > 0) ++shared_scans_;
  TCQ_METRIC(ServerMetrics::Get().window_fired->Add(fired));
  TCQ_METRIC(ServerMetrics::Get().window_scanned->Add(scanned));
  TCQ_METRIC(ServerMetrics::Get().window_panes->Add(stats.panes));
  TCQ_METRIC(
      ServerMetrics::Get().window_pane_rewrites->Add(stats.pane_rewrites));
}

void Server::ReviseQueriesLocked(StreamState* ss, Timestamp late_ts) {
  if (num_speculative_ == 0) return;  // Per-batch call; skip the sweep.
  for (QueryState* qs : ss->windowed) {
    if (!qs->active || qs->consistency != Consistency::kSpeculative) {
      continue;
    }
    qs->runner->Revise(late_ts, &qs->fired);
    if (!qs->fired.empty()) fired_.push_back(qs);
  }
  DeliverFired();
}

Status Server::ApplyReleasedLocked(const std::string& stream,
                                   StreamState* sp,
                                   std::vector<Tuple> released) {
  StreamState& ss = *sp;
  if (released.empty()) return Status::OK();
  ss.dis.released += static_cast<int64_t>(released.size());
  TCQ_METRIC(ServerMetrics::Get().dis_released->Add(released.size()));
  // Releases arrive in timestamp order and never regress below earlier
  // releases, so plain Append keeps the archive sorted; the safe
  // watermark is the released frontier.
  for (const Tuple& t : released) {
    ss.archive->Append(t);
    if (t.timestamp() > ss.watermark) ss.watermark = t.timestamp();
  }
  // Delayed-lane injection: standing delayed queries consume the released
  // (timestamp-ordered) feed, never raw arrivals.
  if (ss.cacq_delayed == 0) return Status::OK();
  return ss.engine->PushBatch(stream, std::move(released),
                              IngressLane::kDelayed);
}

Status Server::PushLocked(const std::string& stream, const Tuple& tuple) {
  auto it = streams_.find(stream);
  if (it == streams_.end()) {
    return Status::NotFound("unknown stream: " + stream);
  }
  std::vector<Tuple> one;
  one.push_back(tuple);
  return IngestBatchLocked(stream, &it->second, std::move(one), nullptr);
}

Status Server::PushBatch(const std::string& stream, std::vector<Tuple> batch,
                         size_t* rejected) {
  DrainOnExit drain{this};
  std::lock_guard<std::mutex> lock(mu_);
  if (rejected != nullptr) *rejected = 0;
  auto it = streams_.find(stream);
  if (it == streams_.end()) {
    return Status::NotFound("unknown stream: " + stream);
  }
  return IngestBatchLocked(stream, &it->second, std::move(batch), rejected);
}

Status Server::IngestBatchLocked(const std::string& stream, StreamState* sp,
                                 std::vector<Tuple> batch, size_t* rejected) {
  StreamState& ss = *sp;
  if (!batch.empty()) ss.last_arrival_ms = clock_ms_();

  // Stamp, classify and route the whole batch in one pass. Accepted
  // arrivals feed two lanes: `raw` (arrival order — the speculative lane)
  // and the reorder buffer, whose releases (timestamp order — the delayed
  // lane) are applied below. With max_disorder == 0 the buffer releases
  // every tuple immediately, so both lanes carry the same sequence and
  // the classic in-order behavior is preserved byte for byte.
  Status first_error = Status::OK();
  // The raw (arrival-order) lane is only materialized when someone
  // listens to it: with no speculative CACQ queries the per-tuple copy
  // into `raw` is pure overhead on the hot ingest path.
  const bool want_spec = ss.cacq_speculative > 0;
  std::vector<Tuple> raw;
  if (want_spec) raw.reserve(batch.size());
  size_t accepted = 0;
  int64_t within_bound = 0;
  std::vector<Tuple> released;
  released.reserve(batch.size());
  // kIngestLate stragglers, archived only after this batch's releases:
  // an InsertOrdered mid-loop could land ABOVE releases still pending in
  // `released`, and their later Append would then violate the archive's
  // ordered-append invariant. Nothing reads the archive until the window
  // advance below, so deferring is observationally identical.
  std::vector<Tuple> late_inserts;
  Timestamp min_revise = kMaxTimestamp;
  // The released frontier as of the previous tuple: ss.watermark only
  // advances when the releases are applied below, so earlier tuples of
  // THIS batch must raise the straggler bar too (a release sequence must
  // never regress).
  Timestamp frontier = ss.watermark;
  for (Tuple& tuple : batch) {
    Status st = StampLocked(&ss, &tuple);
    if (!st.ok()) {
      ++ss.rejected;
      TCQ_METRIC(ServerMetrics::Get().rejected->Add(1));
      if (rejected == nullptr) {
        first_error = std::move(st);
        break;  // Ingest the valid prefix, then report, like a Push loop.
      }
      ++*rejected;
      continue;
    }
    const Timestamp ts = tuple.timestamp();
    if (ts < frontier) {
      // Beyond-bound straggler: below the released frontier, later than
      // the declared disorder bound.
      ++ss.dis.beyond_bound;
      TCQ_METRIC(ServerMetrics::Get().dis_beyond_bound->Add(1));
      if (ss.late_policy == LatePolicy::kDrop) {
        ++ss.dis.dropped;
        TCQ_METRIC(ServerMetrics::Get().dis_dropped->Add(1));
        continue;
      }
      if (ss.late_policy == LatePolicy::kIngestLate) {
        ++ss.dis.ingested_late;
        TCQ_METRIC(ServerMetrics::Get().dis_ingested_late->Add(1));
        TCQ_METRIC(ServerMetrics::Get().ingested->Add(1));
        late_inserts.push_back(tuple);
        min_revise = std::min(min_revise, ts);
        ++accepted;
        // Standing speculative queries still see it (they tolerate
        // out-of-order input); delayed queries only via unfired windows.
        if (want_spec) raw.push_back(std::move(tuple));
        continue;
      }
      // LatePolicy::kReject: the classic hard-reject contract, with the
      // classic message, under the batch skip-and-count rules.
      ++ss.rejected;
      TCQ_METRIC(ServerMetrics::Get().rejected->Add(1));
      Status late = Status::InvalidArgument(
          "out-of-order timestamp on " + ss.def.name + ": " +
          std::to_string(ts) + " < watermark " + std::to_string(frontier));
      if (rejected == nullptr) {
        first_error = std::move(late);
        break;
      }
      ++*rejected;
      continue;
    }
    // Within bound (or in order): through the reorder buffer.
    ++within_bound;
    if (ts < ss.reorder.raw_watermark()) {
      ++ss.dis.late_within_bound;
      TCQ_METRIC(ServerMetrics::Get().dis_late_within_bound->Add(1));
    }
    ++accepted;
    if (want_spec) raw.push_back(tuple);
    ss.reorder.Offer(std::move(tuple), &released);
    if (!released.empty()) {
      frontier = std::max(frontier, released.back().timestamp());
    }
  }

  TCQ_METRIC(
      ServerMetrics::Get().ingested->Add(static_cast<uint64_t>(within_bound)));
  (void)within_bound;  // Metric-only under TCQ_DISABLE_METRICS.

  // Releases with timestamps at or below an already-fired speculative
  // window require revision (the archive changed under it) — as do
  // kIngestLate ordered inserts. Releases are timestamp-ordered, so the
  // front carries the minimum.
  Timestamp revise_ts = min_revise;
  if (!released.empty()) {
    revise_ts = std::min(revise_ts, released.front().timestamp());
  }
  TCQ_RETURN_NOT_OK(ApplyReleasedLocked(stream, &ss, std::move(released)));
  for (const Tuple& t : late_inserts) ss.archive->InsertOrdered(t);

  // Revise before advancing: the windows an advance fires would otherwise
  // push the ones this batch changed out of the revision horizon.
  if (revise_ts != kMaxTimestamp) ReviseQueriesLocked(&ss, revise_ts);
  if (accepted > 0) {
    AdvanceQueriesLocked(&ss);
    // Speculative-lane injection: raw arrivals, in arrival order.
    if (want_spec && !raw.empty()) {
      TCQ_RETURN_NOT_OK(ss.engine->PushBatch(stream, std::move(raw),
                                             IngressLane::kSpeculative));
    }
  }
  return first_error;
}

Status Server::PushAll(const std::string& stream, TupleSource* source) {
  DrainOnExit drain{this};
  std::lock_guard<std::mutex> lock(mu_);
  while (auto t = source->Next()) {
    TCQ_RETURN_NOT_OK(PushLocked(stream, *t));
  }
  return Status::OK();
}

Status Server::SetDisorderBound(const std::string& stream,
                                Timestamp max_disorder, LatePolicy policy) {
  DrainOnExit drain{this};
  std::lock_guard<std::mutex> lock(mu_);
  auto it = streams_.find(stream);
  if (it == streams_.end()) {
    return Status::NotFound("unknown stream: " + stream);
  }
  StreamState& ss = it->second;
  if (ss.def.timestamp_field < 0) {
    return Status::FailedPrecondition(
        "disorder bound needs a timestamp column on " + stream);
  }
  if (max_disorder < 0) {
    return Status::InvalidArgument("negative disorder bound");
  }
  ss.reorder.set_max_disorder(max_disorder);
  ss.late_policy = policy;
  // A tightened bound can make buffered tuples releasable right now.
  if (ss.reorder.buffered() > 0 &&
      ss.reorder.raw_watermark() >= kMinTimestamp + max_disorder) {
    std::vector<Tuple> released;
    ss.reorder.Punctuate(ss.reorder.raw_watermark() - max_disorder,
                         &released);
    const Timestamp min_released =
        released.empty() ? kMaxTimestamp : released.front().timestamp();
    TCQ_RETURN_NOT_OK(ApplyReleasedLocked(stream, &ss, std::move(released)));
    if (min_released != kMaxTimestamp) {
      ReviseQueriesLocked(&ss, min_released);
    }
    AdvanceQueriesLocked(&ss);
  }
  return Status::OK();
}

Status Server::Heartbeat(const std::string& stream, Timestamp ts) {
  DrainOnExit drain{this};
  std::lock_guard<std::mutex> lock(mu_);
  auto it = streams_.find(stream);
  if (it == streams_.end()) {
    return Status::NotFound("unknown stream: " + stream);
  }
  if (it->second.def.timestamp_field < 0) {
    return Status::FailedPrecondition(
        "heartbeats need a timestamp column on " + stream);
  }
  return HeartbeatLocked(stream, &it->second, ts, /*idle=*/false);
}

Status Server::HeartbeatLocked(const std::string& stream, StreamState* sp,
                               Timestamp ts, bool idle) {
  StreamState& ss = *sp;
  ++(idle ? ss.dis.idle_heartbeats : ss.dis.heartbeats);
  TCQ_METRIC((idle ? ServerMetrics::Get().dis_idle_heartbeats
                   : ServerMetrics::Get().dis_heartbeats)
                 ->Add(1));
  // The source asserts no future arrival has timestamp <= ts: flush the
  // buffer through ts and advance the safe watermark to at least ts.
  // Arrivals at or below it afterwards follow the stream's LatePolicy.
  std::vector<Tuple> released;
  ss.reorder.Punctuate(ts, &released);
  const Timestamp min_released =
      released.empty() ? kMaxTimestamp : released.front().timestamp();
  TCQ_RETURN_NOT_OK(ApplyReleasedLocked(stream, &ss, std::move(released)));
  if (ts > ss.watermark) ss.watermark = ts;
  if (min_released != kMaxTimestamp) {
    ReviseQueriesLocked(&ss, min_released);
  }
  AdvanceQueriesLocked(&ss);
  return Status::OK();
}

Status Server::Retract(const std::string& stream, const Tuple& tuple) {
  DrainOnExit drain{this};
  std::lock_guard<std::mutex> lock(mu_);
  auto it = streams_.find(stream);
  if (it == streams_.end()) {
    return Status::NotFound("unknown stream: " + stream);
  }
  StreamState& ss = it->second;
  if (ss.def.timestamp_field < 0) {
    return Status::FailedPrecondition(
        "retractions need a timestamp column on " + stream);
  }
  TCQ_RETURN_NOT_OK(CheckCells(ss.def, tuple));
  const Value& v =
      tuple.cell(static_cast<size_t>(ss.def.timestamp_field));
  if (v.type() != ValueType::kInt64) {
    return Status::TypeError("timestamp column must be INT64");
  }
  Tuple r = tuple;
  r.set_timestamp(v.int64_value());
  r.set_retraction(true);
  // A retraction is not an arrival: it never advances watermarks or the
  // arrival count. The archived assertion must exist — a retraction of a
  // tuple still waiting in the reorder buffer (or never asserted) is
  // dropped and counted.
  if (!ss.archive->CancelMatching(r)) {
    ++ss.dis.unmatched_retractions;
    TCQ_METRIC(ServerMetrics::Get().dis_unmatched_retractions->Add(1));
    return Status::OK();
  }
  ++ss.dis.retractions;
  TCQ_METRIC(ServerMetrics::Get().dis_retractions->Add(1));
  // Both CACQ lanes saw the assertion, so the signed tuple flows to all
  // standing queries (kAll); it cancels SteM state and emits signed rows.
  if (ss.standing() > 0) TCQ_RETURN_NOT_OK(ss.engine->Push(stream, r));
  // Fired speculative windows covering the timestamp must be revised;
  // delayed windows that already fired keep the stale row (documented).
  ReviseQueriesLocked(&ss, r.timestamp());
  return Status::OK();
}

size_t Server::PumpHeartbeats() {
  DrainOnExit drain{this};
  std::lock_guard<std::mutex> lock(mu_);
  if (options_.idle_heartbeat_ms <= 0) return 0;
  const int64_t now = clock_ms_();
  size_t punctuated = 0;
  for (auto& [name, ss] : streams_) {
    if (ss.def.timestamp_field < 0) continue;  // Arrival seq: never idle.
    if (now - ss.last_arrival_ms < options_.idle_heartbeat_ms) continue;
    // Punctuate up to the highest safe watermark among streams this one
    // shares a multi-stream windowed query with — the partners whose
    // windows it is stalling, and (by the shared-clock assumption) the
    // same timestamp domain. Single-stream queries never stall on a
    // partner, so a stream with no multi-stream footprint is left alone.
    Timestamp target = kMinTimestamp;
    for (const QueryState* qs : ss.windowed) {
      if (!qs->active) continue;
      const size_t stream_defs = static_cast<size_t>(
          std::count_if(qs->analyzed->defs.begin(), qs->analyzed->defs.end(),
                        [](const StreamDef& def) { return !def.is_table; }));
      if (stream_defs < 2) continue;
      for (const StreamDef& def : qs->analyzed->defs) {
        if (def.is_table || def.name == name) continue;
        target = std::max(target, streams_.at(def.name).watermark);
      }
    }
    if (target <= ss.watermark) continue;  // Nothing to unblock.
    const Status st = HeartbeatLocked(name, &ss, target, /*idle=*/true);
    TCQ_CHECK(st.ok()) << st;
    ss.last_arrival_ms = now;
    ++punctuated;
  }
  return punctuated;
}

void Server::SetClockForTesting(std::function<int64_t()> now_ms) {
  std::lock_guard<std::mutex> lock(mu_);
  clock_ms_ = std::move(now_ms);
}

Status Server::ReplayStream(const std::string& stream, Timestamp from_ts) {
  DrainOnExit drain{this};
  std::lock_guard<std::mutex> lock(mu_);
  auto it = streams_.find(stream);
  if (it == streams_.end()) {
    return Status::NotFound("unknown stream: " + stream);
  }
  StreamState& ss = it->second;
  if (ss.reorder.buffered() > 0) {
    return Status::FailedPrecondition(
        "replay on " + stream +
        " with disordered arrivals still buffered; heartbeat first");
  }
  // Chunked re-delivery through the standing-query lanes. The archive
  // serves each chunk (spool region first, then the resident tail) with
  // equal-timestamp runs never split, so replayed batches respect the
  // same timestamp-run boundaries standard ingress releases do. Replayed
  // records are history — final by definition — so both consistency
  // lanes see them once (IngressLane::kAll); they are NOT re-archived.
  Timestamp lo = from_ts;
  Timestamp max_ts = kMinTimestamp;
  size_t replayed = 0;
  for (;;) {
    TupleVector chunk;
    const Timestamp next =
        ss.archive->ScanChunk(lo, kMaxTimestamp, 1024, &chunk);
    if (!chunk.empty()) {
      max_ts = std::max(max_ts, chunk.back().timestamp());
      replayed += chunk.size();
      if (ss.standing() > 0) {
        TCQ_RETURN_NOT_OK(
            ss.engine->PushBatch(stream, std::move(chunk), IngressLane::kAll));
      }
    }
    if (next == kMaxTimestamp) break;
    lo = next;
  }
  if (replayed > 0) {
    TCQ_METRIC(ServerMetrics::Get().spool_replayed->Add(replayed));
    // Replayed history is released history: punctuate the (empty)
    // reorder buffer so the raw watermark covers it, advance the safe
    // watermark, and let windowed queries re-advance over the range. A
    // fresh server reopened on a spool directory starts at kMinTimestamp
    // and lands exactly where the previous incarnation left off.
    std::vector<Tuple> released;
    ss.reorder.Punctuate(max_ts, &released);
    TCQ_CHECK(released.empty());
    if (max_ts > ss.watermark) ss.watermark = max_ts;
    AdvanceQueriesLocked(&ss);
  }
  return Status::OK();
}

void Server::CountSetLocked(QueryState* qs, size_t rows) {
  qs->rows_delivered += rows;
  ++qs->result_sets;
  TCQ_METRIC(ServerMetrics::Get().delivered_rows->Add(rows));
  TCQ_METRIC(ServerMetrics::Get().egress_result_sets->Add(1));
}

void Server::BufferLocked(QueryState* qs, ResultSet&& rs) {
  qs->buffered_rows += rs.rows.size();
  Fifo<ResultSet>& results = qs->results;
  results.push_back(std::move(rs));
  // Shed-oldest: the freshest results win, and a set is never split.
  size_t shed = 0;
  while (qs->buffered_rows > kMaxBufferedRows && results.size() > 1) {
    const size_t n = results.front().rows.size();
    results.pop_front();
    qs->buffered_rows -= n;
    shed += n;
  }
  if (shed > 0) {
    qs->shed_rows += shed;
    TCQ_METRIC(ServerMetrics::Get().egress_shed_rows->Add(shed));
  }
}

Server::DrainOnExit::DrainOnExit(Server* s)
    : server(s),
      unwinding(std::uncaught_exceptions()),
      queued(t_queued_sets) {}

Server::DrainOnExit::~DrainOnExit() noexcept(false) {
  if (t_queued_sets != queued && std::uncaught_exceptions() == unwinding) {
    server->DrainDeliveries(/*wait=*/true);
  }
}

void Server::EnqueueLocked(Delivery&& d) {
  ++t_queued_sets;
  ++d.qs->queued;
  d.seq = ++enqueued_;
  deliveries_.push_back(std::move(d));
}

void Server::AppendResultLocked(QueryState* qs, ResultSet&& rs) {
  CountSetLocked(qs, rs.rows.size());
  if (qs->callback == nullptr && qs->queued == 0) {
    BufferLocked(qs, std::move(rs));
    return;
  }
  Delivery d;
  d.qs = qs;
  d.set = std::move(rs);
  EnqueueLocked(std::move(d));
}

void Server::DeliverFired() {
  if (fired_.empty()) return;
  std::lock_guard<std::mutex> rlock(results_mu_);
  for (QueryState* qs : fired_) {
    for (ResultSet& rs : qs->fired) AppendResultLocked(qs, std::move(rs));
    qs->fired.clear();
  }
  fired_.clear();
}

Tuple Server::SelectList::Project(const Tuple& t) const {
  if (evaluated == nullptr) {
    Tuple row = t.Project(columns);
    row.set_seq(0);  // Egress rows carry no engine arrival sequence.
    return row;
  }
  Tuple row = EvalSelectList(*evaluated, t);
  row.set_retraction(t.retraction());
  return row;
}

uint32_t Server::InternSelectListLocked(
    StreamState* ss, const std::shared_ptr<const AnalyzedQuery>& aq) {
  std::vector<size_t> columns;
  for (const ExprPtr& e : aq->projections) {
    if (e->kind() != ExprKind::kColumn || e->column_index() < 0) {
      columns.clear();
      break;
    }
    columns.push_back(static_cast<size_t>(e->column_index()));
  }
  const bool evaluated = columns.size() != aq->projections.size();
  // A row depends only on the list, so lists with one key share rows.
  // Each item's text is length-prefixed: no item can run into the next.
  std::string key = evaluated ? "e" : "c";
  if (evaluated) {
    for (const ExprPtr& e : aq->projections) {
      const std::string text = e->ToString();
      key += std::to_string(text.size()) + ":" + text;
    }
  } else {
    for (const size_t c : columns) key += std::to_string(c) + ",";
  }
  if (auto it = ss->select_list_ids.find(key);
      it != ss->select_list_ids.end()) {
    ++ss->select_lists[it->second].refs;
    return it->second;
  }
  uint32_t id;
  if (ss->free_select_lists.empty()) {
    id = static_cast<uint32_t>(ss->select_lists.size());
    ss->select_lists.emplace_back();
  } else {
    id = ss->free_select_lists.back();
    ss->free_select_lists.pop_back();
  }
  SelectList& list = ss->select_lists[id];
  list.key = key;
  list.refs = 1;
  list.columns = std::move(columns);
  if (evaluated) list.evaluated = aq;
  ss->select_list_ids.emplace(std::move(key), id);
  return id;
}

void Server::ReleaseSelectListLocked(StreamState* ss, uint32_t id) {
  SelectList& list = ss->select_lists[id];
  if (--list.refs > 0) return;
  ss->select_list_ids.erase(list.key);
  list = SelectList();  // Stamp 0: no batch's memo matches it.
  ss->free_select_lists.push_back(id);
}

namespace {

/// Appends the batch rows at `run` to `set`, in order; `t` is the last
/// row's timestamp. Rows are copies that alias the batch's cells.
void FillSet(const std::vector<Tuple>& rows, std::span<const uint32_t> run,
             ResultSet* set) {
  set->rows.reserve(set->rows.size() + run.size());
  for (const uint32_t i : run) set->rows.push_back(rows[i]);
  set->t = set->rows.back().timestamp();
}

/// Whether two emissions are one input tuple: the engine emits a tuple's
/// queries back to back, each aliasing its cell block with its timestamp
/// and sign — all that a projection reads.
bool SameInput(const Tuple& a, const Tuple& b) {
  return a.cells().data() == b.cells().data() &&
         a.timestamp() == b.timestamp() && a.retraction() == b.retraction();
}

}  // namespace

void Server::DeliverShardEmissions(
    StreamState* ss, std::vector<ShardedEngine::Emission>&& batch) {
  // results_mu_ only: on the egress thread, mu_ may be held by a producer
  // blocked on a full exchange queue — taking it here would deadlock.
  // Inline, the pushing thread already holds mu_.
  std::lock_guard<std::mutex> rlock(results_mu_);
  std::shared_ptr<EmissionBatch> shared;
  if (spare_batches_.empty()) {
    shared = std::make_shared<EmissionBatch>();
  } else {
    shared = std::move(spare_batches_.back());
    spare_batches_.pop_back();
  }
  // Project each input tuple once per select list; its queries' sets
  // all alias that row.
  std::vector<Tuple>& rows = shared->rows;
  const Tuple* input = nullptr;
  for (const auto& [engine_q, t] : batch) {
    QueryState* owner =
        engine_q < ss->cacq_owner.size() ? ss->cacq_owner[engine_q] : nullptr;
    if (owner == nullptr) continue;  // Canceled mid-flight.
    if (input == nullptr || !SameInput(*input, t)) {
      ++projection_stamp_;
      input = &t;
    }
    SelectList& list = ss->select_lists[owner->select_list];
    if (list.stamp != projection_stamp_) {
      list.stamp = projection_stamp_;
      list.row = static_cast<uint32_t>(rows.size());
      rows.push_back(list.Project(t));
    }
    if (owner->gather.empty()) touched_.push_back(owner);
    owner->gather.push_back(list.row);
  }
  // Sets bound for a callback keep only row indexes into the shared
  // batch; the drain lends each callback a set of copies and the batch
  // is spare again once its last set is delivered.
  for (QueryState* qs : touched_) {
    CountSetLocked(qs, qs->gather.size());
    if (qs->callback == nullptr && qs->queued == 0) {
      ResultSet rs;
      FillSet(rows, qs->gather, &rs);
      BufferLocked(qs, std::move(rs));
      qs->gather.clear();
      continue;
    }
    Delivery d;
    d.qs = qs;
    d.batch = shared;
    d.begin = static_cast<uint32_t>(shared->order.size());
    d.count = static_cast<uint32_t>(qs->gather.size());
    shared->order.insert(shared->order.end(), qs->gather.begin(),
                         qs->gather.end());
    qs->gather.clear();
    EnqueueLocked(std::move(d));
  }
  touched_.clear();
  RecycleBatchLocked(&shared);
}

void Server::RecycleBatchLocked(std::shared_ptr<EmissionBatch>* batch) {
  // Every reference is taken and dropped under results_mu_, so the count
  // is exact: at 1, no queued set reads the batch any more.
  if (*batch != nullptr && batch->use_count() == 1 &&
      spare_batches_.size() < kSpareBatches) {
    (*batch)->rows.clear();
    (*batch)->order.clear();
    spare_batches_.push_back(std::move(*batch));
  }
  batch->reset();
}

void Server::DrainDeliveries(bool wait) {
  // Declared first so they are freed after the lock is released.
  std::vector<std::unique_ptr<const Callback>> retired;
  std::unique_lock<std::mutex> lock(results_mu_);
  const std::thread::id self = std::this_thread::get_id();
  if (draining_) {
    // From a callback, the outer drain delivers what this call queued.
    if (!wait || drainer_ == self) return;
    // Wait for every set queued so far. A backlog a SetCallback flushed
    // may sit ahead of older sets, so look at what is left, not a count.
    const uint64_t target = enqueued_;
    const auto delivered = [&] {
      if (in_flight_seq_ != 0 && in_flight_seq_ <= target) return false;
      return std::none_of(
          deliveries_.begin(), deliveries_.end(),
          [target](const Delivery& d) { return d.seq <= target; });
    };
    ++delivery_waiters_;
    delivered_cv_.wait(lock, [&] { return !draining_ || delivered(); });
    --delivery_waiters_;
    if (delivered()) return;
    // The drainer stopped early (a callback threw): drain the rest here.
  }
  draining_ = true;
  drainer_ = self;
  while (!deliveries_.empty()) {
    Delivery d = std::move(deliveries_.front());
    deliveries_.pop_front();
    QueryState* qs = d.qs;
    --qs->queued;
    const Callback* cb = qs->active ? qs->callback.get() : nullptr;
    const std::span<const uint32_t> run =
        d.batch == nullptr
            ? std::span<const uint32_t>()
            : std::span<const uint32_t>(d.batch->order).subspan(d.begin,
                                                                 d.count);
    std::exception_ptr thrown;
    if (cb == nullptr) {
      // Canceled (dropped), or disconnected while queued (buffered, in
      // order: the query's later sets are queued behind this one).
      if (qs->active) {
        if (d.batch != nullptr) FillSet(d.batch->rows, run, &d.set);
        BufferLocked(qs, std::move(d.set));
      }
    } else {
      // A callback takes the set by const reference, so a batch's set is
      // lent from the drain's reused buffer.
      const ResultSet* set = &d.set;
      if (d.batch != nullptr) {
        FillSet(d.batch->rows, run, &callback_set_);
        set = &callback_set_;
      }
      qs->in_flight = true;
      in_flight_seq_ = d.seq;
      lock.unlock();
      try {
        (*cb)(*set);
      } catch (...) {
        thrown = std::current_exception();
      }
      lock.lock();
      callback_set_.rows.clear();
      qs->in_flight = false;
      in_flight_seq_ = 0;
    }
    RecycleBatchLocked(&d.batch);
    if (delivery_waiters_ > 0) delivered_cv_.notify_all();
    if (thrown != nullptr) {
      // The set counts as delivered; the rest wait for the next drain,
      // and the exception reaches the call that ran this one.
      draining_ = false;
      retired.swap(retired_callbacks_);
      std::rethrow_exception(thrown);
    }
  }
  draining_ = false;
  retired.swap(retired_callbacks_);
}

std::optional<ResultSet> Server::Poll(QueryId q) {
  std::lock_guard<std::mutex> lock(mu_);
  std::lock_guard<std::mutex> rlock(results_mu_);
  if (q >= queries_.size() || queries_[q]->pending_sets() == 0) {
    return std::nullopt;
  }
  QueryState* qs = queries_[q].get();
  ResultSet rs = std::move(qs->results.front());
  qs->results.pop_front();
  qs->buffered_rows -= rs.rows.size();
  return rs;
}

std::vector<ResultSet> Server::PollAll(QueryId q) {
  std::lock_guard<std::mutex> lock(mu_);
  std::lock_guard<std::mutex> rlock(results_mu_);
  std::vector<ResultSet> out;
  if (q >= queries_.size()) return out;
  QueryState* qs = queries_[q].get();
  out.assign(std::make_move_iterator(qs->results.begin()),
             std::make_move_iterator(qs->results.end()));
  qs->results.clear();
  qs->buffered_rows = 0;
  return out;
}

size_t Server::num_active_queries() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  for (const auto& q : queries_) {
    if (q->active) ++n;
  }
  return n;
}

size_t Server::PumpMetrics() {
  PublishPoolMetrics();  // Pull allocator-pool totals into the registry.
  DrainOnExit drain{this};
  std::lock_guard<std::mutex> lock(mu_);
  auto it = streams_.find(kMetricsStream);
  TCQ_CHECK(it != streams_.end()) << "introspection stream missing";

  std::vector<Tuple> rows;
  auto add = [&rows](const std::string& name, const char* kind,
                     double value) {
    rows.push_back(Tuple::Make({Value::String(name), Value::String(kind),
                                Value::Double(value)}));
  };

  // The global registry (empty under -DTCQ_DISABLE_METRICS).
  for (const MetricSample& s : MetricRegistry::Global().Snapshot()) {
    switch (s.kind) {
      case MetricKind::kCounter:
        add(s.name, "counter", s.value);
        break;
      case MetricKind::kGauge:
        add(s.name, "gauge", s.value);
        break;
      case MetricKind::kHistogram:
        add(s.name + ".count", "histogram", s.value);
        add(s.name + ".sum", "histogram", s.sum);
        add(s.name + ".p50", "histogram", s.p50);
        add(s.name + ".p99", "histogram", s.p99);
        break;
    }
  }

  // Per-stream / per-query detail only the server knows. These stay live
  // in every build, so queries over tcq.metrics always see tuples.
  for (const auto& [name, ss] : streams_) {
    if (name == kMetricsStream) continue;  // No self-feedback rows.
    const std::string prefix = "tcq.stream." + name + ".";
    add(prefix + "arrivals", "counter", static_cast<double>(ss.arrivals));
    add(prefix + "rejected", "counter", static_cast<double>(ss.rejected));
    add(prefix + "watermark", "gauge",
        ss.watermark == kMinTimestamp ? 0.0
                                      : static_cast<double>(ss.watermark));
    add(prefix + "raw_watermark", "gauge",
        ss.reorder.raw_watermark() == kMinTimestamp
            ? 0.0
            : static_cast<double>(ss.reorder.raw_watermark()));
    add(prefix + "buffered", "gauge",
        static_cast<double>(ss.reorder.buffered()));
    add(prefix + "disorder.released", "counter",
        static_cast<double>(ss.dis.released));
    add(prefix + "disorder.late_within_bound", "counter",
        static_cast<double>(ss.dis.late_within_bound));
    add(prefix + "disorder.beyond_bound", "counter",
        static_cast<double>(ss.dis.beyond_bound));
    add(prefix + "disorder.dropped", "counter",
        static_cast<double>(ss.dis.dropped));
    add(prefix + "disorder.ingested_late", "counter",
        static_cast<double>(ss.dis.ingested_late));
    add(prefix + "disorder.heartbeats", "counter",
        static_cast<double>(ss.dis.heartbeats));
    add(prefix + "disorder.idle_heartbeats", "counter",
        static_cast<double>(ss.dis.idle_heartbeats));
    add(prefix + "disorder.retractions", "counter",
        static_cast<double>(ss.dis.retractions));
    add(prefix + "disorder.unmatched_retractions", "counter",
        static_cast<double>(ss.dis.unmatched_retractions));
  }
  size_t active = 0;
  uint64_t delivered = 0;
  {
    std::lock_guard<std::mutex> rlock(results_mu_);
    for (const auto& q : queries_) {
      if (q->active) ++active;
      delivered += q->rows_delivered;
    }
  }
  add("tcq.server.active_queries", "gauge", static_cast<double>(active));
  add("tcq.server.query_delivered_rows", "counter",
      static_cast<double>(delivered));

  const size_t n = rows.size();
  Status st =
      IngestBatchLocked(kMetricsStream, &it->second, std::move(rows), nullptr);
  TCQ_CHECK(st.ok()) << st;
  return n;
}

namespace {

void AppendKey(const std::string& key, std::string* out) {
  out->push_back('"');
  *out += JsonEscape(key);
  *out += "\":";
}

}  // namespace

std::string Server::SnapshotMetrics() const {
  PublishPoolMetrics();  // Pull allocator-pool totals into the registry.
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"metrics\":{";
  bool first = true;
  for (const MetricSample& s : MetricRegistry::Global().Snapshot()) {
    if (!first) out += ",";
    first = false;
    AppendSampleJson(s, &out);
  }

  out += "},\"streams\":{";
  first = true;
  for (const auto& [name, ss] : streams_) {
    if (!first) out += ",";
    first = false;
    AppendKey(name, &out);
    out += "{\"arrivals\":" + std::to_string(ss.arrivals) +
           ",\"rejected\":" + std::to_string(ss.rejected) + ",\"watermark\":" +
           std::to_string(ss.watermark == kMinTimestamp ? 0 : ss.watermark) +
           ",\"raw_watermark\":" +
           std::to_string(ss.reorder.raw_watermark() == kMinTimestamp
                              ? 0
                              : ss.reorder.raw_watermark()) +
           ",\"buffered\":" + std::to_string(ss.reorder.buffered()) +
           ",\"cacq_queries\":" + std::to_string(ss.standing()) +
           ",\"disorder\":{\"released\":" + std::to_string(ss.dis.released) +
           ",\"late_within_bound\":" +
           std::to_string(ss.dis.late_within_bound) +
           ",\"beyond_bound\":" + std::to_string(ss.dis.beyond_bound) +
           ",\"dropped\":" + std::to_string(ss.dis.dropped) +
           ",\"ingested_late\":" + std::to_string(ss.dis.ingested_late) +
           ",\"heartbeats\":" + std::to_string(ss.dis.heartbeats) +
           ",\"idle_heartbeats\":" + std::to_string(ss.dis.idle_heartbeats) +
           ",\"retractions\":" + std::to_string(ss.dis.retractions) +
           ",\"unmatched_retractions\":" +
           std::to_string(ss.dis.unmatched_retractions) + "}" +
           ",\"history\":{\"resident\":" +
           std::to_string(ss.archive->resident_size()) +
           ",\"resident_bytes\":" +
           std::to_string(ss.archive->resident_bytes()) +
           ",\"spooled\":" + std::to_string(ss.archive->spooled_size()) +
           "}}";
  }

  if (spool_ != nullptr) {
    // The shared-spool view: on-disk footprint plus the page-cache
    // behavior that decides cold-scan latency (tcq.spool.* counters in
    // the registry section carry the append/recovery detail).
    const spool::BufferManager::Stats cs = spool_->cache_stats();
    out += "},\"spool\":{\"bytes\":" + std::to_string(spool_->bytes()) +
           ",\"segments\":" + std::to_string(spool_->segments()) +
           ",\"keys\":" + std::to_string(spool_->Keys().size()) +
           ",\"cache_pages\":" + std::to_string(spool_->cache_pages()) +
           ",\"cache\":{\"hits\":" + std::to_string(cs.hits) +
           ",\"misses\":" + std::to_string(cs.misses) +
           ",\"evictions\":" + std::to_string(cs.evictions) +
           ",\"readahead\":" + std::to_string(cs.readahead) + "}";
  }

  // Windowed execution totals: fired/scanned is the archive reads per
  // fired window, scanned over stream arrivals the rescans per tuple.
  out += "},\"windows\":{\"fired\":" + std::to_string(windows_fired_) +
         ",\"scanned\":" + std::to_string(windows_scanned_) +
         ",\"shared_scans\":" + std::to_string(shared_scans_) +
         ",\"budget_exceeded\":" + std::to_string(windows_budget_exceeded_) +
         ",\"panes\":" + std::to_string(windows_panes_) +
         ",\"pane_rewrites\":" + std::to_string(windows_pane_rewrites_);

  out += "},\"queries\":{";
  first = true;
  {
    std::lock_guard<std::mutex> rlock(results_mu_);
    for (size_t q = 0; q < queries_.size(); ++q) {
      const QueryState& qs = *queries_[q];
      if (!first) out += ",";
      first = false;
      AppendKey(std::to_string(q), &out);
      out += std::string("{\"active\":") + (qs.active ? "true" : "false") +
             ",\"kind\":\"" + (qs.is_cacq ? "cacq" : "windowed") +
             "\",\"delivered_rows\":" + std::to_string(qs.rows_delivered) +
             ",\"result_sets\":" + std::to_string(qs.result_sets) +
             ",\"pending_sets\":" + std::to_string(qs.pending_sets()) +
             ",\"buffered_rows\":" + std::to_string(qs.buffered_rows) +
             ",\"shed_rows\":" + std::to_string(qs.shed_rows) + "}";
    }
  }

  // Shared-eddy detail per inline engine: routing counters, per-op stats
  // (thin views over the telemetry counters) and SteM snapshots. A shard
  // fleet's eddies run on worker threads; the shards section covers them.
  out += "},\"eddies\":{";
  first = true;
  for (const auto& [name, ss] : streams_) {
    if (ss.engine == nullptr || !ss.engine->is_inline()) continue;
    if (!first) out += ",";
    first = false;
    const CacqEngine& cacq = ss.engine->engine(0);
    const Eddy& eddy = cacq.eddy();
    AppendKey(name, &out);
    out += "{\"decisions\":" + std::to_string(eddy.decisions()) +
           ",\"visits\":" + std::to_string(eddy.visits()) +
           ",\"emitted\":" + std::to_string(eddy.emitted()) +
           ",\"cache_hits\":" + std::to_string(eddy.decision_cache_hits()) +
           ",\"cache_misses\":" +
           std::to_string(eddy.decision_cache_misses()) + ",\"ops\":[";
    const std::vector<EddyOpStats>& stats = eddy.op_stats();
    for (size_t i = 0; i < stats.size(); ++i) {
      if (i != 0) out += ",";
      out += "{\"name\":\"" + JsonEscape(eddy.op(i)->name()) +
             "\",\"routed\":" + std::to_string(stats[i].routed.value()) +
             ",\"passed\":" + std::to_string(stats[i].passed.value()) +
             ",\"produced\":" + std::to_string(stats[i].produced.value()) +
             "}";
    }
    out += "],\"stems\":[";
    const auto stems = cacq.stem_snapshots();
    for (size_t i = 0; i < stems.size(); ++i) {
      if (i != 0) out += ",";
      out += "{\"name\":\"" + JsonEscape(stems[i].name) +
             "\",\"size\":" + std::to_string(stems[i].size) +
             ",\"probes\":" + std::to_string(stems[i].stats.probes) +
             ",\"matches\":" + std::to_string(stems[i].stats.matches) +
             ",\"scanned\":" + std::to_string(stems[i].stats.scanned) + "}";
    }
    out += "]}";
  }

  // Shard-fleet detail per sharded stream (atomics-only ShardStats — the
  // one engine view that is safe to read while shard threads run).
  out += "},\"shards\":{";
  first = true;
  for (const auto& [name, ss] : streams_) {
    if (ss.engine == nullptr || ss.engine->is_inline()) continue;
    if (!first) out += ",";
    first = false;
    AppendKey(name, &out);
    out += "[";
    const std::vector<ShardedEngine::ShardStats> stats =
        ss.engine->shard_stats();
    for (size_t i = 0; i < stats.size(); ++i) {
      if (i != 0) out += ",";
      // Buckets owned comes from the live PartitionMap (atomic reads):
      // rebalancing shifts these while the fleet runs.
      out += "{\"routed\":" + std::to_string(stats[i].routed) +
             ",\"processed\":" + std::to_string(stats[i].processed) +
             ",\"queue_depth\":" + std::to_string(stats[i].queue_depth) +
             ",\"eddy_decisions\":" + std::to_string(stats[i].eddy_decisions) +
             ",\"eddy_emitted\":" + std::to_string(stats[i].eddy_emitted) +
             ",\"parks\":" + std::to_string(stats[i].parks) +
             ",\"woken_parks\":" + std::to_string(stats[i].woken_parks) +
             ",\"buckets\":" +
             std::to_string(
                 ss.engine->partition_map().BucketsOwnedBy(i).size()) +
             "}";
    }
    out += "]";
  }
  // Replication detail per sharded stream with process-pair HA enabled
  // (atomics + replica-store counters — safe while shard threads run).
  out += "},\"replicas\":{";
  first = true;
  for (const auto& [name, ss] : streams_) {
    if (ss.engine == nullptr || !ss.engine->replication_enabled()) continue;
    if (!first) out += ",";
    first = false;
    AppendKey(name, &out);
    out += "[";
    const std::vector<ShardedEngine::ReplicaStats> reps =
        ss.engine->replica_stats();
    for (size_t i = 0; i < reps.size(); ++i) {
      if (i != 0) out += ",";
      out += std::string("{\"alive\":") + (reps[i].alive ? "true" : "false") +
             ",\"applied_lsn\":" + std::to_string(reps[i].applied_lsn) +
             ",\"logged_lsn\":" + std::to_string(reps[i].logged_lsn) +
             ",\"snapshot_floor\":" + std::to_string(reps[i].snapshot_floor) +
             ",\"changelog_records\":" +
             std::to_string(reps[i].changelog_records) +
             ",\"changelog_bytes\":" + std::to_string(reps[i].changelog_bytes) +
             ",\"checkpoints\":" + std::to_string(reps[i].checkpoints) +
             ",\"torn_rejected\":" + std::to_string(reps[i].torn_rejected) +
             "}";
    }
    out += "]";
  }
  out += "}}";
  return out;
}

}  // namespace tcq
