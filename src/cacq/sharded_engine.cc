#include "cacq/sharded_engine.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "common/logging.h"
#include "expr/predicates.h"

namespace tcq {

namespace {

/// Minimal countdown latch (std::latch stays out so the TSan build's
/// libstdc++ coverage is irrelevant): the egress barrier waits on it while
/// the egress thread counts it down. Only used where the counting thread
/// provably cannot die (the egress stage); shard barriers use the
/// abandonable ShardBarrier below instead.
class Latch {
 public:
  explicit Latch(size_t n) : n_(n) {}
  void CountDown() {
    std::lock_guard<std::mutex> lock(mu_);
    TCQ_CHECK(n_ > 0);
    if (--n_ == 0) cv_.notify_all();
  }
  void Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return n_ == 0; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  size_t n_;
};

/// Exchange edge flavors: producers block for space (backpressure toward
/// the pushing client), consumers never block in the queue: the consuming
/// ExecutionObject parks on `waker`, which every enqueue and Close wakes
/// (the timed park bound is the fallback), and shutdown never has to
/// interrupt a thread blocked inside a queue.
QueueOptions ShardEdgeOptions(size_t capacity, std::shared_ptr<Waker> waker) {
  return QueueOptions{capacity, QueueEnd::kBlocking, QueueEnd::kNonBlocking,
                      nullptr, std::move(waker)};
}

}  // namespace

/// A control barrier that survives the death of the threads it waits on.
/// The closure lives INSIDE the barrier (kept alive by the shared_ptr each
/// enqueued wrapper holds), so a waiter can abandon the barrier and return
/// an error while stale wrappers are still queued on a dead shard: when the
/// failover drain later runs them, they see `abandoned_`, skip the closure
/// (whose captures may reference the long-gone caller frame) and just count
/// down. Abandon() synchronizes with in-flight closures — it waits until
/// nothing is executing — so the caller's frame is never touched after an
/// error return.
class ShardedEngine::ShardBarrier {
 public:
  ShardBarrier(std::function<void(size_t)> fn, size_t num_shards)
      : fn_(std::move(fn)), done_(num_shards, 0) {}

  /// Runs on the shard thread (or the failover drain): executes the
  /// closure unless the waiter gave up, then counts down.
  void Run(size_t shard) {
    std::unique_lock<std::mutex> lock(mu_);
    if (!abandoned_) {
      ++executing_;
      lock.unlock();
      fn_(shard);
      lock.lock();
      --executing_;
    }
    done_[shard] = 1;
    ++completed_;
    cv_.notify_all();
  }

 private:
  friend class ShardedEngine;
  std::function<void(size_t)> fn_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<char> done_;  ///< Indexed by shard id.
  size_t completed_ = 0;    ///< Wrappers that ran (executed or abandoned).
  size_t executing_ = 0;    ///< Wrappers currently inside the closure.
  bool abandoned_ = false;
};

/// Drains one shard's exchange queue: data tasks are injected into the
/// shard engine (emissions buffered by the engine sink), query changes are
/// applied to it, control tasks run inline. The emissions of a step's data tasks reach the egress queue in
/// few items: at the end of the step, before a control task, and whenever
/// kFlushEmissions have piled up. A backlogged worker thus pays a few
/// egress wakes per step instead of one per task (a wake costs a syscall
/// whenever the egress thread is parked), while the emissions it holds
/// stay bounded. kDone once the exchange is closed and drained; the shard
/// then closes its egress queue, propagating end-of-stream downstream.
///
/// Crash model (DESIGN.md §13): a KillShard request is observed at task
/// boundaries only, so the worker dies with every prior batch fully
/// applied AND flushed and every later batch untouched — the granularity
/// the LSN/suppression recovery protocol depends on.
class ShardedEngine::WorkerModule : public FjordModule {
 public:
  WorkerModule(ShardedEngine* parent, size_t shard)
      : FjordModule("shard-worker-" + std::to_string(shard)),
        parent_(parent),
        shard_(shard) {}

  StepResult Step(size_t max_tasks) override {
    Shard& sh = *parent_->shards_[shard_];
    if (sh.kill.load(std::memory_order_acquire)) return Die(sh);
    FjordQueue<ShardTask>& in = parent_->input_->partition(shard_);
    scratch_.clear();
    const size_t n = in.DequeueUpTo(max_tasks == 0 ? 1 : max_tasks,
                                    &scratch_);
    if (n == 0) {
      if (in.Exhausted()) {
        sh.output->Close();
        return StepResult::kDone;
      }
      return StepResult::kIdle;
    }
    for (ShardTask& task : scratch_) {
      if (task.control) {
        // Emissions from earlier tasks must reach the egress queue before
        // the control runs: Quiesce's phase-2 barrier rides behind them.
        Flush(sh);
        task.control();
        continue;
      }
      if (sh.kill.load(std::memory_order_acquire)) {
        // Killed mid-scratch: this task and the rest are dropped whole —
        // each is in the changelog or the query history, above the applied
        // floor, and will be replayed (and counted) by the failover.
        return Die(sh);
      }
      if (task.change) {
        ApplyChange(sh.engine.get(), *task.change);
      } else {
        const Status st =
            sh.engine->InjectBatch(task.source, task.tuples, task.lane);
        TCQ_CHECK(st.ok()) << "shard " << shard_
                           << " inject failed: " << st.ToString();
        sh.processed += task.tuples.size();
      }
      if (task.lsn != 0) unflushed_lsn_ = task.lsn;
      if (sh.pending.size() >= kFlushEmissions) Flush(sh);
    }
    Flush(sh);
    return StepResult::kDidWork;
  }

 private:
  /// Cooperative crash at a task boundary. The egress queue stays OPEN: a
  /// failover feeds recovered emissions into it, and Stop() closes it for
  /// shards nobody recovers. `alive` flips last — barrier waiters and the
  /// failover poll it.
  StepResult Die(Shard& sh) {
    Flush(sh);
    sh.alive.store(false, std::memory_order_release);
    return StepResult::kDone;
  }

  /// Hands the emissions of every task applied since the last flush to the
  /// egress queue, then advances the applied floor to the last of those
  /// tasks. The floor advances only after the flush: everything at or
  /// under it is IN the egress queue and will reach the sink, so replay
  /// can suppress those records' emissions without losing results.
  void Flush(Shard& sh) {
    if (!sh.pending.empty()) {
      EgressItem item;
      item.results = std::move(sh.pending);
      sh.pending.clear();
      // Blocking enqueue: egress backpressure stalls this shard, not the
      // process (the egress thread always drains).
      sh.output->Enqueue(std::move(item));
    }
    if (unflushed_lsn_ == 0) return;
    sh.applied_lsn.store(unflushed_lsn_, std::memory_order_release);
    unflushed_lsn_ = 0;
    MaybeCheckpoint(sh);
  }

  void MaybeCheckpoint(Shard& sh) {
    ReplicationController<EngineCheckpoint>* rep = parent_->replication_.get();
    if (rep == nullptr) return;
    const uint64_t floor = sh.applied_lsn.load(std::memory_order_relaxed);
    if (!rep->ShouldCheckpoint(shard_, floor)) return;
    parent_->CheckpointShard(shard_, floor);
  }

  /// Emissions held before a mid-step flush: a task typically emits a few
  /// hundred, so this bounds what a backlogged step buffers to a few
  /// tasks' worth.
  static constexpr size_t kFlushEmissions = 1024;

  ShardedEngine* parent_;
  const size_t shard_;
  std::vector<ShardTask> scratch_;
  /// LSN of the last task applied but not yet flushed (0 = none).
  uint64_t unflushed_lsn_ = 0;
};

/// The merge/union half of the exchange: round-robins over every shard's
/// egress queue and hands emission batches to the engine sink in arrival
/// order. kDone once every shard closed its queue and nothing is left.
class ShardedEngine::EgressModule : public FjordModule {
 public:
  explicit EgressModule(ShardedEngine* parent)
      : FjordModule("shard-egress"), parent_(parent) {}

  StepResult Step(size_t max_items) override {
    bool any_work = false;
    bool all_exhausted = true;
    for (auto& shard : parent_->shards_) {
      scratch_.clear();
      const size_t n =
          shard->output->DequeueUpTo(max_items == 0 ? 1 : max_items,
                                     &scratch_);
      for (EgressItem& item : scratch_) {
        if (item.control) {
          item.control();
          continue;
        }
        if (parent_->sink_) parent_->sink_(std::move(item.results));
      }
      if (n > 0) any_work = true;
      if (!shard->output->Exhausted()) all_exhausted = false;
    }
    if (any_work) return StepResult::kDidWork;
    return all_exhausted ? StepResult::kDone : StepResult::kIdle;
  }

 private:
  ShardedEngine* parent_;
  std::vector<EgressItem> scratch_;
};

ShardedEngine::ShardedEngine() : ShardedEngine(Options()) {}

ShardedEngine::ShardedEngine(Options options)
    : options_(std::move(options)),
      inline_(options_.num_shards == 1 && options_.num_replicas == 0),
      partition_map_(std::max(options_.num_buckets, options_.num_shards),
                     options_.num_shards == 0 ? 1 : options_.num_shards) {
  TCQ_CHECK(options_.num_shards > 0);
  options_.num_replicas = std::min<size_t>(options_.num_replicas, 1);
  bucket_routed_.resize(partition_map_.num_buckets());
  if (!inline_) {
    MetricRegistry& r = MetricRegistry::Global();
    migrations_ = r.GetCounter("tcq.rebalance.migrations");
    moved_tuples_ = r.GetCounter("tcq.rebalance.moved_tuples");
    moved_bytes_ = r.GetCounter("tcq.rebalance.moved_bytes");
    buffered_tuples_ = r.GetCounter("tcq.rebalance.buffered_tuples");
    pause_us_ = r.GetHistogram("tcq.rebalance.pause_us");
    ha_checkpoints_ = r.GetCounter("tcq.ha.checkpoints");
    ha_changelog_bytes_ = r.GetCounter("tcq.ha.changelog_bytes");
    ha_failovers_ = r.GetCounter("tcq.ha.failovers");
    ha_replayed_tuples_ = r.GetCounter("tcq.ha.replayed_tuples");
    ha_suppressed_ = r.GetCounter("tcq.ha.suppressed_emissions");
    ha_torn_ = r.GetCounter("tcq.ha.torn_snapshots");
    ha_recovery_us_ = r.GetHistogram("tcq.ha.recovery_us");
    egress_waker_->MirrorTo(r.GetCounter("tcq.shard.egress.parks"),
                            r.GetCounter("tcq.shard.egress.woken_parks"));
  }
  shards_.reserve(options_.num_shards);
  for (size_t i = 0; i < options_.num_shards; ++i) {
    auto shard = std::make_unique<Shard>();
    CacqEngine::Options eo;
    eo.seed = options_.seed + i;  // Decorrelated exploration per shard.
    shard->engine = std::make_unique<CacqEngine>(eo);
    if (!inline_) {
      shard->output = std::make_unique<FjordQueue<EgressItem>>(
          ShardEdgeOptions(options_.egress_capacity, egress_waker_));
      MetricRegistry& r = MetricRegistry::Global();
      shard->waker->MirrorTo(r.GetCounter("tcq.shard", i, "parks"),
                             r.GetCounter("tcq.shard", i, "woken_parks"));
    }
    Shard* raw = shard.get();
    // Runs on the shard thread mid-InjectBatch; the worker flushes
    // `pending` into the egress queue once per step (inline: PushBatch
    // hands it to the sink).
    shard->engine->SetSink([raw](QueryId q, const Tuple& t) {
      raw->pending.emplace_back(q, t);
    });
    shards_.push_back(std::move(shard));
  }
  if (inline_) return;
  std::vector<QueueOptions> partitions;
  for (const auto& shard : shards_) {
    partitions.push_back(ShardEdgeOptions(options_.input_capacity,
                                          shard->waker));
  }
  input_ = std::make_unique<PartitionedQueue<ShardTask>>(partitions,
                                                         "tcq.shard");
  if (options_.num_replicas > 0) {
    ReplicationController<EngineCheckpoint>::Options ro;
    ro.checkpoint_interval = options_.checkpoint_interval;
    replication_ = std::make_unique<ReplicationController<EngineCheckpoint>>(
        options_.num_shards, ro);
    // Dual-routing: every data task is logged to the shard's changelog at
    // enqueue time, under the exchange's per-partition tee lock, so log
    // order IS queue order. The record gets the LSN stamped back onto the
    // task; the worker advances the applied floor as it processes them.
    // A query change takes the next LSN too, kept in its history record
    // (the tee runs on the AddQuery/RemoveQuery thread, under the shared
    // route lock), so a failover replays it at its place in the log.
    input_->SetTee([this](size_t p, ShardTask& task, size_t) {
      if (task.control) return;  // Barriers are not logged.
      ShardReplica<EngineCheckpoint>& log = replication_->replica(p);
      if (task.change) {
        task.lsn = log.Stamp();
        QueryRecord& rec = query_history_[task.change->query];
        (task.change->plan != nullptr ? rec.add_lsn : rec.remove_lsn)[p] =
            task.lsn;
        return;
      }
      task.lsn = log.Append(task.source, std::vector<Tuple>(task.tuples),
                            task.lane);
      size_t bytes = 0;
      for (const Tuple& t : task.tuples) {
        bytes += sizeof(Tuple) + t.arity() * sizeof(Value);
      }
      ha_changelog_bytes_->Add(bytes);
    });
  }
}

ShardedEngine::~ShardedEngine() { Stop(); }

Result<size_t> ShardedEngine::AddStream(const std::string& name,
                                        SchemaPtr schema,
                                        size_t partition_column) {
  if (started_ || stopped_) {
    return Status::FailedPrecondition(
        "streams must be declared before Start()");
  }
  if (partition_column >= schema->num_fields()) {
    return Status::OutOfRange("partition column out of range for " + name);
  }
  if (source_index_.count(name) != 0) {
    return Status::AlreadyExists("stream already declared: " + name);
  }
  size_t index = 0;
  for (auto& shard : shards_) {
    TCQ_ASSIGN_OR_RETURN(index, shard->engine->AddStream(name, schema));
  }
  const size_t mirror = layout_.AddSource(name, schema);
  TCQ_CHECK(mirror == index);
  source_index_[name] = index;
  if (sources_.size() <= index) sources_.resize(index + 1);
  sources_[index] = SourceInfo{name, partition_column, schema};
  return index;
}

void ShardedEngine::Start() {
  TCQ_CHECK(!started_ && !stopped_) << "ShardedEngine starts exactly once";
  TCQ_CHECK(!sources_.empty()) << "declare streams before Start()";
  started_ = true;
  if (inline_) return;
  shard_eos_.reserve(shards_.size());
  for (size_t i = 0; i < shards_.size(); ++i) {
    auto eo = std::make_unique<ExecutionObject>(
        "shard-" + std::to_string(i), ExecutionObject::Options(),
        shards_[i]->waker);
    eo->AddModule(std::make_shared<WorkerModule>(this, i));
    eo->Start();
    shard_eos_.push_back(std::move(eo));
  }
  egress_eo_ = std::make_unique<ExecutionObject>(
      "shard-egress", ExecutionObject::Options(), egress_waker_);
  egress_eo_->AddModule(std::make_shared<EgressModule>(this));
  egress_eo_->Start();
  if (options_.auto_rebalance) {
    controller_ = std::make_unique<RebalanceController>(
        &partition_map_, [this] { return ObserveLoad(); },
        [this](size_t bucket, size_t to) { return MigrateBucket(bucket, to); },
        options_.rebalance);
    controller_->Start();
  }
}

void ShardedEngine::Stop() {
  if (!started_ || stopped_) return;
  // The controller must stop before the exchange closes: a migration in
  // flight against closing queues would trip the control-enqueue checks.
  if (controller_ != nullptr) controller_->Stop();
  stopped_ = true;
  if (inline_) return;  // No threads to join.
  // Close the exchange; each live worker drains its queue, flushes
  // emissions, closes its egress queue and reports done. Join() waits for
  // that before stopping the thread — nothing in flight is dropped.
  input_->CloseAll();
  for (auto& eo : shard_eos_) {
    if (eo != nullptr) eo->Join();
  }
  // A worker that died via KillShard never closed its egress queue (a
  // failover would have fed recovered results into it). Close those now or
  // the egress module never sees end-of-stream.
  for (auto& shard : shards_) {
    if (!shard->alive.load(std::memory_order_acquire)) shard->output->Close();
  }
  egress_eo_->Join();
}

bool ShardedEngine::EnqueueControl(size_t i, std::function<void()> fn) {
  ShardTask task;
  task.control = std::move(fn);
  FjordQueue<ShardTask>& q = input_->partition(i);
  for (;;) {
    switch (q.TryEnqueue(task)) {
      case FjordQueue<ShardTask>::TryResult::kAccepted:
        return true;
      case FjordQueue<ShardTask>::TryResult::kClosed:
        return false;
      case FjordQueue<ShardTask>::TryResult::kFull:
        // A full queue with a live consumer drains; behind a dead one it
        // never would — give up (the caller abandons its barrier).
        if (!shards_[i]->alive.load(std::memory_order_acquire)) return false;
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        break;
    }
  }
}

Status ShardedEngine::WaitBarrier(
    const std::shared_ptr<ShardBarrier>& barrier,
    const std::vector<size_t>& targets) {
  std::unique_lock<std::mutex> lock(barrier->mu_);
  for (;;) {
    if (barrier->completed_ == targets.size()) return Status::OK();
    size_t dead = SIZE_MAX;
    for (size_t t : targets) {
      if (!barrier->done_[t] &&
          !shards_[t]->alive.load(std::memory_order_acquire)) {
        dead = t;
        break;
      }
    }
    if (dead != SIZE_MAX) {
      // The shard died with our closure still queued. Abandon the barrier
      // (late wrappers become no-ops) and wait out any closure mid-flight
      // on a live shard, so nothing touches the caller's frame after the
      // error return.
      barrier->abandoned_ = true;
      barrier->cv_.wait(lock, [&] { return barrier->executing_ == 0; });
      return Status::Unavailable(
          "shard " + std::to_string(dead) +
          "'s worker died before the control barrier; fail over the shard "
          "and retry");
    }
    // Poll: a kill can flip `alive` without ever waking this cv.
    barrier->cv_.wait_for(lock, std::chrono::milliseconds(1));
  }
}

Status ShardedEngine::RunOnAllShards(const std::function<void(size_t)>& fn) {
  if (inline_ || !started_ || stopped_) {
    for (size_t i = 0; i < shards_.size(); ++i) fn(i);
    return Status::OK();
  }
  auto barrier = std::make_shared<ShardBarrier>(fn, shards_.size());
  std::vector<size_t> targets;
  targets.reserve(shards_.size());
  for (size_t i = 0; i < shards_.size(); ++i) {
    if (!EnqueueControl(i, [barrier, i] { barrier->Run(i); })) {
      std::unique_lock<std::mutex> lock(barrier->mu_);
      barrier->abandoned_ = true;
      barrier->cv_.wait(lock, [&] { return barrier->executing_ == 0; });
      return Status::Unavailable(
          "shard " + std::to_string(i) +
          " is dead (or the engine stopped); fail over the shard and retry");
    }
    targets.push_back(i);
  }
  return WaitBarrier(barrier, targets);
}

Status ShardedEngine::RunOnShard(size_t i, const std::function<void()>& fn) {
  if (!started_ || stopped_) {
    fn();
    return Status::OK();
  }
  auto barrier = std::make_shared<ShardBarrier>([&fn](size_t) { fn(); },
                                                shards_.size());
  if (!EnqueueControl(i, [barrier, i] { barrier->Run(i); })) {
    return Status::Unavailable(
        "shard " + std::to_string(i) +
        " is dead (or the engine stopped); fail over the shard and retry");
  }
  return WaitBarrier(barrier, {i});
}

Status ShardedEngine::ValidatePartitioning(const CacqQueryPlan& plan) const {
  const SchemaPtr& schema = layout_.full_schema();
  for (const CacqQueryPlan::Join& j : plan.joins) {
    if (j.column_a - layout_.offset(j.source_a) !=
            sources_[j.source_a].partition_column ||
        j.column_b - layout_.offset(j.source_b) !=
            sources_[j.source_b].partition_column) {
      return Status::InvalidArgument(
          "equi-join " + schema->field(j.column_a).QualifiedName() + " = " +
          schema->field(j.column_b).QualifiedName() +
          " does not match the shard partition columns of its streams; "
          "matches would span shards (declare the streams partitioned on "
          "their join columns)");
    }
  }
  return Status::OK();
}

void ShardedEngine::ApplyChange(CacqEngine* engine,
                                const QueryChange& change) {
  if (change.plan == nullptr) {
    const Status removed = engine->RemoveQuery(change.query);
    TCQ_CHECK(removed.ok()) << removed.ToString();
    return;
  }
  const QueryId id = engine->InstallQuery(*change.plan);
  TCQ_CHECK(id == change.query) << "engine assigned a divergent QueryId";
}

Result<QueryId> ShardedEngine::AddQuery(const CacqQuerySpec& spec) {
  TCQ_ASSIGN_OR_RETURN(CacqQueryPlan plan,
                       CacqEngine::PlanQuery(layout_, spec));
  return AddQuery(std::move(plan));
}

Result<QueryId> ShardedEngine::AddQuery(CacqQueryPlan plan) {
  // Inline: one shard holds every key, so no join can span shards, and
  // with no standby there is no history to keep.
  if (inline_) return shards_[0]->engine->InstallQuery(plan);
  // Every error is found here, on the calling thread: installing the plan
  // on a shard cannot fail.
  TCQ_RETURN_NOT_OK(ValidatePartitioning(plan));
  std::lock_guard<std::mutex> registry(registry_mu_);
  std::shared_lock<std::shared_mutex> route(route_mu_);
  QueryChange change;
  change.query = static_cast<QueryId>(query_history_.size());
  change.plan = std::make_shared<const CacqQueryPlan>(std::move(plan));
  QueryRecord rec;
  rec.plan = change.plan;
  rec.add_lsn.assign(shards_.size(), 0);
  rec.remove_lsn.assign(shards_.size(), 0);
  query_history_.push_back(std::move(rec));
  TCQ_RETURN_NOT_OK(EnqueueChange(change));
  return change.query;
}

Status ShardedEngine::RemoveQuery(QueryId q) {
  if (inline_) return shards_[0]->engine->RemoveQuery(q);
  std::lock_guard<std::mutex> registry(registry_mu_);
  std::shared_lock<std::shared_mutex> route(route_mu_);
  if (q >= query_history_.size() || query_history_[q].removed) {
    return Status::NotFound("no such active query");
  }
  query_history_[q].removed = true;
  return EnqueueChange(QueryChange{q, nullptr});
}

Status ShardedEngine::EnqueueChange(const QueryChange& change) {
  if (!started_ || stopped_) {
    for (auto& shard : shards_) ApplyChange(shard->engine.get(), change);
    return Status::OK();
  }
  // The shared route lock (held by the caller) makes the change one atom
  // for FailoverShard, which reads the history under the exclusive lock:
  // it sees the change stamped on every shard, or not at all. Producers
  // that scatter after this returns queue behind the change everywhere.
  for (size_t p = 0; p < shards_.size(); ++p) {
    ShardTask task;
    task.change = change;
    if (!input_->EnqueuePartition(p, std::move(task), 0)) {
      return Status::Unavailable("engine stopped mid-registration");
    }
  }
  return Status::OK();
}

Status ShardedEngine::PushBatch(const std::string& stream,
                                std::vector<Tuple> batch, IngressLane lane) {
  if (!started_) {
    return Status::FailedPrecondition("Start() the engine before pushing");
  }
  if (stopped_) return Status::Unavailable("engine stopped");
  const auto it = source_index_.find(stream);
  if (it == source_index_.end()) {
    return Status::NotFound("unknown stream: " + stream);
  }
  if (batch.empty()) return Status::OK();
  const size_t source = it->second;
  if (inline_) {
    // No exchange: inject here and deliver before returning.
    Shard& sh = *shards_[0];
    sh.routed += batch.size();
    const Status st = sh.engine->InjectBatch(source, batch, lane);
    sh.processed += batch.size();
    if (!sh.pending.empty()) {
      // Delivered even after a failed inject: those rows were produced.
      // The sink may keep the storage; the next batch then starts at the
      // size this one reached instead of growing again.
      const size_t n = sh.pending.size();
      if (sink_) sink_(std::move(sh.pending));
      sh.pending.clear();
      sh.pending.reserve(n);
    }
    return st;
  }
  const size_t key_column = sources_[source].partition_column;
  // Scatter: group by bucket -> shard so each shard receives ONE exchange
  // task per producer batch (amortizing queue costs), in producer order —
  // per-key FIFO holds because one key always maps to one bucket and a
  // bucket has exactly one owner at a time. The shared route lock spans
  // the whole scatter: MigrateBucket's exclusive acquisition therefore
  // proves no producer straddles a pause edge (a scatter sees the bucket
  // either entirely before the pause or entirely paused).
  std::shared_lock<std::shared_mutex> route(route_mu_);
  std::vector<std::vector<Tuple>> groups(shards_.size());
  for (Tuple& t : batch) {
    const size_t bucket = partition_map_.BucketOf(t, key_column);
    // Live in every build (not TCQ_METRIC): the rebalance controller
    // plans from these, so they are adaptivity state, not observation.
    bucket_routed_[bucket].Add(1);
    if (bucket == migrating_bucket_) {
      // Paused for migration: park in producer order; MigrateBucket
      // replays the buffer to the new owner before unpausing.
      std::lock_guard<std::mutex> lock(buffer_mu_);
      move_buffer_.push_back(ParkedTuple{source, std::move(t), lane});
      TCQ_METRIC(buffered_tuples_->Add(1));
      continue;
    }
    groups[partition_map_.ShardOf(bucket)].push_back(std::move(t));
  }
  for (size_t p = 0; p < groups.size(); ++p) {
    if (groups[p].empty()) continue;
    ShardTask task;
    task.source = source;
    task.tuples = std::move(groups[p]);
    task.lane = lane;
    const size_t count = task.tuples.size();
    if (!input_->EnqueuePartition(p, std::move(task), count)) {
      return Status::Unavailable("engine stopped mid-scatter");
    }
    shards_[p]->routed += count;
  }
  TCQ_METRIC(input_->RefreshDepthStats());
  return Status::OK();
}

Status ShardedEngine::Push(const std::string& stream, Tuple tuple,
                           IngressLane lane) {
  std::vector<Tuple> one;
  one.push_back(std::move(tuple));
  return PushBatch(stream, std::move(one), lane);
}

Status ShardedEngine::Quiesce() {
  if (inline_ || !started_ || stopped_) return Status::OK();
  // Serialize against migrations first: a migration in flight may hold
  // tuples in the pause buffer, which the barriers below cannot see. Once
  // migrate_mu_ is ours the buffer is empty and everything is in queues.
  std::unique_lock<std::mutex> mig(migrate_mu_);
  // Phase 1: a control barrier behind all data on every shard queue —
  // when it fires, every prior tuple has been executed and its emissions
  // flushed into the egress queues. Surfaces Unavailable instead of
  // hanging when a shard's worker has died (fail over, then retry).
  TCQ_RETURN_NOT_OK(RunOnAllShards([](size_t) {}));
  // Phase 2: a barrier behind those emissions on every egress queue —
  // when it fires, the sink has seen everything. The egress thread cannot
  // die, so the plain latch is safe here. The wait drops migrate_mu_: a
  // sink may run callbacks that add or remove queries, which take it.
  Latch latch(shards_.size());
  for (auto& shard : shards_) {
    EgressItem item;
    item.control = [&latch] { latch.CountDown(); };
    const bool ok = shard->output->Enqueue(std::move(item));
    TCQ_CHECK(ok) << "egress barrier on a stopped engine";
  }
  mig.unlock();
  latch.Wait();
  return Status::OK();
}

void ShardedEngine::EvictBefore(Timestamp ts) {
  // Serialized with migrations so in-transit extracted state (which an
  // all-shards eviction barrier would never visit) can't dodge a window
  // eviction and get installed stale on the recipient.
  std::lock_guard<std::mutex> mig(migrate_mu_);
  const Status st = RunOnAllShards([this, ts](size_t i) {
    shards_[i]->engine->EvictBefore(ts);
    // Eviction changed state outside the logged data path: re-snapshot so
    // a failover can't resurrect evicted entries from an older checkpoint
    // plus the changelog.
    if (replication_ != nullptr) {
      CheckpointShard(i,
                      shards_[i]->applied_lsn.load(std::memory_order_relaxed));
    }
  });
  if (!st.ok()) {
    TCQ_LOG(Warn) << "EvictBefore skipped a dead shard: " << st.ToString();
  }
}

Status ShardedEngine::KillShard(size_t shard) {
  if (!started_) {
    return Status::FailedPrecondition("Start() the engine before killing");
  }
  if (stopped_) return Status::Unavailable("engine stopped");
  if (shard >= shards_.size()) return Status::OutOfRange("shard out of range");
  if (inline_) {
    return Status::FailedPrecondition(
        "inline engine (one shard, no standby) has no worker to kill");
  }
  shards_[shard]->kill.store(true, std::memory_order_release);
  shards_[shard]->waker->Wake();  // A parked worker notices at once.
  return Status::OK();
}

void ShardedEngine::DrainDeadInput(size_t shard) {
  FjordQueue<ShardTask>& q = input_->partition(shard);
  std::vector<ShardTask> tasks;
  for (;;) {
    tasks.clear();
    if (q.DequeueUpTo(64, &tasks) == 0) return;
    for (ShardTask& t : tasks) {
      // Stale barrier wrappers only count down their (abandoned) barriers:
      // every barrier op holds migrate_mu_, the failover holds it now, so
      // none of them can still have a live waiter. Data tasks and query
      // changes are dropped — each is in the changelog or the query
      // history and will be replayed.
      if (t.control) t.control();
    }
  }
}

void ShardedEngine::DrainDeadInputs() {
  for (size_t i = 0; i < shards_.size(); ++i) {
    // Only queues whose worker has EXITED: a killed-but-live worker may
    // still be applying tasks and advancing the floor, and a concurrent
    // drain could drop records under it — records whose emissions the
    // floor then falsely claims are in the egress queue. Death is at most
    // one Step away once the kill flag is up, so waiting for it keeps the
    // acquisition loops live.
    if (!shards_[i]->alive.load(std::memory_order_acquire)) {
      DrainDeadInput(i);
    }
  }
}

void ShardedEngine::LockRoutesForUpdate(
    std::unique_lock<std::shared_mutex>& route) {
  for (;;) {
    DrainDeadInputs();
    if (route.try_lock()) return;
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
}

void ShardedEngine::CheckpointShard(size_t shard, uint64_t floor) {
  EngineCheckpoint ckpt = shards_[shard]->engine->CheckpointState();
  if (replication_->StoreSnapshot(shard, floor, std::move(ckpt))) {
    ha_checkpoints_->Add(1);
  } else {
    ha_torn_->Add(1);
  }
}

Status ShardedEngine::FailoverShard(size_t shard) {
  if (!started_) {
    return Status::FailedPrecondition("Start() the engine before failover");
  }
  if (stopped_) return Status::Unavailable("engine stopped");
  if (shard >= shards_.size()) return Status::OutOfRange("shard out of range");
  if (replication_ == nullptr) {
    return Status::FailedPrecondition(
        "no standby replicas (set Options::num_replicas)");
  }
  Shard& sh = *shards_[shard];
  if (!sh.kill.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition(
        "primary still alive (KillShard first)");
  }
  const auto t0 = std::chrono::steady_clock::now();
  // Serialized with migrations and barriers (and, through the route lock
  // below, with query changes): nobody may mutate routing, registrations
  // or engine state mid-promotion.
  std::lock_guard<std::mutex> mig(migrate_mu_);
  // 1. Wait for the worker to observe the kill at its next task boundary
  // and exit (it polls the flag every step, even when idle), then reap it.
  while (sh.alive.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  shard_eos_[shard]->Join();
  shard_eos_[shard].reset();
  // 2. Take the route lock exclusively while keeping the dead queue
  // drained. A producer or query change holding the shared lock can only
  // be blocked on a live shard's queue, which drains, or on the full queue
  // this drain empties, so alternating try-lock with drain always
  // terminates; after the final drain under the exclusive lock the
  // partition is quiescent and the changelog plus the query history are
  // the complete record of every unapplied task.
  std::unique_lock<std::shared_mutex> route(route_mu_, std::defer_lock);
  LockRoutesForUpdate(route);
  DrainDeadInput(shard);
  // 3. Recover a standby: the registry as of the newest valid snapshot's
  // floor, the snapshot, then the changelog tail with every later query
  // change applied at its LSN — a query sees exactly the records after
  // its add and before its removal, as on the primary. Records at or
  // under the primary's applied floor rebuild SteM state but their
  // emissions are SUPPRESSED — the primary flushed those results into the
  // egress queue before advancing the floor, and the egress queue always
  // drains, so they reach the sink exactly once. Records above the floor
  // are the lost work: their emissions flow and they count as processed.
  auto plan = replication_->replica(shard).MakeRecoveryPlan();
  std::unique_ptr<CacqEngine> standby = BuildStandby(shard);
  // Every query change the shard stamped, in LSN order. QueryIds are
  // assigned by install order, and adds are stamped in history order, so
  // the standby agrees with every primary, ids of removed queries
  // included. The stable sort keeps an add before a removal stamped with
  // it before Start (LSN 0).
  std::vector<std::pair<uint64_t, QueryChange>> changes;
  for (size_t q = 0; q < query_history_.size(); ++q) {
    const QueryRecord& rec = query_history_[q];
    const auto id = static_cast<QueryId>(q);
    changes.emplace_back(rec.add_lsn[shard], QueryChange{id, rec.plan});
    if (rec.removed) {
      changes.emplace_back(rec.remove_lsn[shard], QueryChange{id, nullptr});
    }
  }
  std::stable_sort(
      changes.begin(), changes.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  uint64_t tail_lsn = plan.snapshot_floor;
  size_t next_change = 0;
  auto apply_changes_below = [&](uint64_t lsn) {
    for (; next_change < changes.size() && changes[next_change].first < lsn;
         ++next_change) {
      ApplyChange(standby.get(), changes[next_change].second);
      tail_lsn = std::max(tail_lsn, changes[next_change].first);
    }
  };
  // The registry the snapshot's lineage bits were made under.
  apply_changes_below(plan.snapshot_floor + 1);
  if (plan.has_snapshot) {
    const Status restored = standby->RestoreCheckpoint(plan.snapshot);
    TCQ_CHECK(restored.ok()) << "standby restore failed: "
                             << restored.ToString();
  }
  const uint64_t applied = sh.applied_lsn.load(std::memory_order_acquire);
  std::vector<Emission> recovered;
  std::vector<Emission> scratch;
  standby->SetSink([&scratch](QueryId q, const Tuple& t) {
    scratch.emplace_back(q, t);
  });
  uint64_t replayed = 0;
  uint64_t suppressed = 0;
  for (const auto& rec : plan.tail) {
    apply_changes_below(rec.lsn);
    scratch.clear();
    const Status st = standby->InjectBatch(rec.source, rec.tuples, rec.lane);
    TCQ_CHECK(st.ok()) << "changelog replay failed: " << st.ToString();
    replayed += rec.tuples.size();
    tail_lsn = rec.lsn;
    if (rec.lsn > applied) {
      sh.processed += rec.tuples.size();
      recovered.insert(recovered.end(),
                       std::make_move_iterator(scratch.begin()),
                       std::make_move_iterator(scratch.end()));
    } else {
      suppressed += scratch.size();
    }
  }
  apply_changes_below(UINT64_MAX);
  if (!recovered.empty()) {
    EgressItem item;
    item.results = std::move(recovered);
    const bool ok = sh.output->Enqueue(std::move(item));
    TCQ_CHECK(ok) << "egress enqueue during failover";
  }
  // 4. Promote: the standby becomes the primary (pointer swap guarded
  // against cross-thread introspection), and the replica store is reseeded
  // from the promoted state so a second failure recovers from here, not
  // from the dead engine's history.
  {
    std::lock_guard<std::mutex> elock(sh.engine_mu);
    sh.engine = std::move(standby);
  }
  Shard* raw = &sh;
  sh.engine->SetSink([raw](QueryId q, const Tuple& t) {
    raw->pending.emplace_back(q, t);
  });
  sh.applied_lsn.store(tail_lsn, std::memory_order_release);
  // Direct store, bypassing the torn-fault hook: this snapshot is
  // load-bearing for the next failover, not a cadence checkpoint.
  replication_->replica(shard).StoreSnapshot(
      tail_lsn, sh.engine->CheckpointState(), /*valid=*/true);
  ha_checkpoints_->Add(1);
  // 5. Resume: a fresh worker on the (drained) input queue. Producers
  // unblock as soon as the route lock releases.
  sh.kill.store(false, std::memory_order_release);
  sh.alive.store(true, std::memory_order_release);
  // The fresh EO parks on the shard's waker — the one the input partition
  // has woken all along.
  auto eo = std::make_unique<ExecutionObject>(
      "shard-" + std::to_string(shard), ExecutionObject::Options(), sh.waker);
  eo->AddModule(std::make_shared<WorkerModule>(this, shard));
  eo->Start();
  shard_eos_[shard] = std::move(eo);
  route.unlock();
  const auto elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
  ha_failovers_->Add(1);
  ha_replayed_tuples_->Add(replayed);
  ha_suppressed_->Add(suppressed);
  ha_recovery_us_->Record(static_cast<uint64_t>(elapsed));
  return Status::OK();
}

std::unique_ptr<CacqEngine> ShardedEngine::BuildStandby(size_t shard) const {
  // Same construction as the primary (same seed — routing invariance makes
  // replayed results match the primary's multiset).
  CacqEngine::Options eo;
  eo.seed = options_.seed + shard;
  auto engine = std::make_unique<CacqEngine>(eo);
  for (const SourceInfo& src : sources_) {
    const auto added = engine->AddStream(src.name, src.schema);
    TCQ_CHECK(added.ok()) << added.status().ToString();
  }
  return engine;
}

void ShardedEngine::ResumeBucket(size_t final_owner) {
  std::unique_lock<std::shared_mutex> route(route_mu_, std::defer_lock);
  LockRoutesForUpdate(route);
  partition_map_.SetOwner(migrating_bucket_, final_owner);
  migrating_bucket_ = SIZE_MAX;
  std::vector<ParkedTuple> buffered;
  {
    std::lock_guard<std::mutex> lock(buffer_mu_);
    buffered.swap(move_buffer_);
  }
  // Group contiguous same-(source, lane) runs into tasks (source order
  // between producers is whatever the race produced, same as live scatter).
  size_t i = 0;
  while (i < buffered.size()) {
    ShardTask task;
    task.source = buffered[i].source;
    task.lane = buffered[i].lane;
    while (i < buffered.size() && buffered[i].source == task.source &&
           buffered[i].lane == task.lane) {
      task.tuples.push_back(std::move(buffered[i].tuple));
      ++i;
    }
    const size_t count = task.tuples.size();
    // The replay must NEVER block: we hold migrate_mu_, which FailoverShard
    // needs before it can drain a dead shard's full queue — a blocking
    // enqueue here could deadlock the recovery path. We are the only
    // enqueuer on this partition (exclusive route lock + migrate_mu_), so
    // logging once here and retrying a raw non-blocking enqueue preserves
    // changelog-order == queue-order.
    if (replication_ != nullptr) {
      task.lsn = replication_->replica(final_owner)
                     .Append(task.source, std::vector<Tuple>(task.tuples),
                             task.lane);
    }
    shards_[final_owner]->routed += count;
    FjordQueue<ShardTask>& q = input_->partition(final_owner);
    for (bool queued = false; !queued;) {
      switch (q.TryEnqueue(task)) {
        case FjordQueue<ShardTask>::TryResult::kAccepted:
          queued = true;
          break;
        case FjordQueue<ShardTask>::TryResult::kClosed:
          TCQ_LOG(Warn) << "pause-buffer replay hit a closed queue; " << count
                        << " tuples dropped mid-shutdown";
          return;
        case FjordQueue<ShardTask>::TryResult::kFull:
          if (!shards_[final_owner]->alive.load(std::memory_order_acquire)) {
            // Dead owner, full queue. With replication the record is in
            // the changelog above the applied floor — the failover replays
            // it. Without replication it is lost, like everything else on
            // a killed shard.
            if (replication_ == nullptr) {
              TCQ_LOG(Warn) << "pause-buffer replay dropped " << count
                            << " tuples on dead shard " << final_owner;
            }
            queued = true;
            break;
          }
          std::this_thread::sleep_for(std::chrono::microseconds(50));
          break;
      }
    }
  }
}

Status ShardedEngine::MigrateBucket(size_t bucket, size_t to_shard) {
  if (!started_) {
    return Status::FailedPrecondition("Start() the engine before migrating");
  }
  if (stopped_) return Status::Unavailable("engine stopped");
  if (bucket >= partition_map_.num_buckets()) {
    return Status::OutOfRange("bucket out of range");
  }
  if (to_shard >= shards_.size()) {
    return Status::OutOfRange("shard out of range");
  }
  std::lock_guard<std::mutex> registry(registry_mu_);
  std::lock_guard<std::mutex> mig(migrate_mu_);
  const size_t from = partition_map_.ShardOf(bucket);
  if (from == to_shard) return Status::OK();

  const auto pause_start = std::chrono::steady_clock::now();
  // 1. Pause: mark the bucket under the exclusive route lock. From here no
  // producer can scatter the bucket's tuples to any shard queue — new
  // arrivals park in move_buffer_ instead.
  {
    std::unique_lock<std::shared_mutex> route(route_mu_, std::defer_lock);
    LockRoutesForUpdate(route);
    migrating_bucket_ = bucket;
  }
  // 2. Drain + extract: the closure rides the donor's queue behind every
  // task scattered before the pause, so when it runs, all of the bucket's
  // in-flight tuples have been injected. It then lifts the bucket's SteM
  // state off the donor, on the donor's own thread. A dead donor aborts
  // the migration with the bucket still owned by it (its state — and this
  // bucket's share of it — recovers through the failover path instead).
  BucketState state;
  const Status drained = RunOnShard(from, [&] {
    state = shards_[from]->engine->ExtractBucketState(
        bucket, [this, bucket](const Value& key) {
          return partition_map_.BucketOf(key) == bucket;
        });
    // The donor shrank outside the logged data path: re-snapshot so a
    // donor failover can't resurrect the extracted bucket.
    if (replication_ != nullptr) {
      CheckpointShard(from,
                      shards_[from]->applied_lsn.load(
                          std::memory_order_relaxed));
    }
  });
  if (!drained.ok()) {
    ResumeBucket(from);
    return drained;
  }
  // 3. Install on the recipient's thread. Installation failure means the
  // shard engines diverged (can't happen through this class's API); a dead
  // recipient aborts the move. Either way the state is put back on the
  // donor so nothing is lost.
  Status install;
  const Status install_barrier = RunOnShard(to_shard, [&] {
    install = shards_[to_shard]->engine->InstallBucketState(state);
    if (install.ok() && replication_ != nullptr) {
      CheckpointShard(to_shard,
                      shards_[to_shard]->applied_lsn.load(
                          std::memory_order_relaxed));
    }
  });
  if (!install_barrier.ok()) install = install_barrier;
  if (!install.ok()) {
    const Status undo = RunOnShard(from, [&] {
      const Status u = shards_[from]->engine->InstallBucketState(state);
      TCQ_CHECK(u.ok()) << "rollback reinstall failed: " << u.ToString();
      if (replication_ != nullptr) {
        CheckpointShard(from,
                        shards_[from]->applied_lsn.load(
                            std::memory_order_relaxed));
      }
    });
    if (!undo.ok()) {
      // Double fault: the donor died too, between the extract and the
      // rollback. The extracted entries miss both engines' checkpoints —
      // this is the process-pair model's documented blind spot (both
      // members of the pair failing inside one protocol step).
      TCQ_LOG(Error) << "bucket " << bucket
                     << " rollback hit a dead donor; extracted state ("
                     << state.tuple_count() << " tuples) lost: "
                     << undo.ToString();
    }
  }
  const size_t final_owner = install.ok() ? to_shard : from;
  // 4. Flip + resume: still under the exclusive route lock, retarget the
  // bucket and replay the paused arrivals to the final owner IN ORDER —
  // producers stay blocked until the replay is enqueued, so no fresh
  // scatter can overtake the buffer (per-key FIFO holds across the move).
  ResumeBucket(final_owner);
  const auto pause_us = std::chrono::duration_cast<std::chrono::microseconds>(
                            std::chrono::steady_clock::now() - pause_start)
                            .count();
  TCQ_METRIC(pause_us_->Record(static_cast<uint64_t>(pause_us)));
  if (!install.ok()) return install;
  migrations_->Add(1);
  moved_tuples_->Add(state.tuple_count());
  moved_bytes_->Add(state.approx_bytes());
  return Status::OK();
}

RebalanceController::Load ShardedEngine::ObserveLoad() const {
  RebalanceController::Load load;
  load.shard_backlog.resize(shards_.size());
  for (size_t i = 0; i < shards_.size(); ++i) {
    // Backlog in tuples: scattered minus injected. Counter reads are
    // relaxed, so a torn view can transiently "underflow" — clamp to 0.
    const uint64_t routed = shards_[i]->routed;
    const uint64_t processed = shards_[i]->processed;
    load.shard_backlog[i] =
        routed > processed ? static_cast<size_t>(routed - processed) : 0;
  }
  load.bucket_routed.resize(bucket_routed_.size());
  for (size_t b = 0; b < bucket_routed_.size(); ++b) {
    load.bucket_routed[b] = bucket_routed_[b].value();
  }
  return load;
}

ShardedEngine::RebalanceStats ShardedEngine::rebalance_stats() const {
  RebalanceStats s;
  if (inline_) return s;
  s.migrations = migrations_->value();
  s.moved_tuples = moved_tuples_->value();
  s.moved_bytes = moved_bytes_->value();
  s.buffered_tuples = buffered_tuples_->value();
  return s;
}

std::vector<ShardedEngine::ReplicaStats> ShardedEngine::replica_stats() const {
  std::vector<ReplicaStats> out;
  if (replication_ == nullptr) return out;
  out.reserve(shards_.size());
  for (size_t i = 0; i < shards_.size(); ++i) {
    const auto s = replication_->replica(i).stats();
    ReplicaStats r;
    r.alive = shards_[i]->alive.load(std::memory_order_acquire);
    r.applied_lsn = shards_[i]->applied_lsn.load(std::memory_order_acquire);
    r.logged_lsn = s.next_lsn;
    r.snapshot_floor = s.snapshot_floor;
    r.changelog_records = s.log_records;
    r.changelog_bytes = s.log_bytes;
    r.checkpoints = s.checkpoints;
    r.torn_rejected = s.torn_rejected;
    out.push_back(r);
  }
  return out;
}

ShardedEngine::HaStats ShardedEngine::ha_stats() const {
  HaStats s;
  if (inline_) return s;
  s.checkpoints = ha_checkpoints_->value();
  s.failovers = ha_failovers_->value();
  s.replayed_tuples = ha_replayed_tuples_->value();
  s.suppressed_emissions = ha_suppressed_->value();
  return s;
}

std::vector<ShardedEngine::ShardStats> ShardedEngine::shard_stats() const {
  std::vector<ShardStats> out;
  out.reserve(shards_.size());
  for (size_t i = 0; i < shards_.size(); ++i) {
    ShardStats s;
    s.routed = shards_[i]->routed;
    s.processed = shards_[i]->processed;
    s.queue_depth = inline_ ? 0 : input_->partition(i).Size();
    s.parks = shards_[i]->waker->parks();
    s.woken_parks = shards_[i]->waker->woken_parks();
    // The engine pointer swaps during a failover promotion; the eddy
    // counters themselves are relaxed atomics.
    std::lock_guard<std::mutex> elock(shards_[i]->engine_mu);
    s.eddy_decisions = shards_[i]->engine->eddy().decisions();
    s.eddy_emitted = shards_[i]->engine->eddy().emitted();
    out.push_back(s);
  }
  return out;
}

}  // namespace tcq
