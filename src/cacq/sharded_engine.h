#ifndef TCQ_CACQ_SHARDED_ENGINE_H_
#define TCQ_CACQ_SHARDED_ENGINE_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <utility>
#include <vector>

#include "cacq/engine.h"
#include "eddy/routed_tuple.h"
#include "fjords/partitioned_queue.h"
#include "fjords/scheduler.h"
#include "flux/changelog.h"
#include "flux/partition.h"
#include "flux/rebalance.h"

namespace tcq {

/// Sharded parallel CACQ execution (§3, Fig. 4-5): N worker shards, each
/// owning a full CacqEngine — its own eddy, grouped filters and SteM
/// partitions — on its own ExecutionObject thread, fed by a real-threads
/// exchange that hash-partitions input on each stream's partition column
/// (the Flux routing policy, flux/partition.h), with an egress stage that
/// unions shard outputs back into one delivery order.
///
/// Correctness contract (DESIGN.md §11):
///  * Every query is registered on every shard in the same order, so
///    QueryIds agree across shards and each shard runs the same plan over
///    its key partition. Grouped filters and residuals are key-oblivious,
///    so partitioning them is trivially correct; SteM joins are correct
///    because both sides of every equi-join must be partitioned on their
///    join columns (AddQuery rejects anything else), making matches
///    shard-local exactly as in Flux.
///  * Per-shard FIFO: tuples with equal partition keys traverse one shard
///    in arrival order. Cross-shard output order is NOT defined — results
///    are a multiset equal to single-shard execution, in exchange order.
///  * Query changes (AddQuery/RemoveQuery) are tasks in the same per-shard
///    queues as data: the caller validates and enqueues them without
///    waiting, and each shard applies them at their place in its queue.
///    Barriers (EvictBefore/Quiesce/migration) ride the queues too and
///    run on the shard thread after everything enqueued before them (the
///    actor model), so no engine state is ever touched from two threads.
///  * Routing is dynamic: keys hash into fixed buckets and a PartitionMap
///    maps buckets to shards. MigrateBucket (manual, or driven by the
///    auto-rebalance controller) moves a bucket's SteM state between
///    shards mid-stream with a pause/drain/move/resume protocol that
///    preserves per-key FIFO and the result multiset (DESIGN.md §12).
///
/// Inline mode: with one shard and no standby (num_shards == 1 and
/// num_replicas == 0) there is nothing to exchange, so the engine starts
/// no threads and builds no queues. PushBatch injects into shard 0 and
/// hands its emissions to the sink before returning, on the caller's
/// thread; AddQuery/RemoveQuery/EvictBefore call shard 0 directly;
/// Quiesce is a no-op. Calls must then be serialized by the caller, as
/// for a bare CacqEngine.
class ShardedEngine {
 public:
  struct Options {
    /// 1 (with num_replicas == 0) runs the engine inline; see above.
    size_t num_shards = 4;
    /// Routing policy + base seed for the per-shard eddies (shard i uses
    /// seed + i). Routing invariance makes results independent of this.
    std::string policy = "lottery";
    uint64_t seed = 7;
    /// Bounded exchange queues, in tasks (one task = one same-stream
    /// scatter group, up to a whole producer batch). Blocking producer
    /// ends give backpressure; consumers never block in the queue (the EO
    /// parks on its waker, which every enqueue wakes).
    size_t input_capacity = 256;
    size_t egress_capacity = 1024;
    /// Hash buckets in the PartitionMap (the migration granule). More
    /// buckets = finer-grained rebalancing at the cost of a larger routing
    /// table; must be >= num_shards to give every shard at least one.
    size_t num_buckets = 64;
    /// Spins a RebalanceController on Start() that watches shard backlog
    /// and migrates buckets automatically. Manual MigrateBucket() works
    /// either way.
    bool auto_rebalance = false;
    RebalanceController::Options rebalance;
    Eddy::Options eddy;
    /// Standby replicas per shard (Flux process pairs, §5 / DESIGN.md
    /// §13). 0 = no fault tolerance (a killed shard loses state); 1 keeps
    /// for each shard a changelog of dual-routed records and periodic
    /// state checkpoints, from which FailoverShard builds and promotes a
    /// standby. Values above 1 are clamped to 1.
    size_t num_replicas = 0;
    /// Applied exchange tasks between standby checkpoints (the hydra
    /// changelog-plus-snapshot cadence). Smaller = shorter replay tails
    /// and faster failover, at more state-copy cost per task.
    uint64_t checkpoint_interval = 32;
  };

  ShardedEngine();
  explicit ShardedEngine(Options options);
  ~ShardedEngine();  // Stops and joins all shard threads.

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  /// Declares a stream on every shard. `partition_column` is the column
  /// the exchange hashes on (the join/group key; defaults to column 0).
  /// Streams must be declared before Start() and before any query.
  Result<size_t> AddStream(const std::string& name, SchemaPtr schema,
                           size_t partition_column = 0);

  /// One emission from one shard: (query, full-width result tuple).
  using Emission = std::pair<QueryId, Tuple>;
  /// Delivery callback, invoked on the egress thread with batches of
  /// emissions in shard-output order (inline: on the pushing thread, once
  /// per PushBatch, in emission order). Must be set before Start(). It
  /// must not Quiesce or migrate (both wait for the egress thread). An
  /// AddQuery, RemoveQuery or push from it waits for room in every target
  /// shard's input queue (and AddQuery/RemoveQuery for a migration in
  /// flight), so it must not run while a shard is blocked on a full
  /// egress queue.
  using Sink = std::function<void(std::vector<Emission>&&)>;
  void SetSink(Sink sink) { sink_ = std::move(sink); }

  /// Launches shard + egress threads (none inline). Requires at least one
  /// stream.
  void Start();

  /// Closes the exchange, drains every shard and egress to completion,
  /// then joins all threads. Idempotent. Pushes after Stop() fail.
  void Stop();

  /// Full-pipeline barrier: returns OK once everything pushed before the
  /// call has been routed, executed and delivered through the sink.
  /// Returns Unavailable (instead of hanging forever on a control
  /// barrier nobody will run) when a shard's worker thread has died —
  /// fail over the shard, then barrier again. Must not race with Stop().
  Status Quiesce();

  // ---- Process-pair HA (DESIGN.md §13) ----

  /// Requests the shard's worker thread to die at its next task boundary
  /// (the crash model the recovery protocol is built for: a batch is
  /// either fully applied and its emissions flushed, or untouched).
  /// Asynchronous — the worker observes the flag at its next step; use
  /// shard_alive() or FailoverShard() to synchronize. Without standby
  /// replicas the shard's state and queued work are simply lost (barriers
  /// then surface errors; see Quiesce). An inline engine has no worker to
  /// kill: FailedPrecondition.
  Status KillShard(size_t shard);

  /// Detects the dead primary, promotes a standby and resumes routing:
  /// waits for the killed worker to exit, drains the dead input queue
  /// (releasing blocked producers and stale barrier closures), builds a
  /// standby registered with every query added at or below the newest
  /// valid checkpoint's floor, restores that checkpoint into it, replays
  /// the changelog tail with the later query changes at their LSNs —
  /// suppressing emissions for records the primary already applied (the
  /// seq-floor dedup at the egress union; zero lost, zero duplicated
  /// results) — re-checkpoints, and starts a fresh worker. Requires
  /// Options::num_replicas > 0 and a prior KillShard. Serialized with
  /// migrations/barriers; must not race with Stop().
  Status FailoverShard(size_t shard);

  /// False once the shard's worker observed a kill and exited, true again
  /// after FailoverShard promotes the standby.
  bool shard_alive(size_t shard) const {
    return shards_[shard]->alive.load(std::memory_order_acquire);
  }

  /// Registers `spec` on every shard (identical QueryId on each, returned
  /// here). Callable while running: the query is planned and validated on
  /// the calling thread, then enqueued on every shard's input queue and
  /// applied there in queue order, so it sees exactly the tuples scattered
  /// after this returns. It does not wait for the shards, only for queue
  /// room (like a push), also on a killed shard that a failover will
  /// recover. With standbys each shard stamps the change with its
  /// changelog LSN, and a failover replays it at that place. Errors are
  /// synchronous: rejects equi-joins whose join columns are not the
  /// partition columns of their streams — such a join would need
  /// cross-shard matches — and whatever CacqEngine::PlanQuery rejects.
  /// AddQuery/RemoveQuery calls must be serialized by the caller (the
  /// Server's submission lock does): two racing registrations could
  /// interleave differently per shard and diverge the QueryIds.
  Result<QueryId> AddQuery(const CacqQuerySpec& spec);
  /// The same for a plan already made against this engine's layout
  /// (CacqEngine::PlanQuery, or the server's analysis).
  Result<QueryId> AddQuery(CacqQueryPlan plan);

  /// Unregisters `q` on every shard, the same way: NotFound at once for an
  /// unknown or removed query, otherwise enqueued without waiting. The
  /// shards keep emitting `q`'s results for tuples scattered before this
  /// call; the lineage scrub runs later, on each shard's thread.
  Status RemoveQuery(QueryId q);

  /// Scatters a same-stream batch across the shards by partition column
  /// (one exchange task per non-empty shard). Blocks for queue space
  /// (backpressure). Requires Start(). `lane` selects which consistency
  /// level's queries see the batch (kAll = every query — the classic
  /// single-feed path).
  Status PushBatch(const std::string& stream, std::vector<Tuple> batch,
                   IngressLane lane = IngressLane::kAll);
  Status Push(const std::string& stream, Tuple tuple,
              IngressLane lane = IngressLane::kAll);

  /// Evicts SteM state older than `ts` on every shard (barriered).
  void EvictBefore(Timestamp ts);

  /// Moves one bucket's state to `to_shard` while data flows (Flux §2.4;
  /// DESIGN.md §12): pause the bucket (new arrivals buffer), drain the
  /// donor behind everything already scattered, extract the bucket's SteM
  /// state on the donor thread, install it on the recipient thread, flip
  /// the PartitionMap entry, replay the buffer to the recipient, resume.
  /// Per-key FIFO and the result multiset are preserved; tuples are
  /// neither lost nor duplicated. Serialized against other migrations,
  /// Quiesce, RemoveQuery and EvictBefore; a no-op if the bucket already
  /// lives on `to_shard`. Requires Start(); must not race with Stop().
  Status MigrateBucket(size_t bucket, size_t to_shard);

  const PartitionMap& partition_map() const { return partition_map_; }
  /// Non-null iff Options::auto_rebalance (valid between Start and Stop).
  RebalanceController* rebalance_controller() { return controller_.get(); }

  /// Cross-thread-safe migration statistics (tcq.rebalance.* views).
  struct RebalanceStats {
    uint64_t migrations = 0;    ///< Completed bucket moves.
    uint64_t moved_tuples = 0;  ///< SteM entries moved across shards.
    uint64_t moved_bytes = 0;   ///< Approximate payload of those entries.
    uint64_t buffered_tuples = 0;  ///< Arrivals parked during pauses.
  };
  RebalanceStats rebalance_stats() const;

  /// Cross-thread-safe per-shard replication state (tcq.ha.* views +
  /// Server::SnapshotMetrics replica rows). Empty when replication is off.
  struct ReplicaStats {
    bool alive = true;
    uint64_t applied_lsn = 0;     ///< Last task the primary fully applied.
    uint64_t logged_lsn = 0;      ///< Last record appended to the log.
    uint64_t snapshot_floor = 0;  ///< Records <= floor live in the snapshot.
    size_t changelog_records = 0;
    size_t changelog_bytes = 0;
    uint64_t checkpoints = 0;
    uint64_t torn_rejected = 0;  ///< Snapshots rejected as torn.
  };
  std::vector<ReplicaStats> replica_stats() const;

  /// Cumulative HA event counts (tcq.ha.* counters).
  struct HaStats {
    uint64_t checkpoints = 0;  ///< Snapshots accepted, all shards.
    uint64_t failovers = 0;
    uint64_t replayed_tuples = 0;        ///< Changelog tuples re-injected.
    uint64_t suppressed_emissions = 0;   ///< Deduped at the egress union.
  };
  HaStats ha_stats() const;

  bool replication_enabled() const { return replication_ != nullptr; }
  /// The changelog/snapshot store, for tests (torn-checkpoint injection
  /// via SetSnapshotFault; direct replica inspection). Null when
  /// Options::num_replicas == 0.
  ReplicationController<EngineCheckpoint>* replication() {
    return replication_.get();
  }

  size_t num_shards() const { return options_.num_shards; }
  /// One shard, no standby: no threads, synchronous delivery.
  bool is_inline() const { return inline_; }
  bool started() const { return started_; }
  const SourceLayout& layout() const { return layout_; }

  /// Cross-thread-safe per-shard statistics (relaxed atomics throughout).
  struct ShardStats {
    uint64_t routed = 0;     ///< Tuples scattered to the shard.
    uint64_t processed = 0;  ///< Tuples the worker injected.
    size_t queue_depth = 0;  ///< Input backlog, in exchange tasks.
    uint64_t eddy_decisions = 0;
    uint64_t eddy_emitted = 0;
    uint64_t parks = 0;        ///< Idle parks of the shard's worker.
    uint64_t woken_parks = 0;  ///< Of which ended by a wake, not the bound.
  };
  std::vector<ShardStats> shard_stats() const;

  /// Shard i's engine, for introspection (stem snapshots, layout). Reads
  /// of non-atomic engine state are only safe after Quiesce() with no
  /// concurrent pushes or query changes, or before Start().
  const CacqEngine& engine(size_t shard) const {
    return *shards_[shard]->engine;
  }

 private:
  /// A registration to apply on a shard: install `plan` as `query`, or
  /// remove `query` when `plan` is null.
  struct QueryChange {
    QueryId query = 0;
    std::shared_ptr<const CacqQueryPlan> plan;
  };

  /// One unit of exchange work: a same-stream tuple group bound for one
  /// shard, a query change, or a control closure to run on the shard
  /// thread.
  struct ShardTask {
    size_t source = 0;
    std::vector<Tuple> tuples;
    std::optional<QueryChange> change;
    std::function<void()> control;
    /// Log sequence number stamped by the replication tee at enqueue time
    /// (0 for control closures, and for everything when replication is
    /// off).
    uint64_t lsn = 0;
    /// Consistency lane the batch targets (DESIGN.md §15): the worker
    /// passes it through to CacqEngine::InjectBatch so delayed queries
    /// never see raw arrivals and vice versa.
    IngressLane lane = IngressLane::kAll;
  };
  /// One unit of egress work: an emission batch, or an egress barrier.
  struct EgressItem {
    std::vector<Emission> results;
    std::function<void()> control;
  };

  struct Shard {
    std::unique_ptr<CacqEngine> engine;
    std::unique_ptr<FjordQueue<EgressItem>> output;
    /// What the shard's worker EO parks on; every enqueue onto the input
    /// partition wakes it. Owned here, not by the EO, so it survives the
    /// EO replacement in FailoverShard while producers keep enqueuing.
    std::shared_ptr<Waker> waker = std::make_shared<Waker>();
    /// Emissions collected by the engine sink since the last flush into
    /// `output`. Only the shard thread touches it while running.
    std::vector<Emission> pending;
    Counter routed;
    Counter processed;
    /// Worker liveness: flips false when the worker observes `kill` and
    /// exits, true again when FailoverShard starts a replacement.
    std::atomic<bool> alive{true};
    std::atomic<bool> kill{false};
    /// LSN of the last data task fully applied AND flushed by the worker.
    /// Everything <= this floor will reach the sink; replayed records at
    /// or under it are suppressed at the egress union (exactly-once).
    std::atomic<uint64_t> applied_lsn{0};
    /// Guards the `engine` POINTER (not the engine) against the failover
    /// swap racing cross-thread introspection (shard_stats).
    mutable std::mutex engine_mu;
  };

  class WorkerModule;
  class EgressModule;

  struct SourceInfo {
    std::string name;
    size_t partition_column = 0;
    /// Kept so BuildStandby can register the stream on a standby.
    SchemaPtr schema;
  };

  class ShardBarrier;

  /// Enqueues a control closure on shard `i`'s input queue without ever
  /// blocking behind a dead consumer: retries a non-blocking enqueue,
  /// giving up (false) if the shard dies or the queue closes.
  bool EnqueueControl(size_t i, std::function<void()> fn);
  /// Runs `fn(shard)` on every shard thread and waits for all of them.
  /// Returns Unavailable — with the barrier safely abandoned, so a stale
  /// closure drained later never touches the caller's frame — if any
  /// shard's worker died before running its closure.
  Status RunOnAllShards(const std::function<void(size_t)>& fn);
  /// Runs `fn` on shard `i`'s thread (behind all its queued data) and
  /// waits for it — the migration protocol's drain-then-act primitive.
  /// Same dead-shard semantics as RunOnAllShards.
  Status RunOnShard(size_t i, const std::function<void()>& fn);
  /// Shared wait half of the two above.
  Status WaitBarrier(const std::shared_ptr<ShardBarrier>& barrier,
                     const std::vector<size_t>& targets);
  /// Applies one query change to `engine` (a shard's, or a standby
  /// being rebuilt).
  static void ApplyChange(CacqEngine* engine, const QueryChange& change);
  /// Enqueues `change` on every shard (applies it directly when no worker
  /// runs); AddQuery and RemoveQuery after validation.
  Status EnqueueChange(const QueryChange& change);
  /// Builds an empty engine registered with the primaries' streams, for
  /// FailoverShard to register queries on, restore and replay into.
  std::unique_ptr<CacqEngine> BuildStandby(size_t shard) const;
  /// Drains a dead shard's input queue from the failover thread: stale
  /// control closures run (a barrier's waiter has abandoned it or holds
  /// migrate_mu_ behind this failover), data tasks and query changes are
  /// dropped — with replication each is in the changelog or the query
  /// history and will be replayed. Unblocks producers stuck on the full
  /// queue.
  void DrainDeadInput(size_t shard);
  /// DrainDeadInput for every shard whose worker has exited.
  void DrainDeadInputs();
  /// Acquires the exclusive route lock without blocking against stuck
  /// producers. A producer holds the shared lock while blocked on a dead
  /// primary's full input queue, and the failover that would normally
  /// drain that queue waits on migrate_mu_ — which every caller of this
  /// (MigrateBucket, ResumeBucket, FailoverShard) already holds. Draining
  /// dead inputs while spinning on try_lock breaks that cycle.
  void LockRoutesForUpdate(std::unique_lock<std::shared_mutex>& route);
  /// Snapshots shard `i`'s engine into its replica at `floor`. Must run on
  /// the thread that owns the engine (the worker, via a control closure or
  /// the checkpoint cadence; or the failover thread with the worker dead).
  void CheckpointShard(size_t shard, uint64_t floor);
  /// Unpauses the migrating bucket onto `final_owner` and replays the
  /// pause buffer to it — the common tail of success and abort paths.
  void ResumeBucket(size_t final_owner);
  /// Equi-join columns must be the partition columns of their streams.
  Status ValidatePartitioning(const CacqQueryPlan& plan) const;
  /// A Load observation for the RebalanceController: per-shard backlog in
  /// tuples (routed - processed) + cumulative per-bucket routed counts.
  RebalanceController::Load ObserveLoad() const;

  Options options_;
  const bool inline_;
  /// key -> bucket -> shard; buckets are the migration granule. BucketOf
  /// is immutable; ShardOf entries flip only inside MigrateBucket.
  PartitionMap partition_map_;
  SourceLayout layout_;  ///< Mirror of every shard engine's layout.
  std::vector<SourceInfo> sources_;
  std::map<std::string, size_t> source_index_;
  Sink sink_;
  /// Full AddQuery/RemoveQuery history in registration order; a QueryId
  /// is its index. Replaying it into a fresh engine reproduces the
  /// primaries' QueryId assignment exactly (BuildStandby, FailoverShard).
  /// Written by AddQuery/RemoveQuery (and the tee they enqueue through)
  /// under the shared route lock, read by FailoverShard under the
  /// exclusive one.
  struct QueryRecord {
    std::shared_ptr<const CacqQueryPlan> plan;
    bool removed = false;
    /// Per shard with replication: the LSNs the add and the removal were
    /// stamped with in that shard's changelog (0 = applied before Start).
    std::vector<uint64_t> add_lsn;
    std::vector<uint64_t> remove_lsn;
  };
  std::vector<QueryRecord> query_history_;

  std::vector<std::unique_ptr<Shard>> shards_;
  /// The exchange: per-shard bounded task queues + tcq.shard.* telemetry.
  /// Null inline, as are every shard's egress queue and the tcq.rebalance.*
  /// and tcq.ha.* metrics below.
  std::unique_ptr<PartitionedQueue<ShardTask>> input_;
  std::vector<std::unique_ptr<ExecutionObject>> shard_eos_;
  std::unique_ptr<ExecutionObject> egress_eo_;
  /// The egress EO's waker: every shard's egress queue wakes it.
  std::shared_ptr<Waker> egress_waker_ = std::make_shared<Waker>();
  bool started_ = false;
  bool stopped_ = false;

  // ---- Migration machinery (DESIGN.md §12) ----
  // Lock order: registry_mu_ -> migrate_mu_ -> route_mu_ -> buffer_mu_.
  // Shard threads take none of these, so barriers inside the critical
  // sections always drain.
  /// Orders query changes against whole migrations: a change is enqueued
  /// on every shard before a migration's extract and install, or after
  /// both, so donor and recipient agree on the registry the moved state
  /// was built under. Not taken by FailoverShard, which must be able to
  /// drain a dead queue that a query change waits on.
  std::mutex registry_mu_;
  /// Serializes migrations against each other, against failovers and
  /// against the barriered mutators (Quiesce/EvictBefore), so extracted
  /// state can never miss an eviction and Quiesce never runs with tuples
  /// parked in the pause buffer.
  std::mutex migrate_mu_;
  /// Producers scatter under a shared lock; MigrateBucket takes it
  /// exclusively to mark/unmark the paused bucket, guaranteeing no
  /// producer is mid-scatter across the pause edge.
  std::shared_mutex route_mu_;
  /// Bucket currently paused for migration (SIZE_MAX = none). Guarded by
  /// route_mu_.
  size_t migrating_bucket_ = SIZE_MAX;
  /// Arrivals for the paused bucket, in producer order. Guarded by
  /// buffer_mu_ (producers append under the shared route lock, so they may
  /// race each other — same as racing scatters to one queue).
  struct ParkedTuple {
    size_t source;
    Tuple tuple;
    IngressLane lane;
  };
  std::mutex buffer_mu_;
  std::vector<ParkedTuple> move_buffer_;
  /// Cumulative tuples routed per bucket (controller's planning signal).
  std::vector<Counter> bucket_routed_;

  std::unique_ptr<RebalanceController> controller_;
  // tcq.rebalance.* telemetry (registered in the constructor).
  Counter* migrations_ = nullptr;
  Counter* moved_tuples_ = nullptr;
  Counter* moved_bytes_ = nullptr;
  Counter* buffered_tuples_ = nullptr;
  Histogram* pause_us_ = nullptr;

  // ---- Replication machinery (DESIGN.md §13) ----
  /// Per-shard changelog + snapshot store; non-null iff num_replicas > 0.
  /// Records are appended by the exchange tee (in queue order), snapshots
  /// by the worker threads at the checkpoint cadence, and both are read
  /// back by FailoverShard.
  std::unique_ptr<ReplicationController<EngineCheckpoint>> replication_;
  // tcq.ha.* telemetry (registered in the constructor).
  Counter* ha_checkpoints_ = nullptr;
  Counter* ha_changelog_bytes_ = nullptr;
  Counter* ha_failovers_ = nullptr;
  Counter* ha_replayed_tuples_ = nullptr;
  Counter* ha_suppressed_ = nullptr;
  Counter* ha_torn_ = nullptr;
  Histogram* ha_recovery_us_ = nullptr;
};

}  // namespace tcq

#endif  // TCQ_CACQ_SHARDED_ENGINE_H_
