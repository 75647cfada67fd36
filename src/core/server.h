#ifndef TCQ_CORE_SERVER_H_
#define TCQ_CORE_SERVER_H_

#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "cacq/sharded_engine.h"
#include "common/fifo.h"
#include "core/analyzer.h"
#include "core/runner.h"
#include "ingress/wrapper.h"
#include "tuple/catalog.h"

namespace tcq {

/// The TelegraphCQ server facade: the in-process equivalent of the
/// paper's FrontEnd + Executor + Wrapper processes (§4.2, Figure 5).
///
///  * DefineStream / DefineTable populate the system catalog;
///  * Submit parses, analyzes and *dynamically folds in* a continuous
///    query — windowed queries get a QueryRunner in the query class of
///    their footprint, while standing single-stream filter queries join
///    the per-stream CACQ shared eddy;
///  * Push ingests stream data: it lands in the stream's archive (the
///    spooled history a scanner serves window scans from), advances every
///    runner whose footprint includes the stream, and routes through the
///    CACQ engine;
///  * results accumulate in per-query output queues, pulled with Poll —
///    the PSoup-style separation of computation from delivery — or pushed
///    through a callback. A standing filter query gets one result set per
///    engine batch; a windowed query one per window. A queue nobody drains
///    is bounded: past 65,536 buffered rows its oldest result sets are
///    shed and counted (the §4.3 QoS decision of what to drop).
///
/// Thread-safety: every public call may come from any thread. One mutex
/// (`mu_`) serializes Push, PushBatch, Submit, Cancel, Heartbeat and Poll
/// across all streams, so calls on different streams do not run in
/// parallel, and wrapping the server in more threads or ExecutionObject
/// modules does not change that. Parallelism comes from a stream's
/// `cacq_shards`: its standing filters run on shard threads behind the
/// exchange. Callbacks run with no server lock held, so a callback may
/// call any Server method except Quiesce and Rebalance (delivery
/// contract: DESIGN.md §11).
class Server {
 public:
  struct Options {
    std::string policy = "lottery";
    uint64_t seed = 7;
    /// Archive retention span per stream (how much history windows and
    /// late-registered queries can reach back into).
    Timestamp retention_span = kMaxTimestamp;
    /// Worker shards per stream's standing-query ShardedEngine. 1
    /// (default) runs it inline: no threads, injection runs synchronously
    /// inside Push and results are visible the moment Push returns. With
    /// N > 1 each stream's standing filters execute on N shard threads
    /// behind a hash exchange (DESIGN.md §11): Push only scatters, CACQ
    /// results arrive asynchronously (callbacks fire on the egress
    /// thread; call Quiesce() for a delivery barrier). Windowed queries
    /// are unaffected either way.
    size_t cacq_shards = 1;
    /// Hash buckets in each sharded stream's PartitionMap — the granule
    /// online rebalancing moves between shards (DESIGN.md §12).
    size_t cacq_buckets = 64;
    /// Runs a RebalanceController per sharded stream that watches shard
    /// backlog and migrates hot buckets automatically (Flux §2.4).
    /// Manual Rebalance() works with or without it.
    bool auto_rebalance = false;
    RebalanceController::Options rebalance;
    /// Standby replicas per shard (Flux process pairs, DESIGN.md §13):
    /// 0 = no fault tolerance; 1 dual-routes every scattered batch into a
    /// per-shard changelog with periodic snapshots, from which a killed
    /// shard's standby is built and failed over with zero lost or
    /// duplicated results.
    /// Only meaningful with cacq_shards > 1.
    size_t cacq_replicas = 0;
    /// Default per-stream disorder bound (DESIGN.md §15): arrivals whose
    /// timestamp may still be overtaken by earlier data are buffered in a
    /// reorder buffer and released in timestamp order once the stream's
    /// raw high-water mark has advanced past ts + max_disorder. 0 keeps
    /// the classic strictly-in-order ingress. Per-stream override:
    /// SetDisorderBound. Ignored for arrival-sequence streams (no
    /// timestamp column — disorder is impossible there).
    Timestamp max_disorder = 0;
    /// What happens to an arrival later than the disorder bound (its
    /// timestamp is already below the released watermark).
    LatePolicy late_policy = LatePolicy::kReject;
    /// Idle-stream heartbeat timeout in milliseconds (0 = disabled): a
    /// stream with a timestamp column that has been silent this long is
    /// punctuated up to its multi-stream-query partners' watermark on the
    /// next PumpHeartbeats() call, so a quiet stream stops stalling shared
    /// windowed watermarks. Assumes the streams share a timestamp clock.
    int64_t idle_heartbeat_ms = 0;
    /// Disk-backed history spool (DESIGN.md §16). Empty = off: all
    /// history stays resident, the classic unbounded-RAM archive. Set to
    /// a directory to bound resident memory — each stream's archive keeps
    /// only the newest spool_resident_tuples in RAM and demotes the rest
    /// to append-only segments under this directory; window scans and
    /// kIngestLate backfill read through the spool's page cache
    /// transparently, and a server reopened on the same directory adopts
    /// the spooled history (see ReplayStream).
    std::string spool_dir;
    /// Spool page-cache capacity in 4 KiB pages, shared by every stream —
    /// THE resident-memory knob for queries over history: cold scans
    /// fault through it, so RAM stays bounded no matter how much history
    /// the windows reach back into.
    size_t spool_cache_pages = 256;
    /// Newest tuples each archive keeps in RAM before demoting to disk.
    size_t spool_resident_tuples = 4096;
    /// Spool segment rotation size (smaller = finer retention granule).
    uint64_t spool_segment_bytes = 4ull << 20;
    /// fsync every demotion (crash-safety tests; ruinous throughput).
    bool spool_sync_each_append = false;
  };

  Server();
  explicit Server(Options options);
  ~Server();  // Stops shard/egress threads before any state they touch.

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // --- Catalog -----------------------------------------------------------
  /// `timestamp_field`: column carrying the application timestamp used by
  /// windows (-1 = arrival sequence numbers). `partition_field`: column
  /// the sharded exchange hashes on when cacq_shards > 1 (-1 = the first
  /// non-timestamp column); equi-joins between sharded streams must join
  /// on their partition fields.
  Status DefineStream(const std::string& name, SchemaPtr schema,
                      int timestamp_field = -1, int partition_field = -1);
  /// A row of another arity, or with a non-NULL cell of another type
  /// than its column's, is a TypeError/InvalidArgument, as on ingest.
  Status DefineTable(const std::string& name, SchemaPtr schema,
                     TupleVector rows);

  // --- Queries -------------------------------------------------------------
  /// Per-query submission knobs.
  struct SubmitOptions {
    /// CEDR consistency level (DESIGN.md §15). kDelayed (default) holds
    /// results until the safe watermark proves them final; kSpeculative
    /// emits at the raw watermark and revises with retraction-signed rows
    /// when late data changes an already-delivered result.
    Consistency consistency = Consistency::kDelayed;
  };

  /// Registers a continuous query; results accumulate until polled.
  Result<QueryId> Submit(const std::string& sql);
  Result<QueryId> Submit(const std::string& sql, const SubmitOptions& opts);

  /// Push-mode delivery for one query (the §4.3 egress operator for an
  /// intermittently connected client). Setting a callback first flushes
  /// the buffered backlog to it in order, then streams live results;
  /// a null callback disconnects, and results buffer for Poll again.
  ///
  /// Every callback runs from one ordered delivery FIFO, outside every
  /// server lock: a query's callbacks never overlap and arrive in order.
  /// Inline (cacq_shards == 1) they run on the thread whose call produced
  /// them before that call returns — unless that call was itself made
  /// from a callback, whose outer drain then delivers them. Sharded, CACQ
  /// sets are called back on the stream's egress thread, or on a thread
  /// that is draining the FIFO when they arrive.
  using Callback = std::function<void(const ResultSet&)>;
  Status SetCallback(QueryId q, Callback cb);

  /// Stops `q`. No callback of `q` starts after Cancel returns; called
  /// from another thread than the one running `q`'s callback, Cancel
  /// waits (holding no server lock) for that callback to finish. A
  /// query's own callback may cancel it.
  Status Cancel(QueryId q);

  /// Output schema of a submitted query.
  Result<SchemaPtr> OutputSchema(QueryId q) const;

  // --- Data ------------------------------------------------------------------
  /// Ingests one tuple. Its timestamp comes from the stream's declared
  /// timestamp column (or arrival order), and every affected query
  /// advances.
  Status Push(const std::string& stream, const Tuple& tuple);

  /// Ingests a whole batch under ONE lock acquisition, with one archive
  /// spool pass, one shared-eddy injection (one Drain) and one windowed
  /// advance for the entire batch. Results are identical to pushing each
  /// tuple individually; only per-tuple overhead is amortized.
  ///
  /// Invalid tuples (arity mismatch, a non-NULL cell of another type
  /// than its column's, bad or out-of-order timestamp) are
  /// skipped: when `rejected` is non-null their count is reported there
  /// and the valid remainder still flows (returns OK); when null, the
  /// first error is returned after the preceding valid prefix has been
  /// ingested — the same partial-ingest semantics as a Push loop.
  Status PushBatch(const std::string& stream, std::vector<Tuple> batch,
                   size_t* rejected = nullptr);

  /// Convenience: drain a pull source into a stream.
  Status PushAll(const std::string& stream, TupleSource* source);

  // --- Disorder, punctuation and retraction (DESIGN.md §15) ---------------
  /// Sets `stream`'s disorder bound and beyond-bound policy, overriding
  /// the server-wide Options defaults. Requires a timestamp column.
  Status SetDisorderBound(const std::string& stream, Timestamp max_disorder,
                          LatePolicy policy = LatePolicy::kReject);

  /// Explicit punctuation: the source asserts no future arrival on
  /// `stream` has timestamp <= ts. Flushes the reorder buffer through ts,
  /// advances the safe watermark to at least ts, and advances every query
  /// watching the stream — the cure for a quiet stream stalling a
  /// multi-stream watermark. Requires a timestamp column.
  Status Heartbeat(const std::string& stream, Timestamp ts);

  /// Ingests a retraction: cancels the archived assertion whose payload
  /// (timestamp + cells) matches `tuple`, flows a retraction-signed tuple
  /// through the stream's standing CACQ queries (canceling SteM state and
  /// emitting signed result rows), and revises speculative windowed
  /// queries. An unmatched retraction is dropped and counted
  /// (tcq.disorder.unmatched_retractions); delayed windowed queries see
  /// the cancellation only in windows that have not fired yet. Requires a
  /// timestamp column; `tuple` is checked as an ingested one is.
  Status Retract(const std::string& stream, const Tuple& tuple);

  /// Scans every stream for idle-timeout heartbeats (Options::
  /// idle_heartbeat_ms): a silent stream is punctuated up to the highest
  /// safe watermark among streams it shares a multi-stream windowed query
  /// with. Returns the number of streams punctuated. Call it from a timer
  /// (there is no background thread).
  size_t PumpHeartbeats();

  /// Replaces the wall clock PumpHeartbeats uses to measure idleness.
  void SetClockForTesting(std::function<int64_t()> now_ms);

  /// Replays `stream`'s archived history with timestamp >= from_ts
  /// through the standing-query lanes (DESIGN.md §16): every standing
  /// CACQ query — delayed and speculative alike, the records are final —
  /// sees the replayed tuples in timestamp order, the safe watermark
  /// advances over the replayed range, and windowed queries re-advance.
  /// Records are read back through the spool's page cache when the
  /// history lives on disk and are NOT re-archived. The primary use is a
  /// server reopened on Options::spool_dir: DefineStream adopts the
  /// spooled history, then ReplayStream(stream, kMinTimestamp) feeds it
  /// to freshly registered queries. Fails if disordered arrivals are
  /// still buffered (heartbeat first — replay may not interleave with an
  /// open disorder window).
  Status ReplayStream(const std::string& stream, Timestamp from_ts);

  /// Delivery barrier for sharded execution: returns once every tuple
  /// pushed before the call has been executed and its results delivered
  /// (queued for Poll, or called back — the delivery FIFO is drained).
  /// Inline (cacq_shards == 1) only the FIFO drain remains: results are
  /// already delivered when Push returns. Must not be called from a
  /// result callback.
  void Quiesce();

  /// Manually migrates one hash bucket of `stream`'s sharded exchange to
  /// `to_shard` mid-stream (Flux-style state movement; no results lost or
  /// duplicated — see ShardedEngine::MigrateBucket). The stream must be
  /// running sharded (cacq_shards > 1 and at least one standing query).
  /// Must not be called from a result callback.
  Status Rebalance(const std::string& stream, size_t bucket, size_t to_shard);

  // --- Results -----------------------------------------------------------------
  /// Next undelivered result set of query q, if any.
  std::optional<ResultSet> Poll(QueryId q);
  /// All undelivered result sets of query q.
  std::vector<ResultSet> PollAll(QueryId q);

  size_t num_active_queries() const;

  // --- Telemetry ---------------------------------------------------------------
  /// Name of the reserved introspection stream every server defines at
  /// construction (schema: name STRING, kind STRING, value DOUBLE; arrival
  /// sequence timestamps). Continuous queries range over engine telemetry
  /// like over any stream:
  ///   SELECT name, value FROM tcq.metrics WHERE value > 1000
  static constexpr const char* kMetricsStream = "tcq.metrics";

  /// Publishes one engine-telemetry snapshot into `tcq.metrics` as a
  /// single batch of arrivals: every metric in the global registry plus
  /// the per-stream / per-query detail only the server knows (ingest,
  /// rejects, watermarks, delivered rows — live in every build, including
  /// -DTCQ_DISABLE_METRICS). Returns the number of tuples published.
  size_t PumpMetrics();

  /// JSON snapshot of engine telemetry (contract in DESIGN.md §10): the
  /// global metric registry plus per-stream, per-query and shared-eddy
  /// detail. Used by the examples and scripts/bench.sh.
  std::string SnapshotMetrics() const;

 private:
  struct StreamState;
  struct QueryState {
    bool active = false;
    bool is_cacq = false;
    Consistency consistency = Consistency::kDelayed;
    std::shared_ptr<const AnalyzedQuery> analyzed;  ///< Shared with runner.
    std::unique_ptr<QueryRunner> runner;     ///< Windowed path.
    /// The runner's place in its stream's window plan (shareable only).
    SharedWindowScan::Query* window_query = nullptr;
    StreamState* window_stream = nullptr;  ///< That stream.
    std::string cacq_stream;                 ///< CACQ path.
    QueryId cacq_id = 0;
    /// CACQ egress projection by cell index, when every select item is
    /// a bound column reference (empty: evaluate `analyzed.projections`).
    std::vector<size_t> column_projection;
    /// Buffered for Poll, bounded in rows.
    Fifo<ResultSet> results;
    size_t buffered_rows = 0;  ///< Rows in `results`.
    uint64_t shed_rows = 0;    ///< Rows shed to honor the bound.
    size_t pending_sets() const { return results.size(); }
    /// Called by the draining thread with results_mu_ released; one that
    /// SetCallback replaces during a drain lives until the drain ends.
    std::unique_ptr<const Callback> callback;
    uint64_t rows_delivered = 0;  ///< Egress rows (queued or called back).
    uint64_t result_sets = 0;     ///< Egress sets (queued or called back).
    /// Sets of this query waiting in the delivery FIFO. While non-zero,
    /// new sets queue behind them even with no callback, so a query's
    /// sets reach the callback or the Poll buffer in order.
    size_t queued = 0;
    bool in_flight = false;  ///< Its callback is running now.
    /// Emission indexes of the engine batch being grouped (reused).
    std::vector<uint32_t> gather;
    /// Window sets of one advance or revision pass, in firing order; its
    /// storage is reused (swapped with the window plan's).
    std::vector<ResultSet> fired;
  };

  struct StreamState {
    StreamDef def;
    std::unique_ptr<Archive> archive;
    /// SAFE watermark: the released frontier F. Every tuple at or below it
    /// has been released to the archive/delayed path, and no future
    /// release is below it. Arrivals with ts < F are beyond-bound
    /// stragglers (LatePolicy). The raw high-water mark (max stamped ts)
    /// lives on `reorder`.
    Timestamp watermark = kMinTimestamp;
    int64_t arrivals = 0;
    int64_t rejected = 0;  ///< Tuples refused by validation/stamping.
    /// Bounded-disorder ingress (DESIGN.md §15). max_disorder == 0 is the
    /// classic in-order path: arrivals release immediately, watermark
    /// semantics are exactly the pre-disorder behavior.
    ReorderBuffer reorder;
    LatePolicy late_policy = LatePolicy::kReject;
    int64_t last_arrival_ms = 0;  ///< Idle-heartbeat bookkeeping.
    /// Standing CACQ queries per consistency lane (a lane with no
    /// listeners is never pushed).
    size_t cacq_delayed = 0;
    size_t cacq_speculative = 0;
    size_t standing() const { return cacq_delayed + cacq_speculative; }
    /// Per-stream disorder counters (PumpMetrics / SnapshotMetrics rows).
    struct Disorder {
      int64_t released = 0;
      int64_t late_within_bound = 0;
      int64_t beyond_bound = 0;
      int64_t dropped = 0;
      int64_t ingested_late = 0;
      int64_t heartbeats = 0;
      int64_t idle_heartbeats = 0;
      int64_t retractions = 0;
      int64_t unmatched_retractions = 0;
    } dis;
    /// Exchange hash column when cacq_shards > 1 (resolved at definition).
    size_t partition_column = 0;
    /// Standing-query engine, created with the stream's first CACQ query.
    std::unique_ptr<ShardedEngine> engine;
    /// Engine qid (a dense registration index) -> its live query; null
    /// once cancelled. Guarded by results_mu_ (the egress thread resolves
    /// emissions through it); writers hold mu_ too.
    std::vector<QueryState*> cacq_owner;
    /// Windowed queries reading this stream, in registration order.
    /// Cancel only sets `windowed_cancelled`; the next advance sweeps.
    std::vector<QueryState*> windowed;
    bool windowed_cancelled = false;
    /// The standing plan of its shareable windowed queries (DESIGN.md
    /// §17), made with the first.
    std::unique_ptr<SharedWindowScan> windows;
  };

  /// An engine batch whose sets wait in the delivery FIFO: the
  /// emissions, and their indexes grouped by query (each Delivery owns
  /// one run of `order`).
  struct EmissionBatch {
    std::vector<ShardedEngine::Emission> emissions;
    std::vector<uint32_t> order;
  };
  /// One set waiting in the delivery FIFO: a built set (windows, Poll
  /// backlog), or a CACQ set still to be projected from `batch`.
  struct Delivery {
    QueryState* qs = nullptr;
    uint64_t seq = 0;  ///< Order of queueing (not always FIFO position).
    ResultSet set;
    std::shared_ptr<EmissionBatch> batch;
    uint32_t begin = 0;  ///< The set's run in batch->order.
    uint32_t count = 0;
  };
  /// Drains the delivery FIFO on leaving a public call that queued sets:
  /// declared before the call's mu_ guard, it runs after the guard has
  /// unlocked. A call that queued nothing leaves other threads' sets to
  /// their own drains. An exception a callback throws reaches the caller,
  /// as it would from a callback run inside the call; while another
  /// exception unwinds the call, the sets stay queued for the next drain.
  struct DrainOnExit {
    explicit DrainOnExit(Server* server);
    ~DrainOnExit() noexcept(false);
    Server* server;
    int unwinding;
    uint64_t queued;  ///< The thread's count of queued sets at entry.
  };

  /// Drops a delivered set's reference to its emission batch, keeping
  /// the batch as a spare when it was the last (under results_mu_).
  void RecycleBatchLocked(std::shared_ptr<EmissionBatch>* batch);
  /// Counts one egress set of `rows` rows (per-query and registry).
  void CountSetLocked(QueryState* qs, size_t rows);
  /// Buffers `rs` for Poll and sheds whole oldest sets past the row bound
  /// (the newest set always stays).
  void BufferLocked(QueryState* qs, ResultSet&& rs);
  /// The one egress append for built sets, under results_mu_: queues `rs`
  /// for the callback (or behind `qs`'s queued sets), else buffers it.
  void AppendResultLocked(QueryState* qs, ResultSet&& rs);
  /// Appends `d` to the delivery FIFO.
  void EnqueueLocked(Delivery&& d);
  /// Appends the `fired` sets of every query in fired_, in order, under
  /// one results_mu_ acquisition, and empties them and fired_.
  void DeliverFired();
  /// Groups one emission batch of a stream's engine by query, in arrival
  /// order: one set per query. Sets bound for a callback are queued as
  /// emission indexes and projected at delivery; the rest are projected
  /// and buffered here. Runs on the egress thread when sharded (which then
  /// drains the FIFO), inside PushBatch inline. Takes results_mu_ once per
  /// batch — never mu_ (the producer may hold it).
  void DeliverShardEmissions(StreamState* ss,
                             std::vector<ShardedEngine::Emission>&& batch);
  /// Projects one engine emission per `qs`'s select list.
  static Tuple ProjectRow(const QueryState& qs, const Tuple& t);
  /// Runs queued callbacks in FIFO order with no server lock held, until
  /// the FIFO is empty. One thread drains at a time; a call that finds
  /// another thread draining returns at once from a callback of this
  /// server or when `wait` is false, and otherwise waits until every set
  /// queued before it has been delivered.
  void DrainDeliveries(bool wait);
  Status PushLocked(const std::string& stream, const Tuple& tuple);
  /// Validates `tuple` against `ss` (arity, and every non-NULL cell of
  /// its column's declared type) and stamps its engine timestamp
  /// (declared column or arrival order). Watermark logic lives in
  /// IngestBatchLocked — stamping no longer touches it.
  Status StampLocked(StreamState* ss, Tuple* tuple);
  /// Advances every windowed query whose footprint includes `ss`'s
  /// stream — delayed queries to the min safe watermark over their
  /// footprint, speculative ones to the min raw watermark.
  void AdvanceQueriesLocked(StreamState* ss);
  /// The watermark `qs`'s runner advances to (kMaxTimestamp: tables only).
  Timestamp RunnerWatermarkLocked(const QueryState& qs) const;
  /// Fires the ready windows of `queries` and delivers them in query
  /// order: shareable runners through `ss`'s window plan (all of its
  /// queries, or only `only`: Submit's first advance), the rest through
  /// QueryRunner::Advance. `ss` is null when none is shareable. Feeds
  /// tcq.window.*.
  void AdvanceRunnersLocked(StreamState* ss,
                            std::span<QueryState* const> queries,
                            const SharedWindowScan::Query* only = nullptr);
  /// Revision pass: tells every speculative windowed query watching
  /// `ss`'s stream that data at or after `late_ts` changed under fired
  /// windows.
  void ReviseQueriesLocked(StreamState* ss, Timestamp late_ts);
  /// Spools reorder-buffer releases: archive append, safe-watermark
  /// advance, delayed-lane injection. The shared tail of ingest,
  /// Heartbeat and PumpHeartbeats.
  Status ApplyReleasedLocked(const std::string& stream, StreamState* ss,
                             std::vector<Tuple> released);
  /// Punctuation body shared by Heartbeat and PumpHeartbeats.
  Status HeartbeatLocked(const std::string& stream, StreamState* ss,
                         Timestamp ts, bool idle);
  /// PushBatch body after the stream lookup; shared with PumpMetrics.
  Status IngestBatchLocked(const std::string& stream, StreamState* ss,
                           std::vector<Tuple> batch, size_t* rejected);
  /// Every stream's engine, collected under mu_ (they live until ~Server).
  std::vector<ShardedEngine*> Engines();

  /// Serializes catalog, ingest and query registration (as before).
  mutable std::mutex mu_;
  /// Guards query result state (QueryState::results/buffered_rows/
  /// shed_rows/callback/rows_delivered/result_sets/queued/in_flight/
  /// gather, and `active`'s writes), the queries_ vector storage, every
  /// cacq_owner table and the delivery FIFO — the state the sharded
  /// egress thread touches.
  /// Lock order: mu_ before results_mu_; the egress thread takes
  /// results_mu_ alone, so it can never deadlock with a producer
  /// blocked on a full exchange while holding mu_.
  mutable std::mutex results_mu_;
  /// The ordered delivery FIFO and its drain state (under results_mu_).
  Fifo<Delivery> deliveries_;
  /// Emission batches whose sets were all delivered, kept with their
  /// storage for the next engine batch (under results_mu_).
  static constexpr size_t kSpareBatches = 4;
  std::vector<std::shared_ptr<EmissionBatch>> spare_batches_;
  bool draining_ = false;
  std::thread::id drainer_;  ///< The draining thread, while draining_.
  uint64_t enqueued_ = 0;    ///< Sets ever queued: the last `seq`.
  uint64_t in_flight_seq_ = 0;  ///< `seq` of the running callback, or 0.
  /// Signalled after every set the drain handles, while some thread
  /// waits on it (`delivery_waiters_` counts them).
  std::condition_variable delivered_cv_;
  size_t delivery_waiters_ = 0;
  /// Callbacks SetCallback replaced during a drain, freed when it ends
  /// (the drain may be running one).
  std::vector<std::unique_ptr<const Callback>> retired_callbacks_;
  /// Queries touched by the emission batch being grouped (reused).
  std::vector<QueryState*> touched_;
  /// Queries with window sets to deliver from one advance or revision
  /// pass, in query order (under mu_; reused).
  std::vector<QueryState*> fired_;
  Options options_;
  Catalog catalog_;
  /// Shared disk spool (Options::spool_dir; null = off). Declared before
  /// streams_ so it outlives the archives and engines holding raw
  /// pointers into it.
  std::unique_ptr<Spool> spool_;
  std::map<std::string, StreamState> streams_;
  std::vector<std::unique_ptr<QueryState>> queries_;
  /// Live kSpeculative queries. ReviseQueriesLocked runs per ingest batch
  /// and sweeps the stream's `windowed` list; with none live it skips the
  /// sweep.
  size_t num_speculative_ = 0;
  /// Windowed-execution totals (SnapshotMetrics "windows"; live in every
  /// build): windows fired, archive tuples their executions read,
  /// advances that fired through a SharedWindowScan, panes built and
  /// dropped by a rewrite, and queries ended by the per-advance window
  /// budget.
  uint64_t windows_fired_ = 0;
  uint64_t windows_scanned_ = 0;
  uint64_t shared_scans_ = 0;
  uint64_t windows_panes_ = 0;
  uint64_t windows_pane_rewrites_ = 0;
  uint64_t windows_budget_exceeded_ = 0;  ///< Queries ended by the budget.
  /// Millisecond clock for idle-heartbeat detection (injectable).
  std::function<int64_t()> clock_ms_;
};

}  // namespace tcq

#endif  // TCQ_CORE_SERVER_H_
