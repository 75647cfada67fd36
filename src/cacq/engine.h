#ifndef TCQ_CACQ_ENGINE_H_
#define TCQ_CACQ_ENGINE_H_

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "cacq/migration.h"
#include "eddy/eddy.h"
#include "expr/ast.h"
#include "expr/predicates.h"
#include "modules/query_index.h"
#include "stem/stem.h"

namespace tcq {

/// A continuous query registered with the shared engine.
struct CacqQuerySpec {
  /// Source aliases this query ranges over (its *footprint*) — a subset of
  /// the engine's streams. Single-stream selection queries name one.
  std::vector<std::string> sources;
  /// WHERE predicate with qualified (or unique bare) column names; null =
  /// no predicate. Equality factors between two sources become shared
  /// SteM joins; every other factor enters the query index of the
  /// sources it reads (a grouped filter for `column op constant`, a
  /// per-query residual otherwise). Either must stay inside `sources`.
  ExprPtr where;
  /// CEDR consistency level (DESIGN.md §15): false = delayed-but-correct
  /// (the query consumes the reorder-buffer release feed — IngressLane::
  /// kDelayed), true = speculative (it consumes raw arrivals as they come
  /// — IngressLane::kSpeculative — and may see retraction-signed tuples).
  /// Irrelevant until the server feeds the engine through both lanes.
  bool speculative = false;
};

/// A CacqQuerySpec classified against a source layout: everything
/// AddQuery can reject has been checked, so installing it cannot fail.
/// Engines with identical streams install one plan to identical effect
/// (the sharded engine plans once and installs on every shard). The bound
/// residuals are immutable expression trees, safe to share across threads.
struct CacqQueryPlan {
  SmallBitset footprint;
  bool speculative = false;
  /// Equi-joins between two sources: absolute columns of each side.
  struct Join {
    size_t source_a;
    size_t column_a;
    size_t source_b;
    size_t column_b;
  };
  std::vector<Join> joins;
  /// Every other factor (kGrouped or bound kResidual), grouped by the
  /// exact set of sources it reads: each set is one QueryIndex operator.
  struct Selection {
    SmallBitset required;
    std::vector<FactorPlan> factors;
  };
  std::vector<Selection> selections;
};

/// CACQ (§3.1): one Eddy executing many continuous queries at once — the
/// "super-query" that is the disjunction of all registered queries. Tuple
/// lineage (a query bitmap) tracks which queries each tuple still
/// satisfies; query indexes (grouped filters plus residuals) share the
/// selections; shared SteMs serve every query's joins from one copy of
/// the state.
///
/// One engine is one *query class* (§4.2.2): all join queries registered
/// here must agree on the equi-join graph (the executor opens a new class
/// for a different footprint). Selection queries over any single stream
/// mix freely. Newly added queries see only data arriving after them.
class CacqEngine {
 public:
  struct Options {
    std::string policy = "lottery";
    uint64_t seed = 7;
    Eddy::Options eddy;
  };

  CacqEngine();
  explicit CacqEngine(Options options);

  CacqEngine(const CacqEngine&) = delete;
  CacqEngine& operator=(const CacqEngine&) = delete;

  /// Declares a stream before any query references it.
  Result<size_t> AddStream(const std::string& name, SchemaPtr schema);

  /// Delivery callback: (query, full-width result tuple). For a selection
  /// query the tuple's cells outside its stream are NULL; join results
  /// carry both sides. Use layout().Narrow to project a source back out.
  using Sink = std::function<void(QueryId, const Tuple&)>;
  void SetSink(Sink sink) { sink_ = std::move(sink); }

  /// Registers a continuous query; it applies to all future tuples.
  /// PlanQuery then InstallQuery.
  Result<QueryId> AddQuery(const CacqQuerySpec& spec);

  /// The step of AddQuery that can fail: classifies `spec`'s factors
  /// against `layout` without touching any engine.
  static Result<CacqQueryPlan> PlanQuery(const SourceLayout& layout,
                                         const CacqQuerySpec& spec);

  /// The step that cannot fail: registers a plan made against this
  /// engine's layout. Returns its QueryId, the registration index.
  QueryId InstallQuery(const CacqQueryPlan& plan);

  /// Unregisters a query; shared state it alone used is scrubbed.
  Status RemoveQuery(QueryId q);

  /// Feeds one tuple of `stream` and routes it (plus any join matches).
  /// `lane` restricts the seeded lineage to queries of that consistency
  /// level (kAll = every interested query — the classic single-feed path).
  ///
  /// A stream that no SteM reads takes the fixed route (DESIGN.md §14):
  /// its tuples have one eligible operator, the stream's query index, so
  /// the engine applies it directly instead of routing through the eddy,
  /// with the same seqs, emissions and eddy counters. Its first join
  /// moves it to the eddy for good; tuples the tracer samples always
  /// take the eddy so their hops are recorded.
  Status Inject(const std::string& stream, const Tuple& tuple,
                IngressLane lane = IngressLane::kAll);

  /// Feeds a whole same-stream batch through ONE stream lookup, one
  /// lineage-seed snapshot and one Drain() (or one fixed-route pass). The
  /// eddy amortizes one routing decision per stage over the batch;
  /// results are identical to injecting each tuple alone (routing
  /// invariance), only cheaper.
  Status InjectBatch(const std::string& stream,
                     const std::vector<Tuple>& batch,
                     IngressLane lane = IngressLane::kAll);

  /// InjectBatch by source index (layout().SourceIndexOf order). The
  /// sharded exchange resolves the stream once at scatter time and feeds
  /// every shard by index, skipping the per-task name lookup.
  Status InjectBatch(size_t source, std::span<const Tuple> batch,
                     IngressLane lane = IngressLane::kAll);

  /// Evicts join state older than `ts` (window maintenance).
  void EvictBefore(Timestamp ts);

  /// State-migration half of online rebalancing (cacq/migration.h,
  /// DESIGN.md §12). Both must run on the thread that owns this engine —
  /// the sharded exchange sends them as control closures.
  ///
  /// ExtractBucketState removes, from every shared SteM, the live entries
  /// whose key cell satisfies `in_bucket` (the caller closes over
  /// PartitionMap::BucketOf(key) == bucket) and packages them with their
  /// lineage and max arrival seq.
  BucketState ExtractBucketState(size_t bucket,
                                 const std::function<bool(const Value&)>&
                                     in_bucket);

  /// Installs a donor's extracted state into this engine's matching SteMs
  /// and raises the eddy's arrival-seq floor past the installed entries.
  /// Fails (without partial install) if a SteM named by the state does not
  /// exist here — shards register identical streams/queries, so a mismatch
  /// means the caller migrated across non-identical engines.
  Status InstallBucketState(const BucketState& state);

  /// Process-pair replication half (DESIGN.md §13), same thread-ownership
  /// rule as the bucket pair above.
  ///
  /// CheckpointState copies (without removing) every SteM's live entries
  /// plus the eddy's arrival counter — the snapshot a standby replica
  /// recovers from.
  EngineCheckpoint CheckpointState() const;

  /// Replaces this engine's SteM state with `ckpt` and aligns the eddy's
  /// arrival counter to the primary's, so a changelog tail replayed next
  /// stamps seqs exactly as the primary would have. Rejects torn
  /// checkpoints (ckpt.complete == false) and engine mismatches without
  /// partial installs. Grouped filters / queries are untouched: replicas
  /// register the same queries through the normal control path.
  Status RestoreCheckpoint(const EngineCheckpoint& ckpt);

  size_t num_active_queries() const { return active_queries_; }
  const Eddy& eddy() const { return *eddy_; }
  const SourceLayout& layout() const { return layout_; }

  /// Snapshot of one shared SteM's state for introspection
  /// (Server::SnapshotMetrics).
  struct StemSnapshot {
    std::string name;
    size_t size = 0;  ///< Live stored tuples.
    SteM::Stats stats;
  };
  std::vector<StemSnapshot> stem_snapshots() const;

 private:
  struct JoinKey {
    size_t target_source;
    int stored_key;  ///< Absolute column index the stem indexes.
    bool operator<(const JoinKey& o) const {
      return target_source != o.target_source
                 ? target_source < o.target_source
                 : stored_key < o.stored_key;
    }
  };

  struct QueryInfo {
    SmallBitset footprint;
    bool active = false;
  };

  /// The query index of the factors over one exact source set, as an
  /// eddy operator eligible for tuples spanning at least that set.
  class IndexOp;
  /// Lazily creates the index operator for a source set.
  IndexOp& IndexOpFor(const SmallBitset& required);
  /// Lazily creates build op + stem for (source, key column) and the probe
  /// ops in both directions for an equi-join pair.
  void EnsureJoin(size_t src_a, int col_a, size_t src_b, int col_b);

  /// Source `s`'s fixed route over a batch seeded with `interested`.
  void RouteFixed(size_t s, std::span<const Tuple> batch,
                  const SmallBitset& interested);
  /// Hands `t` to every active query in `queries` whose footprint is
  /// exactly `sources`.
  void Deliver(const Tuple& t, const SmallBitset& sources,
               const SmallBitset& queries);

  Options options_;
  SourceLayout layout_;
  std::unique_ptr<Eddy> eddy_;
  Sink sink_;

  std::vector<QueryInfo> queries_;
  size_t active_queries_ = 0;
  /// Per source: queries whose footprint contains it (lineage seed).
  std::vector<SmallBitset> interested_;
  /// Consistency lanes over engine QueryIds: a kDelayed/kSpeculative
  /// injection intersects its lineage seed with the matching lane, so
  /// delayed queries never see raw (possibly disordered) arrivals and
  /// speculative queries never see the duplicate release feed.
  SmallBitset delayed_queries_;
  SmallBitset speculative_queries_;

  /// How one source's base tuples are routed.
  struct SourceRoute {
    SmallBitset sources;  ///< The tuples' composition: this source alone.
    /// The index over this source alone (the one operator its tuples
    /// are eligible for) and its eddy operator index; null if none yet.
    IndexOp* index = nullptr;
    size_t op = Eddy::kNoOperator;
    /// A SteM reads this source: its tuples take the eddy.
    bool joined = false;
  };
  std::vector<SourceRoute> routes_;
  /// RouteFixed's per-tuple lineage and per-batch pass flags, reused.
  SmallBitset lineage_scratch_;
  std::vector<uint8_t> passed_scratch_;

  std::vector<std::shared_ptr<IndexOp>> index_ops_;
  std::map<JoinKey, SteMPtr> stems_;
  /// Registered probe edges (target, stored key, probe key) to avoid dups.
  std::set<std::tuple<size_t, int, int>> probe_edges_;
};

}  // namespace tcq

#endif  // TCQ_CACQ_ENGINE_H_
