#ifndef TCQ_CORE_RUNNER_H_
#define TCQ_CORE_RUNNER_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/analyzer.h"
#include "eddy/eddy.h"
#include "eddy/operators.h"
#include "ingress/wrapper.h"
#include "modules/query_index.h"

namespace tcq {

/// One evaluation of the query over one window: the paper's output model
/// is "a sequence of sets, each set associated with an instant in time"
/// (§4.1.1).
struct ResultSet {
  Timestamp t = 0;  ///< The for-loop variable's value for this window.
  TupleVector rows;
};

/// CEDR-style per-query consistency level over a disordered feed
/// (DESIGN.md §15).
enum class Consistency : uint8_t {
  /// Delayed-but-correct: results are held until the safe (released)
  /// watermark passes the window close, so every delivery is final —
  /// byte-identical to replaying the feed in timestamp order.
  kDelayed = 0,
  /// Speculative: results are emitted the moment the raw watermark allows,
  /// and a late arrival that changes an already-delivered window triggers
  /// a revision — retraction-signed rows canceling the stale results plus
  /// fresh assertions. Converges to the delayed answer.
  kSpeculative = 1,
};

/// Executes one analyzed query as a continuous, windowed dataflow. The
/// runner consumes stream data through per-source archives, fires each
/// window of the for-loop as soon as the data it needs has arrived, and
/// evaluates the window through a fresh adaptive (Eddy) plan —
/// SteM builds/probes for every join edge, filter operators for every
/// predicate — followed by projection or windowed aggregation.
///
/// Every window is evaluated whole, which is always correct: this is the
/// reference the server's standing window plan (SharedWindowScan) must
/// match byte for byte, and the path of joins, table sources,
/// speculative queries and loops that are not linear.
class QueryRunner {
 public:
  struct Options {
    std::string policy = "lottery";
    uint64_t seed = 7;
    /// Start time (ST) for the query's for-loop.
    Timestamp start_time = 1;
    /// Consistency::kSpeculative support: keep a bounded history of fired
    /// windows so Revise() can recompute them when late data lands.
    bool speculative = false;
  };

  /// `archives[s]` serves source s's history; table sources read their
  /// rows from the catalog snapshot in `analyzed.defs`. Archives are
  /// shared with the server, which appends arriving data.
  QueryRunner(AnalyzedQuery analyzed, std::vector<const Archive*> archives,
              std::vector<TupleVector> table_rows, Options options);
  /// The same over an analysis shared with the caller (the server keeps
  /// one per query).
  QueryRunner(std::shared_ptr<const AnalyzedQuery> analyzed,
              std::vector<const Archive*> archives,
              std::vector<TupleVector> table_rows, Options options);

  QueryRunner(const QueryRunner&) = delete;
  QueryRunner& operator=(const QueryRunner&) = delete;

  /// Fires every window whose data has fully arrived (right ends <=
  /// `high_watermark` for all of the window's streams). Appends one
  /// ResultSet per fired window to `out`. Returns the number fired.
  size_t Advance(Timestamp high_watermark, std::vector<ResultSet>* out);

  /// The readiness half of Advance: moves every window step ready at
  /// `high_watermark` to `steps`, in firing order, without executing it.
  /// Returns the number taken.
  ///
  /// At most kMaxStepsPerAdvance steps become ready in one call. A
  /// for-loop that makes more ready at once (one that walks ~2^63 empty
  /// windows, or cycles forever) takes none: the query ends with a
  /// ResourceExhausted status() instead of exhausting memory.
  size_t TakeReady(Timestamp high_watermark,
                   std::vector<WindowSequence::Step>* steps);

  /// Windows of a linear loop taken by index: window k is the loop's k-th
  /// (LinearLoop::TimeAt).
  struct Run {
    uint64_t first = 0;
    uint64_t count = 0;
  };

  /// TakeReady for a linear loop (a shareable query's), by arithmetic:
  /// takes the ready windows as a run of indexes, for the caller
  /// (SharedWindowScan) to execute. Taking the loop's last window ends
  /// the query with the status the expression trees give; the same step
  /// budget applies.
  Run TakeRun(Timestamp high_watermark);

  /// Window steps one advance may fire. Far above any real per-advance
  /// count (the largest in the test suite, examples and benchmarks is
  /// recorded in DESIGN.md §17).
  static constexpr size_t kMaxStepsPerAdvance = 1 << 16;

  /// True when the query's windows can fire through a SharedWindowScan:
  /// it reads one stream and no table, is not speculative (its windows
  /// are final when they fire, so none is ever re-executed), and its loop
  /// is linear (LinearLoop), so every window follows from its index. A
  /// property of the query.
  bool shareable() const { return shareable_; }

  /// Speculative revision (DESIGN.md §15): a tuple with timestamp
  /// `late_ts` landed in (or left) the archives after windows covering it
  /// fired. Recomputes every retained fired window whose bounds contain
  /// late_ts and, for each whose result multiset changed, appends one
  /// ResultSet at the window's instant holding retraction-signed copies of
  /// the stale rows followed by the fresh assertions. No-op (returns 0)
  /// unless Options::speculative. Windows older than the retained history
  /// (kMaxFiredHistory) are never revised — the documented horizon.
  size_t Revise(Timestamp late_ts, std::vector<ResultSet>* out);

  /// True once the for-loop condition has failed (query finished).
  bool done() const { return done_; }

  /// OK unless the query ended on a limit: a malformed for-loop
  /// (WindowSequence::status) or the per-advance step budget.
  const Status& status() const {
    return status_.ok() ? sequence_.status() : status_;
  }

  const AnalyzedQuery& analyzed() const { return *analyzed_; }

  /// Cumulative number of eddy routing visits across fired windows (a
  /// work measure for benches).
  uint64_t total_visits() const { return total_visits_; }

  /// Cumulative archive tuples read by this runner's own window
  /// executions (windows fired through a SharedWindowScan count there).
  uint64_t tuples_scanned() const { return tuples_scanned_; }

 private:
  friend class SharedWindowScan;

  /// Evaluates one window step and produces its result set.
  ResultSet ExecuteWindow(const WindowSequence::Step& step);

  /// Runs window contents through a fresh Eddy plan; returns wide tuples.
  std::vector<Tuple> RunDataflow(const WindowSequence::Step& step);

  /// Ends the query on the per-advance step budget.
  void EndOnBudget();

  std::shared_ptr<const AnalyzedQuery> analyzed_;
  std::vector<const Archive*> archives_;
  std::vector<TupleVector> table_rows_;
  Options options_;

  WindowSequence sequence_;
  std::optional<WindowSequence::Step> pending_step_;
  bool done_ = false;
  Status status_ = Status::OK();  ///< Set when the step budget ends it.
  uint64_t total_visits_ = 0;
  uint64_t tuples_scanned_ = 0;
  bool shareable_ = false;

  /// Speculative mode: fired windows retained for revision, oldest first.
  struct FiredWindow {
    WindowSequence::Step step;
    TupleVector rows;  ///< The rows as last delivered (or last revised).
  };
  static constexpr size_t kMaxFiredHistory = 64;
  /// A vector, not a deque: an empty one allocates nothing, and only
  /// speculative queries fill it.
  std::vector<FiredWindow> fired_;
};

/// The standing window plan of one stream (DESIGN.md §17): fires the
/// ready windows of every shareable QueryRunner over the stream from ONE
/// archive scan per advance, instead of one scan and one Eddy per (query,
/// window). Kept up to date by Add and Remove, never rebuilt per advance:
///
///  * a QueryIndex over the queries' WHERE factors (its grouped filters
///    compile lazily on the first scan after a change);
///  * per query, one decision made at Add from its LinearLoop. Every fired
///    window comes as an index k in a run (QueryRunner::TakeRun), its t
///    and ends computed from k:
///    - a grid, when both ends move (width w, hop h), the select list
///      merges exactly — COUNT, MIN, MAX and INT64 SUM
///      (AggregatePlan::Mergeable), or plain projections — and a ring
///      holds a window's panes: partials on panes of gcd(w, h) ticks,
///      anchored at window 0's left end, in a ring indexed by pane slot.
///      Each tuple is added to one pane; window k is the in-order merge
///      of the panes from its first slot (for projections, their rows
///      concatenated);
///    - a landmark, when the query has aggregates, the left end is a
///      constant L and the right end moves: one running aggregate state
///      fed from L in archive order, each window emitted from it as the
///      scan passes the window's right end. Nothing is merged, so every
///      aggregate is exact, AVG and double SUM included;
///    - units otherwise: each window scanned whole when it fires.
///
/// The archive stays the source of truth: a kIngestLate insert or a
/// matched retraction (Archive::WatchRewrites) drops every pane from the
/// rewritten timestamp on and rewinds a running state to a copy taken
/// before it; history evicted below Archive::floor() drops every pane
/// reaching into it, and a landmark's windows become units once the
/// floor passes L. The next advance rescans what it needs. Every window
/// sees its tuples in archive order, so every ResultSet is byte-identical
/// to QueryRunner::Advance's.
class SharedWindowScan {
 public:
  /// One registered runner's standing state.
  class Query;

  /// Totals of one Advance.
  struct Stats {
    uint64_t fired = 0;    ///< Windows fired.
    uint64_t scanned = 0;  ///< Archive tuples read.
    uint64_t panes = 0;    ///< Panes built (non-empty partials made).
    uint64_t pane_rewrites = 0;  ///< Panes dropped by a rewrite or eviction.
    uint64_t budget_exceeded = 0;  ///< Runners ended by the step budget.
  };

  explicit SharedWindowScan(const Archive* archive);
  ~SharedWindowScan();
  SharedWindowScan(const SharedWindowScan&) = delete;
  SharedWindowScan& operator=(const SharedWindowScan&) = delete;

  /// Registers a shareable runner over this plan's archive. The handle
  /// stays valid until Remove.
  Query* Add(QueryRunner* runner);

  /// O(1): the query stops firing now and leaves the plan, with every
  /// other removed query, at the start of the next Advance; its slot is
  /// reused. The runner may be destroyed once Remove returns.
  void Remove(Query* query);

  /// Fires the windows of every registered runner — or of `only` —
  /// ready at `high_watermark`. Results wait in TakeResults.
  Stats Advance(Timestamp high_watermark, const Query* only = nullptr);

  /// Swaps the query's result sets from the last Advance, one per fired
  /// window in firing order, into `out`, and `out`'s cleared storage
  /// into the plan, so neither side allocates again in steady state.
  void TakeResults(Query* query, std::vector<ResultSet>* out);

 private:
  /// Drops the removed queries' factors and frees their slots for reuse.
  void ReleaseRemoved();
  /// Drops panes the archive rewrote or evicted since the last Advance.
  uint64_t DropStalePanes();

  const Archive* archive_;
  std::shared_ptr<Timestamp> rewrite_mark_;  ///< Archive::WatchRewrites.
  Timestamp floor_seen_ = kMinTimestamp;     ///< Archive::floor() applied.
  /// By slot, a query's bit in index_; null when free.
  std::vector<std::unique_ptr<Query>> queries_;
  std::vector<size_t> removed_;  ///< Slots removed since the last Advance.
  std::vector<size_t> free_;     ///< Slots to reuse.
  QueryIndex index_;
  /// One Advance's scan ranges, before and after merging, and the queries
  /// it touched (kept for their storage).
  std::vector<std::pair<Timestamp, Timestamp>> ranges_, merged_;
  std::vector<Query*> busy_;
};

}  // namespace tcq

#endif  // TCQ_CORE_RUNNER_H_
