#ifndef TCQ_TESTS_ORACLE_H_
#define TCQ_TESTS_ORACLE_H_

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/analyzer.h"
#include "tuple/catalog.h"
#include "tuple/tuple.h"

namespace tcq {

/// A naive reference evaluator of the paper's query semantics, for tests
/// to diff the engine against (DESIGN.md §8). It shares only the parser,
/// the analyzer, Expr and Value with the engine — no window sequence,
/// aggregator, reorder buffer, archive, eddy, SteM, grouped filter, CACQ
/// engine or query runner, because those are what it checks — and
/// recomputes everything from plain tuple vectors:
///
///  * Ingress (§15): streams carry their timestamp in column 0. An arrival
///    is released in timestamp order (ties in arrival order) once the
///    highest arrival is `max_disorder` past it; one below the released
///    frontier is a straggler, ingested late (LatePolicy::kIngestLate).
///  * Windowed queries walk their for-loop (§4.1.1) from ST = the safe
///    watermark + 1 at submission. A window fires once every stream it
///    reads has a watermark past its right end (the released frontier;
///    speculative: the highest arrival) over the history at that moment:
///    every combination of one tuple per source that passes WHERE, then
///    projected, or grouped and aggregated (integer SUM exactly).
///  * Standing queries see every tuple after their submission (released,
///    or raw arrivals when speculative) and emit a row per matching tuple,
///    or per matching pair for a `SELECT *` equi-join of two streams. A
///    retraction reaches every standing query as a signed tuple.
///  * A speculative windowed query reports each fired window over the
///    current history: the net a revising engine converges to (CEDR).
class Oracle {
 public:
  /// One delivery: a standing query's row (t = the row's timestamp) or a
  /// fired window's rows (t = the loop variable).
  struct Set {
    Timestamp t = 0;
    TupleVector rows;
  };

  /// `catalog` defines the streams; it must outlive the oracle.
  Oracle(const Catalog* catalog, Timestamp max_disorder);

  /// Registers query `label` (labels are the caller's; each used once).
  Status Submit(size_t label, const std::string& sql, bool speculative);
  /// Stops query `label`; its deliveries so far stay readable.
  void Cancel(size_t label);

  void PushBatch(const std::string& stream, std::vector<Tuple> batch);
  /// Cancels the newest archived tuple whose payload equals `tuple`.
  /// Returns false, and changes nothing, when none matches.
  bool Retract(const std::string& stream, const Tuple& tuple);
  /// The source asserts no later arrival has timestamp <= ts.
  void Heartbeat(const std::string& stream, Timestamp ts);
  /// Re-delivers the whole history to the standing queries and raises
  /// both watermarks over it (Server::ReplayStream from kMinTimestamp).
  void Replay(const std::string& stream);

  /// The stream's live history, in order.
  const std::vector<Tuple>& History(const std::string& stream) const;
  /// Deliveries of query `label`, in order.
  std::vector<Set> Results(size_t label) const;

 private:
  struct Stream {
    std::vector<Tuple> pending;  ///< Within-bound, unreleased; arrival order.
    std::vector<Tuple> history;
    Timestamp raw = kMinTimestamp;   ///< Highest within-bound arrival.
    Timestamp safe = kMinTimestamp;  ///< Released frontier or punctuation.
  };

  /// One iteration of the for-loop: t and [left, right] per WindowIs.
  struct Step {
    Timestamp t = 0;
    std::vector<std::pair<Timestamp, Timestamp>> bounds;
  };

  struct Query {
    bool live = true;
    bool speculative = false;
    bool windowed = false;
    std::vector<std::string> sources;  ///< FROM order.
    std::optional<AnalyzedQuery> analyzed;  ///< Absent for a standing join.
    // Standing queries.
    ExprPtr where;  ///< Bound to the sources' concatenated schema.
    std::vector<std::vector<Tuple>> seen;  ///< Join state per source.
    // Windowed queries: the loop's variables and its next step.
    LoopVars vars{};
    bool loop_done = false;
    std::optional<Step> next;
    std::vector<Step> fired;  ///< Speculative: answered at Results().
    std::vector<Set> out;
  };

  /// Moves `stream`'s pending tuples at or below `through` to `out`, in
  /// timestamp order (ties in arrival order).
  void Release(const std::string& stream, Timestamp through,
               std::vector<Tuple>* out);
  /// Archives released and late tuples, feeds the released ones to the
  /// delayed standing queries, raises the safe watermark to at least
  /// `safe` and fires every ready window reading `stream`.
  void Apply(const std::string& stream, const std::vector<Tuple>& released,
             const std::vector<Tuple>& late, Timestamp safe);
  /// Feeds one tuple to the standing queries on `stream`. `lane`: 0 =
  /// delayed only, 1 = speculative only, 2 = both.
  void Standing(const std::string& stream, const Tuple& t, int lane);
  void Emit(Query* q, size_t source, const Tuple& t);
  void AdvanceQuery(Query* q);
  std::optional<Step> NextStep(Query* q);
  Set Evaluate(const Query& q, const Step& step) const;

  const Catalog* catalog_;
  Timestamp max_disorder_;
  std::map<std::string, Stream> streams_;
  std::map<size_t, Query> queries_;
};

}  // namespace tcq

#endif  // TCQ_TESTS_ORACLE_H_
