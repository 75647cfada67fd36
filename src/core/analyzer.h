#ifndef TCQ_CORE_ANALYZER_H_
#define TCQ_CORE_ANALYZER_H_

#include <memory>
#include <string>
#include <vector>

#include "common/bitset.h"
#include "eddy/routed_tuple.h"
#include "expr/ast.h"
#include "expr/predicates.h"
#include "modules/aggregate.h"
#include "parser/parser.h"
#include "tuple/catalog.h"
#include "window/window.h"

namespace tcq {

/// The semantic analysis of one query: sources resolved against the
/// catalog, predicates classified into join edges and filters bound
/// against the canonical full-width schema, the select list split into
/// projections/aggregates, and the window clause validated. This is the
/// input both to the single-query runner and to the shared (CACQ) path.
struct AnalyzedQuery {
  ParsedQuery parsed;

  /// Canonical layout: one source per FROM entry, in FROM order, aliased.
  std::shared_ptr<SourceLayout> layout;
  std::vector<StreamDef> defs;  ///< Catalog entry per source.

  /// An equi-join boolean factor `a.x = b.y` across two sources.
  struct JoinEdge {
    size_t src_a;
    int col_a;  ///< Absolute column index in the full schema.
    size_t src_b;
    int col_b;
  };
  std::vector<JoinEdge> joins;

  /// Non-join conjuncts, bound, with the set of sources each reads.
  struct BoundFilter {
    SmallBitset required;
    ExprPtr expr;
    /// The factor's shared-execution class (ClassifyFactor), as a
    /// QueryIndex registers it: kGrouped carries column/op/constant,
    /// kResidual carries `expr` as plan.bound. Never kJoin.
    FactorPlan plan;
  };
  std::vector<BoundFilter> filters;

  /// Select list, bound. Aggregated and plain queries are disjoint modes:
  /// with aggregates, `group_by` keys plus `aggregates` define the output;
  /// without, `projections` do.
  std::vector<ExprPtr> projections;
  std::vector<std::string> output_names;
  std::vector<AggregateSpec> aggregates;
  std::vector<ExprPtr> group_by;
  bool has_aggregates = false;
  /// `aggregates` and `group_by` resolved for evaluation, once per query
  /// (empty without aggregates).
  AggregatePlan aggregate_plan;

  /// The window clause; absent for pure-table snapshots and unwindowed
  /// continuous filter queries.
  std::optional<ForLoopSpec> window;
  /// Per source: index of its WindowIs clause in window->windows, or -1
  /// (static table semantics per the paper).
  std::vector<int> window_clause_of_source;

  /// True when every source is a static table.
  bool tables_only = false;
  /// True when the query can run in CACQ shared mode: one stream, no
  /// window clause, no aggregates — a standing filter query.
  bool cacq_eligible = false;

  /// Schema of result rows.
  SchemaPtr output_schema;
};

/// Resolves and type-checks `query` against `catalog`; the result keeps
/// it as `parsed`.
Result<AnalyzedQuery> Analyze(ParsedQuery query, const Catalog& catalog);

/// Convenience: parse + analyze.
Result<AnalyzedQuery> AnalyzeSql(const std::string& sql,
                                 const Catalog& catalog);

/// A query's plain select list (`projections`) evaluated on `t`: one
/// result row at t's timestamp, its cells built in place.
Tuple EvalSelectList(const AnalyzedQuery& aq, const Tuple& t);

}  // namespace tcq

#endif  // TCQ_CORE_ANALYZER_H_
