#ifndef TCQ_EXPR_PREDICATES_H_
#define TCQ_EXPR_PREDICATES_H_

#include <optional>
#include <set>
#include <string>
#include <vector>

#include "expr/ast.h"

namespace tcq {

/// A single-variable boolean factor in canonical `column op constant` form —
/// the shape CACQ indexes in grouped filters (§3.1).
struct SimplePredicate {
  std::string column;  ///< Possibly qualified column name.
  BinaryOp op;         ///< One of the six comparisons.
  Value constant;
};

/// An equi-join boolean factor `left_column = right_column` spanning two
/// sources — the shape SteMs index (§2.2).
struct EquiJoinPredicate {
  std::string left_column;
  std::string right_column;
};

/// Canonicalizes `expr` as a SimplePredicate if it is a comparison between
/// one column and one literal (either orientation; `5 < x` flips to
/// `x > 5`). Returns nullopt otherwise.
std::optional<SimplePredicate> MatchSimplePredicate(const ExprPtr& expr);

/// Matches `colA = colB` (equality only, both sides bare columns).
std::optional<EquiJoinPredicate> MatchEquiJoin(const ExprPtr& expr);

/// How shared execution evaluates one boolean factor of a conjunctive
/// WHERE clause: the split CACQ makes (§3.1). The standing-query engine
/// classifies with it, and so does the analyzer, whose result the shared
/// window scan reads.
struct FactorPlan {
  enum class Kind : uint8_t {
    kJoin,      ///< `a.x = b.y` across two sources: SteM machinery.
    kGrouped,   ///< `column op constant`: a per-column GroupedFilter.
    kResidual,  ///< Anything else: evaluated per query.
  };
  Kind kind = Kind::kResidual;
  size_t column = 0;    ///< kGrouped: the indexed column; kJoin: left side.
  size_t column_b = 0;  ///< kJoin: right side.
  BinaryOp op = BinaryOp::kEq;  ///< kGrouped.
  Value constant;               ///< kGrouped: of the column's type.
  ExprPtr bound;                ///< kResidual: the factor bound to `schema`.
};

/// Classifies `factor` against the full-width `schema`. An equality of two
/// columns is a join only when their qualifiers (sources) differ; a
/// same-source equality is residual. A `column op constant` factor is
/// grouped when the constant has the column's type, or is an INT64 on a
/// DOUBLE column (converted to the double it compares as); any other
/// type mix, and a NaN constant, is residual. Fails when a referenced
/// column does not resolve (or a residual does not bind).
Result<FactorPlan> ClassifyFactor(const ExprPtr& factor, const Schema& schema);

/// Mirrors a comparison across `=` (applies when operands are swapped):
/// < becomes >, <= becomes >=, =/!= unchanged.
BinaryOp FlipComparison(BinaryOp op);

/// The qualifier ("c1" in "c1.price") or "" when the name is bare.
std::string QualifierOf(const std::string& column_name);

/// The set of qualifiers referenced by the expression's columns. Bare
/// columns (no qualifier) contribute "" — the analyzer resolves those to a
/// unique source before classification.
std::set<std::string> CollectQualifiers(const ExprPtr& expr);

}  // namespace tcq

#endif  // TCQ_EXPR_PREDICATES_H_
