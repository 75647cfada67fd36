#ifndef TCQ_EXPR_AST_H_
#define TCQ_EXPR_AST_H_

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "tuple/schema.h"
#include "tuple/tuple.h"
#include "tuple/value.h"

namespace tcq {

enum class ExprKind : uint8_t {
  kLiteral,
  kColumn,
  kVariable,  ///< For-loop variables ("t", "ST") in window bound expressions.
  kUnary,
  kBinary,
  kAggregate,
};

enum class BinaryOp : uint8_t {
  kAdd,
  kSub,
  kMul,
  kDiv,
  kMod,
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kAnd,
  kOr,
};

enum class UnaryOp : uint8_t {
  kNot,
  kNeg,
};

enum class AggKind : uint8_t {
  kCount,
  kSum,
  kAvg,
  kMin,
  kMax,
};

const char* BinaryOpToString(BinaryOp op);
const char* AggKindToString(AggKind k);

class Expr;
using ExprPtr = std::shared_ptr<const Expr>;

/// The values of a window-bound expression's two variables, by slot:
/// kLoopVarSlot holds the for-loop variable, kStartTimeSlot holds `ST`,
/// the query start time. Expr::Variable fixes a node's slot from its name.
using LoopVars = std::array<int64_t, 2>;
inline constexpr int kLoopVarSlot = 0;
inline constexpr int kStartTimeSlot = 1;

/// An expression tree node. Nodes are immutable and shared; Bind() produces
/// a new tree with column references resolved against a schema, and the
/// bound tree evaluates against tuples without further lookups.
///
/// Expressions are used in three roles:
///  * WHERE predicates and SELECT items over stream tuples,
///  * window bound expressions over the for-loop variable `t` (kVariable),
///  * aggregate calls (kAggregate) — evaluated incrementally by the
///    Aggregate module, never by Eval() directly.
class Expr : public std::enable_shared_from_this<Expr> {
  /// Keeps construction to the factories.
  struct Key {
    explicit Key() = default;
  };

 public:
  // -- Factories ------------------------------------------------------------
  static ExprPtr Literal(Value v);
  static ExprPtr Column(std::string name);
  /// `ST` takes kStartTimeSlot, any other name kLoopVarSlot (a for-loop
  /// names one variable, and ValidateForLoop rejects any other name).
  static ExprPtr Variable(std::string name);
  static ExprPtr Unary(UnaryOp op, ExprPtr operand);
  static ExprPtr Binary(BinaryOp op, ExprPtr left, ExprPtr right);
  static ExprPtr Aggregate(AggKind kind, ExprPtr arg);
  /// COUNT(*) — aggregate with no argument.
  static ExprPtr CountStar();

  // -- Inspectors -----------------------------------------------------------
  ExprKind kind() const { return kind_; }
  const Value& literal() const { return literal_; }
  const std::string& column_name() const { return name_; }
  const std::string& variable_name() const { return name_; }
  /// Resolved field index after Bind(); -1 when unbound.
  int column_index() const { return column_index_; }
  /// kVariable: its LoopVars slot.
  int variable_slot() const { return column_index_; }
  BinaryOp binary_op() const { return binary_op_; }
  UnaryOp unary_op() const { return unary_op_; }
  AggKind agg_kind() const { return agg_kind_; }
  const ExprPtr& left() const { return left_; }
  const ExprPtr& right() const { return right_; }
  /// Aggregate argument; nullptr for COUNT(*).
  const ExprPtr& agg_arg() const { return left_; }

  /// Result type; valid after a successful Bind (or for variable-free trees).
  ValueType result_type() const { return result_type_; }

  // -- Binding & evaluation ---------------------------------------------
  /// Resolves column references against `schema` and type-checks the tree.
  /// Aggregates are rejected here — they must be lifted out by the analyzer
  /// before predicate/projection binding.
  Result<ExprPtr> Bind(const Schema& schema) const;

  /// Evaluates a bound tree on a tuple. Variables read their slot of
  /// `vars` (pass nullptr when the tree has none). Type errors are caught
  /// at bind time, so this never fails; NULL propagates through operators
  /// and makes comparisons false (SQL-ish two-valued logic is sufficient).
  Value Eval(const Tuple& tuple, const LoopVars* vars = nullptr) const;

  /// Evaluates a tuple-free tree (window bounds) against variables only.
  Value EvalConst(const LoopVars& vars) const;

  // -- Analysis helpers ------------------------------------------------------
  /// True if any node in the tree is an aggregate call.
  bool ContainsAggregate() const;

  /// Appends the (unbound) column names referenced anywhere in the tree.
  void CollectColumns(std::vector<std::string>* out) const;

  std::string ToString() const;

  explicit Expr(Key) {}
  Expr(Key, const Expr& other) : Expr(other) {}

 private:
  Expr(const Expr&) = default;

  /// One allocation for the node and its control block.
  static std::shared_ptr<Expr> Make(ExprKind kind);

  Value EvalInternal(const Tuple* tuple, const LoopVars* vars) const;

  ExprKind kind_ = ExprKind::kLiteral;
  Value literal_;
  std::string name_;
  int column_index_ = -1;  ///< kColumn: the field; kVariable: the slot.
  BinaryOp binary_op_ = BinaryOp::kAdd;
  UnaryOp unary_op_ = UnaryOp::kNot;
  AggKind agg_kind_ = AggKind::kCount;
  ExprPtr left_;
  ExprPtr right_;
  ValueType result_type_ = ValueType::kNull;
};

/// Splits a predicate into its top-level AND conjuncts ("boolean factors"
/// in the paper's CACQ terminology).
std::vector<ExprPtr> ExtractConjuncts(const ExprPtr& expr);

/// Rebuilds a conjunction from factors; returns TRUE literal when empty.
ExprPtr MakeConjunction(const std::vector<ExprPtr>& conjuncts);

}  // namespace tcq

#endif  // TCQ_EXPR_AST_H_
