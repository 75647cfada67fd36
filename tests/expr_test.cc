#include "expr/ast.h"

#include <gtest/gtest.h>

namespace tcq {
namespace {

SchemaPtr StockSchema() {
  return Schema::Make({{"timestamp", ValueType::kInt64, ""},
                       {"stockSymbol", ValueType::kString, ""},
                       {"closingPrice", ValueType::kDouble, ""}});
}

Tuple StockTuple(int64_t ts, const std::string& sym, double price) {
  return Tuple::Make(
      {Value::Int64(ts), Value::String(sym), Value::Double(price)}, ts);
}

TEST(ExprTest, LiteralEval) {
  ExprPtr e = Expr::Literal(Value::Int64(7));
  EXPECT_EQ(e->Eval(Tuple()).int64_value(), 7);
  EXPECT_EQ(e->result_type(), ValueType::kInt64);
}

TEST(ExprTest, ColumnBindingResolvesIndexAndType) {
  SchemaPtr schema = StockSchema();
  auto bound = Expr::Column("closingPrice")->Bind(*schema);
  ASSERT_TRUE(bound.ok());
  EXPECT_EQ((*bound)->column_index(), 2);
  EXPECT_EQ((*bound)->result_type(), ValueType::kDouble);
  EXPECT_DOUBLE_EQ((*bound)->Eval(StockTuple(1, "MSFT", 55.0)).double_value(),
                   55.0);
}

TEST(ExprTest, UnknownColumnFailsBind) {
  auto bound = Expr::Column("volume")->Bind(*StockSchema());
  EXPECT_EQ(bound.status().code(), StatusCode::kNotFound);
}

TEST(ExprTest, ComparisonPredicate) {
  // closingPrice > 50.0
  ExprPtr pred = Expr::Binary(BinaryOp::kGt, Expr::Column("closingPrice"),
                              Expr::Literal(Value::Double(50.0)));
  auto bound = pred->Bind(*StockSchema());
  ASSERT_TRUE(bound.ok());
  EXPECT_EQ((*bound)->result_type(), ValueType::kBool);
  EXPECT_TRUE((*bound)->Eval(StockTuple(1, "MSFT", 55.0)).bool_value());
  EXPECT_FALSE((*bound)->Eval(StockTuple(1, "MSFT", 45.0)).bool_value());
}

TEST(ExprTest, StringEquality) {
  ExprPtr pred = Expr::Binary(BinaryOp::kEq, Expr::Column("stockSymbol"),
                              Expr::Literal(Value::String("MSFT")));
  auto bound = pred->Bind(*StockSchema());
  ASSERT_TRUE(bound.ok());
  EXPECT_TRUE((*bound)->Eval(StockTuple(1, "MSFT", 1.0)).bool_value());
  EXPECT_FALSE((*bound)->Eval(StockTuple(1, "IBM", 1.0)).bool_value());
}

TEST(ExprTest, AndOrShortCircuit) {
  ExprPtr lhs = Expr::Binary(BinaryOp::kEq, Expr::Column("stockSymbol"),
                             Expr::Literal(Value::String("MSFT")));
  ExprPtr rhs = Expr::Binary(BinaryOp::kGt, Expr::Column("closingPrice"),
                             Expr::Literal(Value::Double(50.0)));
  auto both = Expr::Binary(BinaryOp::kAnd, lhs, rhs)->Bind(*StockSchema());
  auto either = Expr::Binary(BinaryOp::kOr, lhs, rhs)->Bind(*StockSchema());
  ASSERT_TRUE(both.ok());
  ASSERT_TRUE(either.ok());
  EXPECT_TRUE((*both)->Eval(StockTuple(1, "MSFT", 51.0)).bool_value());
  EXPECT_FALSE((*both)->Eval(StockTuple(1, "MSFT", 49.0)).bool_value());
  EXPECT_TRUE((*either)->Eval(StockTuple(1, "MSFT", 49.0)).bool_value());
  EXPECT_FALSE((*either)->Eval(StockTuple(1, "IBM", 49.0)).bool_value());
}

TEST(ExprTest, ArithmeticIntAndDouble) {
  // timestamp + 1 stays integer; closingPrice * 2 is double.
  auto int_expr = Expr::Binary(BinaryOp::kAdd, Expr::Column("timestamp"),
                               Expr::Literal(Value::Int64(1)))
                      ->Bind(*StockSchema());
  ASSERT_TRUE(int_expr.ok());
  EXPECT_EQ((*int_expr)->result_type(), ValueType::kInt64);
  EXPECT_EQ((*int_expr)->Eval(StockTuple(9, "A", 0.0)).int64_value(), 10);

  auto dbl_expr = Expr::Binary(BinaryOp::kMul, Expr::Column("closingPrice"),
                               Expr::Literal(Value::Int64(2)))
                      ->Bind(*StockSchema());
  ASSERT_TRUE(dbl_expr.ok());
  EXPECT_EQ((*dbl_expr)->result_type(), ValueType::kDouble);
  EXPECT_DOUBLE_EQ((*dbl_expr)->Eval(StockTuple(1, "A", 3.5)).double_value(),
                   7.0);
}

TEST(ExprTest, DivisionByZeroYieldsNull) {
  auto e = Expr::Binary(BinaryOp::kDiv, Expr::Literal(Value::Int64(1)),
                        Expr::Literal(Value::Int64(0)));
  EXPECT_TRUE(e->Eval(Tuple()).is_null());
}

TEST(ExprTest, IntegerOverflowYieldsNull) {
  auto lit = [](int64_t v) { return Expr::Literal(Value::Int64(v)); };
  const int64_t max = INT64_MAX;
  const int64_t min = INT64_MIN;
  EXPECT_TRUE(Expr::Binary(BinaryOp::kAdd, lit(max), lit(1))
                  ->Eval(Tuple())
                  .is_null());
  EXPECT_TRUE(Expr::Binary(BinaryOp::kSub, lit(min), lit(1))
                  ->Eval(Tuple())
                  .is_null());
  EXPECT_TRUE(Expr::Binary(BinaryOp::kMul, lit(max), lit(2))
                  ->Eval(Tuple())
                  .is_null());
  EXPECT_TRUE(Expr::Binary(BinaryOp::kDiv, lit(min), lit(-1))
                  ->Eval(Tuple())
                  .is_null());
  EXPECT_TRUE(Expr::Unary(UnaryOp::kNeg, lit(min))->Eval(Tuple()).is_null());
  EXPECT_EQ(Expr::Binary(BinaryOp::kMod, lit(min), lit(-1))
                ->Eval(Tuple())
                .int64_value(),
            0);
  // In-range arithmetic is unchanged.
  EXPECT_EQ(Expr::Binary(BinaryOp::kAdd, lit(max - 1), lit(1))
                ->Eval(Tuple())
                .int64_value(),
            max);
  EXPECT_EQ(Expr::Binary(BinaryOp::kMod, lit(-7), lit(3))
                ->Eval(Tuple())
                .int64_value(),
            -1);
}

TEST(ExprTest, ModRequiresIntegers) {
  auto bad = Expr::Binary(BinaryOp::kMod, Expr::Column("closingPrice"),
                          Expr::Literal(Value::Int64(2)))
                 ->Bind(*StockSchema());
  EXPECT_EQ(bad.status().code(), StatusCode::kTypeError);
}

TEST(ExprTest, TypeErrorOnStringNumberComparison) {
  auto bad = Expr::Binary(BinaryOp::kLt, Expr::Column("stockSymbol"),
                          Expr::Literal(Value::Int64(5)))
                 ->Bind(*StockSchema());
  EXPECT_EQ(bad.status().code(), StatusCode::kTypeError);
}

TEST(ExprTest, NotRequiresBool) {
  auto bad = Expr::Unary(UnaryOp::kNot, Expr::Column("closingPrice"))
                 ->Bind(*StockSchema());
  EXPECT_EQ(bad.status().code(), StatusCode::kTypeError);
  auto good =
      Expr::Unary(UnaryOp::kNot,
                  Expr::Binary(BinaryOp::kGt, Expr::Column("closingPrice"),
                               Expr::Literal(Value::Double(50))))
          ->Bind(*StockSchema());
  ASSERT_TRUE(good.ok());
  EXPECT_TRUE((*good)->Eval(StockTuple(1, "A", 40.0)).bool_value());
}

TEST(ExprTest, NegationOfNumeric) {
  auto e = Expr::Unary(UnaryOp::kNeg, Expr::Column("timestamp"))
               ->Bind(*StockSchema());
  ASSERT_TRUE(e.ok());
  EXPECT_EQ((*e)->Eval(StockTuple(5, "A", 0.0)).int64_value(), -5);
}

TEST(ExprTest, NullComparisonIsFalse) {
  auto e = Expr::Binary(BinaryOp::kEq, Expr::Literal(Value::Null()),
                        Expr::Literal(Value::Null()));
  EXPECT_FALSE(e->Eval(Tuple()).bool_value());
}

TEST(ExprTest, VariablesEvaluateAgainstTheirSlots) {
  // t - ST with t = 10, ST = 4 (a window bound expression).
  ExprPtr e = Expr::Binary(BinaryOp::kSub, Expr::Variable("t"),
                           Expr::Variable("ST"));
  EXPECT_EQ(e->left()->variable_slot(), kLoopVarSlot);
  EXPECT_EQ(e->right()->variable_slot(), kStartTimeSlot);
  LoopVars vars{};
  vars[kLoopVarSlot] = 10;
  vars[kStartTimeSlot] = 4;
  EXPECT_EQ(e->EvalConst(vars).int64_value(), 6);
}

TEST(ExprTest, BindSharesLiteralAndVariableNodes) {
  auto schema = Schema::Make({{"x", ValueType::kInt64, ""}});
  ExprPtr lit = Expr::Literal(Value::Int64(3));
  ExprPtr e = Expr::Binary(BinaryOp::kLt, Expr::Column("x"), lit);
  auto bound = e->Bind(*schema);
  ASSERT_TRUE(bound.ok());
  EXPECT_EQ((*bound)->right(), lit);  // The same node, not a copy.
  EXPECT_NE((*bound)->left(), e->left());  // A column binds to a new node.
  EXPECT_EQ((*bound)->left()->column_index(), 0);
  EXPECT_EQ(e->left()->column_index(), -1);  // The unbound tree is intact.
}

TEST(ExprTest, CollectColumnsSkipsVariables) {
  ExprPtr e = Expr::Binary(
      BinaryOp::kAnd,
      Expr::Binary(BinaryOp::kGt, Expr::Column("closingPrice"),
                   Expr::Literal(Value::Double(1))),
      Expr::Binary(BinaryOp::kLe, Expr::Column("timestamp"),
                   Expr::Variable("t")));
  std::vector<std::string> cols;
  e->CollectColumns(&cols);
  ASSERT_EQ(cols.size(), 2u);
  EXPECT_EQ(cols[0], "closingPrice");
  EXPECT_EQ(cols[1], "timestamp");
}

TEST(ExprTest, ContainsAggregate) {
  ExprPtr agg = Expr::Aggregate(AggKind::kAvg, Expr::Column("closingPrice"));
  EXPECT_TRUE(agg->ContainsAggregate());
  ExprPtr wrapped = Expr::Binary(BinaryOp::kGt, agg,
                                 Expr::Literal(Value::Double(10)));
  EXPECT_TRUE(wrapped->ContainsAggregate());
  EXPECT_FALSE(Expr::Column("x")->ContainsAggregate());
}

TEST(ExprTest, AggregateRejectedByBind) {
  ExprPtr agg = Expr::Aggregate(AggKind::kMax, Expr::Column("closingPrice"));
  EXPECT_FALSE(agg->Bind(*StockSchema()).ok());
}

TEST(ExprTest, ExtractConjunctsFlattensAndTree) {
  ExprPtr a = Expr::Binary(BinaryOp::kGt, Expr::Column("a"),
                           Expr::Literal(Value::Int64(1)));
  ExprPtr b = Expr::Binary(BinaryOp::kLt, Expr::Column("b"),
                           Expr::Literal(Value::Int64(2)));
  ExprPtr c = Expr::Binary(BinaryOp::kEq, Expr::Column("c"),
                           Expr::Literal(Value::Int64(3)));
  ExprPtr tree =
      Expr::Binary(BinaryOp::kAnd, Expr::Binary(BinaryOp::kAnd, a, b), c);
  auto conjuncts = ExtractConjuncts(tree);
  ASSERT_EQ(conjuncts.size(), 3u);
  EXPECT_EQ(conjuncts[0]->ToString(), a->ToString());
  EXPECT_EQ(conjuncts[2]->ToString(), c->ToString());
}

TEST(ExprTest, ConjunctsDoNotCrossOr) {
  ExprPtr a = Expr::Binary(BinaryOp::kGt, Expr::Column("a"),
                           Expr::Literal(Value::Int64(1)));
  ExprPtr b = Expr::Binary(BinaryOp::kLt, Expr::Column("b"),
                           Expr::Literal(Value::Int64(2)));
  ExprPtr tree = Expr::Binary(BinaryOp::kOr, a, b);
  EXPECT_EQ(ExtractConjuncts(tree).size(), 1u);
}

TEST(ExprTest, MakeConjunctionRoundTrip) {
  ExprPtr a = Expr::Binary(BinaryOp::kGt, Expr::Column("a"),
                           Expr::Literal(Value::Int64(1)));
  ExprPtr b = Expr::Binary(BinaryOp::kLt, Expr::Column("a"),
                           Expr::Literal(Value::Int64(10)));
  ExprPtr conj = MakeConjunction({a, b});
  EXPECT_EQ(ExtractConjuncts(conj).size(), 2u);
  // Empty conjunction is TRUE.
  EXPECT_TRUE(MakeConjunction({})->Eval(Tuple()).bool_value());
}

TEST(ExprTest, ToStringReadable) {
  ExprPtr e = Expr::Binary(BinaryOp::kGt, Expr::Column("closingPrice"),
                           Expr::Literal(Value::Double(50)));
  EXPECT_EQ(e->ToString(), "(closingPrice > 50.0)");
}

TEST(ExprTest, LiteralsPrintAsTheParserReadsThem) {
  EXPECT_EQ(Expr::Literal(Value::String("it's"))->ToString(), "'it''s'");
  EXPECT_EQ(Expr::Literal(Value::Double(123456789.25))->ToString(),
            "123456789.25");  // Not 1.23457e+08.
  EXPECT_EQ(Expr::Literal(Value::Double(-0.5))->ToString(), "-0.5");
  EXPECT_EQ(Expr::Literal(Value::Int64(INT64_MIN))->ToString(),
            "-9223372036854775808");
}

}  // namespace
}  // namespace tcq
