#include "expr/predicates.h"

#include <gtest/gtest.h>

namespace tcq {
namespace {

TEST(PredicatesTest, MatchSimpleColumnOpLiteral) {
  ExprPtr e = Expr::Binary(BinaryOp::kGt, Expr::Column("price"),
                           Expr::Literal(Value::Double(50)));
  auto m = MatchSimplePredicate(e);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->column, "price");
  EXPECT_EQ(m->op, BinaryOp::kGt);
  EXPECT_DOUBLE_EQ(m->constant.double_value(), 50.0);
}

TEST(PredicatesTest, MatchFlipsLiteralOpColumn) {
  // 50 < price  ==>  price > 50.
  ExprPtr e = Expr::Binary(BinaryOp::kLt, Expr::Literal(Value::Double(50)),
                           Expr::Column("price"));
  auto m = MatchSimplePredicate(e);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->column, "price");
  EXPECT_EQ(m->op, BinaryOp::kGt);
}

TEST(PredicatesTest, EqualityIsSymmetricUnderFlip) {
  ExprPtr e = Expr::Binary(BinaryOp::kEq, Expr::Literal(Value::String("M")),
                           Expr::Column("sym"));
  auto m = MatchSimplePredicate(e);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->op, BinaryOp::kEq);
}

TEST(PredicatesTest, RejectsNonSimpleShapes) {
  // col op col.
  EXPECT_FALSE(MatchSimplePredicate(Expr::Binary(BinaryOp::kEq,
                                                 Expr::Column("a"),
                                                 Expr::Column("b")))
                   .has_value());
  // arithmetic.
  EXPECT_FALSE(MatchSimplePredicate(Expr::Binary(BinaryOp::kAdd,
                                                 Expr::Column("a"),
                                                 Expr::Literal(Value::Int64(1))))
                   .has_value());
  // AND node.
  ExprPtr cmp = Expr::Binary(BinaryOp::kGt, Expr::Column("a"),
                             Expr::Literal(Value::Int64(1)));
  EXPECT_FALSE(
      MatchSimplePredicate(Expr::Binary(BinaryOp::kAnd, cmp, cmp)).has_value());
  // nullptr.
  EXPECT_FALSE(MatchSimplePredicate(nullptr).has_value());
}

TEST(PredicatesTest, MatchEquiJoin) {
  ExprPtr e = Expr::Binary(BinaryOp::kEq, Expr::Column("c1.timestamp"),
                           Expr::Column("c2.timestamp"));
  auto m = MatchEquiJoin(e);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->left_column, "c1.timestamp");
  EXPECT_EQ(m->right_column, "c2.timestamp");
}

TEST(PredicatesTest, EquiJoinRequiresEquality) {
  ExprPtr e = Expr::Binary(BinaryOp::kGt, Expr::Column("a"),
                           Expr::Column("b"));
  EXPECT_FALSE(MatchEquiJoin(e).has_value());
}

TEST(PredicatesTest, FlipComparisonTable) {
  EXPECT_EQ(FlipComparison(BinaryOp::kLt), BinaryOp::kGt);
  EXPECT_EQ(FlipComparison(BinaryOp::kLe), BinaryOp::kGe);
  EXPECT_EQ(FlipComparison(BinaryOp::kGt), BinaryOp::kLt);
  EXPECT_EQ(FlipComparison(BinaryOp::kGe), BinaryOp::kLe);
  EXPECT_EQ(FlipComparison(BinaryOp::kEq), BinaryOp::kEq);
  EXPECT_EQ(FlipComparison(BinaryOp::kNe), BinaryOp::kNe);
}

TEST(PredicatesTest, QualifierOf) {
  EXPECT_EQ(QualifierOf("c1.price"), "c1");
  EXPECT_EQ(QualifierOf("price"), "");
}

TEST(PredicatesTest, CollectQualifiers) {
  ExprPtr e = Expr::Binary(
      BinaryOp::kAnd,
      Expr::Binary(BinaryOp::kEq, Expr::Column("c1.sym"),
                   Expr::Column("c2.sym")),
      Expr::Binary(BinaryOp::kGt, Expr::Column("price"),
                   Expr::Literal(Value::Int64(0))));
  auto quals = CollectQualifiers(e);
  EXPECT_EQ(quals.size(), 3u);
  EXPECT_TRUE(quals.count("c1"));
  EXPECT_TRUE(quals.count("c2"));
  EXPECT_TRUE(quals.count(""));
}

SchemaPtr TwoSourceSchema() {
  return Schema::Make({{"sym", ValueType::kString, "a"},
                       {"price", ValueType::kDouble, "a"},
                       {"qty", ValueType::kInt64, "a"},
                       {"sym", ValueType::kString, "b"}});
}

TEST(PredicatesTest, ClassifyFactorGroupsColumnConstantComparisons) {
  const SchemaPtr schema = TwoSourceSchema();
  // 2.5 < a.qty flips to qty > 2.5; the INT column keeps its DOUBLE
  // constant (the grouped index compares across numeric types).
  auto plan = ClassifyFactor(
      Expr::Binary(BinaryOp::kLt, Expr::Literal(Value::Double(2.5)),
                   Expr::Column("a.qty")),
      *schema);
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(plan->kind, FactorPlan::Kind::kGrouped);
  EXPECT_EQ(plan->column, 2u);
  EXPECT_EQ(plan->op, BinaryOp::kGt);
  EXPECT_DOUBLE_EQ(plan->constant.double_value(), 2.5);

  auto ne = ClassifyFactor(Expr::Binary(BinaryOp::kNe, Expr::Column("price"),
                                        Expr::Literal(Value::Int64(3))),
                           *schema);
  ASSERT_TRUE(ne.ok());
  EXPECT_EQ(ne->kind, FactorPlan::Kind::kGrouped);
  EXPECT_EQ(ne->column, 1u);
  EXPECT_EQ(ne->op, BinaryOp::kNe);
}

TEST(PredicatesTest, ClassifyFactorResiduals) {
  const SchemaPtr schema = TwoSourceSchema();
  // Arithmetic over a column: bound residual.
  auto arith = ClassifyFactor(
      Expr::Binary(BinaryOp::kGt,
                   Expr::Binary(BinaryOp::kAdd, Expr::Column("price"),
                                Expr::Literal(Value::Int64(1))),
                   Expr::Literal(Value::Int64(5))),
      *schema);
  ASSERT_TRUE(arith.ok());
  EXPECT_EQ(arith->kind, FactorPlan::Kind::kResidual);
  ASSERT_NE(arith->bound, nullptr);
  EXPECT_TRUE(arith->bound
                  ->Eval(Tuple::Make({Value::String("x"), Value::Double(4.5),
                                      Value::Int64(0), Value::String("y")}))
                  .bool_value());
  // Same-source column equality is residual, not a join.
  auto same = ClassifyFactor(
      Expr::Binary(BinaryOp::kEq, Expr::Column("a.price"),
                   Expr::Column("a.qty")),
      *schema);
  ASSERT_TRUE(same.ok());
  EXPECT_EQ(same->kind, FactorPlan::Kind::kResidual);
}

TEST(PredicatesTest, ClassifyFactorJoinsAndUnknownColumns) {
  const SchemaPtr schema = TwoSourceSchema();
  auto join = ClassifyFactor(Expr::Binary(BinaryOp::kEq, Expr::Column("a.sym"),
                                          Expr::Column("b.sym")),
                             *schema);
  ASSERT_TRUE(join.ok());
  EXPECT_EQ(join->kind, FactorPlan::Kind::kJoin);
  EXPECT_EQ(join->column, 0u);
  EXPECT_EQ(join->column_b, 3u);
  EXPECT_FALSE(ClassifyFactor(Expr::Binary(BinaryOp::kEq,
                                           Expr::Column("a.nope"),
                                           Expr::Column("b.sym")),
                              *schema)
                   .ok());
  EXPECT_FALSE(ClassifyFactor(Expr::Binary(BinaryOp::kGt,
                                           Expr::Column("nope"),
                                           Expr::Literal(Value::Int64(1))),
                              *schema)
                   .ok());
}

}  // namespace
}  // namespace tcq
