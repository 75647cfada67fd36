#include "parser/parser.h"

#include <gtest/gtest.h>

namespace tcq {
namespace {

TEST(LexParserTest, SimpleSelect) {
  auto q = ParseQuery("SELECT closingPrice FROM ClosingStockPrices");
  ASSERT_TRUE(q.ok()) << q.status();
  ASSERT_EQ(q->select.size(), 1u);
  EXPECT_EQ(q->select[0].expr->column_name(), "closingPrice");
  ASSERT_EQ(q->from.size(), 1u);
  EXPECT_EQ(q->from[0].name, "ClosingStockPrices");
  EXPECT_EQ(q->where, nullptr);
  EXPECT_FALSE(q->window.has_value());
}

TEST(LexParserTest, StarAndQualifiedStar) {
  auto q1 = ParseQuery("SELECT * FROM S");
  ASSERT_TRUE(q1.ok());
  EXPECT_TRUE(q1->select[0].star);
  EXPECT_TRUE(q1->select[0].star_qualifier.empty());

  auto q2 = ParseQuery("SELECT c2.* FROM S as c2");
  ASSERT_TRUE(q2.ok());
  EXPECT_TRUE(q2->select[0].star);
  EXPECT_EQ(q2->select[0].star_qualifier, "c2");
}

TEST(LexParserTest, WhereWithAndOrPrecedence) {
  auto q = ParseQuery(
      "SELECT a FROM S WHERE a > 1 AND b < 2 OR c = 'x'");
  ASSERT_TRUE(q.ok());
  // OR binds loosest: ((a>1 AND b<2) OR c='x').
  EXPECT_EQ(q->where->binary_op(), BinaryOp::kOr);
  EXPECT_EQ(q->where->left()->binary_op(), BinaryOp::kAnd);
}

TEST(LexParserTest, ArithmeticPrecedence) {
  auto q = ParseQuery("SELECT a + b * 2 FROM S");
  ASSERT_TRUE(q.ok());
  const ExprPtr& e = q->select[0].expr;
  EXPECT_EQ(e->binary_op(), BinaryOp::kAdd);
  EXPECT_EQ(e->right()->binary_op(), BinaryOp::kMul);
}

TEST(LexParserTest, PaperSnapshotQuery) {
  // §4.1.1 example 1, verbatim modulo whitespace.
  auto q = ParseQuery(
      "SELECT closingPrice, timestamp "
      "FROM ClosingStockPrices "
      "WHERE stockSymbol = 'MSFT' "
      "for (; t == 0; t = -1) { "
      "  WindowIs(ClosingStockPrices, 1, 5); "
      "}");
  ASSERT_TRUE(q.ok()) << q.status();
  ASSERT_TRUE(q->window.has_value());
  const ForLoopSpec& w = *q->window;
  EXPECT_EQ(w.init, nullptr);
  ASSERT_EQ(w.windows.size(), 1u);
  EXPECT_EQ(w.windows[0].stream, "ClosingStockPrices");
  WindowSequence seq(&w, 0);
  auto step = seq.Next();
  ASSERT_TRUE(step.has_value());
  EXPECT_EQ(step->bounds[0].left, 1);
  EXPECT_EQ(step->bounds[0].right, 5);
  EXPECT_FALSE(seq.Next().has_value());
}

TEST(LexParserTest, PaperLandmarkQuery) {
  auto q = ParseQuery(
      "SELECT closingPrice, timestamp "
      "FROM ClosingStockPrices "
      "WHERE stockSymbol = 'MSFT' and closingPrice > 50.00 "
      "for (t = 101; t <= 1000; t++) { "
      "  WindowIs(ClosingStockPrices, 101, t); "
      "}");
  ASSERT_TRUE(q.ok()) << q.status();
  WindowSequence seq(&*q->window, 0);
  auto first = seq.Next();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->t, 101);
  EXPECT_EQ(first->bounds[0].left, 101);
  EXPECT_EQ(first->bounds[0].right, 101);
}

TEST(LexParserTest, PaperSlidingQuery) {
  auto q = ParseQuery(
      "Select AVG(closingPrice) "
      "From ClosingStockPrices "
      "Where stockSymbol = 'MSFT' "
      "for (t = ST; t < ST + 50; t += 5) { "
      "  WindowIs(ClosingStockPrices, t - 4, t); "
      "}");
  ASSERT_TRUE(q.ok()) << q.status();
  ASSERT_EQ(q->select.size(), 1u);
  EXPECT_EQ(q->select[0].expr->kind(), ExprKind::kAggregate);
  EXPECT_EQ(q->select[0].expr->agg_kind(), AggKind::kAvg);
  WindowSequence seq(&*q->window, /*st=*/100);
  auto s1 = seq.Next();
  ASSERT_TRUE(s1.has_value());
  EXPECT_EQ(s1->bounds[0].left, 96);
  EXPECT_EQ(s1->bounds[0].right, 100);
  auto s2 = seq.Next();
  ASSERT_TRUE(s2.has_value());
  EXPECT_EQ(s2->t, 105);
}

TEST(LexParserTest, PaperBandJoinQuery) {
  auto q = ParseQuery(
      "Select c2.* "
      "FROM ClosingStockPrices as c1, ClosingStockPrices as c2 "
      "WHERE c1.stockSymbol = 'MSFT' and "
      "      c2.stockSymbol != 'MSFT' and "
      "      c2.closingPrice > c1.closingPrice and "
      "      c2.timestamp = c1.timestamp "
      "for (t = ST; t < ST + 20; t++) { "
      "  WindowIs(c1, t - 4, t); "
      "  WindowIs(c2, t - 4, t); "
      "}");
  ASSERT_TRUE(q.ok()) << q.status();
  ASSERT_EQ(q->from.size(), 2u);
  EXPECT_EQ(q->from[0].alias, "c1");
  EXPECT_EQ(q->from[1].alias, "c2");
  ASSERT_EQ(q->window->windows.size(), 2u);
  EXPECT_EQ(q->window->windows[0].stream, "c1");
  EXPECT_EQ(q->window->windows[1].stream, "c2");
  auto conjuncts = ExtractConjuncts(q->where);
  EXPECT_EQ(conjuncts.size(), 4u);
}

TEST(LexParserTest, GroupBy) {
  auto q = ParseQuery(
      "SELECT srcAddr, COUNT(*) FROM Packets GROUP BY srcAddr "
      "for (t = 1; true; t += 10) { WindowIs(Packets, t, t + 9); }");
  ASSERT_TRUE(q.ok()) << q.status();
  ASSERT_EQ(q->group_by.size(), 1u);
  EXPECT_EQ(q->group_by[0]->column_name(), "srcAddr");
  EXPECT_EQ(q->select[1].expr->agg_kind(), AggKind::kCount);
  EXPECT_EQ(q->select[1].expr->agg_arg(), nullptr);  // COUNT(*).
}

TEST(LexParserTest, AggregateFunctions) {
  auto q = ParseQuery(
      "SELECT MIN(a), MAX(a), SUM(b), COUNT(b), AVG(b) FROM S "
      "for (; t == 0; t = -1) { WindowIs(S, 1, 10); }");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_EQ(q->select[0].expr->agg_kind(), AggKind::kMin);
  EXPECT_EQ(q->select[1].expr->agg_kind(), AggKind::kMax);
  EXPECT_EQ(q->select[2].expr->agg_kind(), AggKind::kSum);
  EXPECT_EQ(q->select[3].expr->agg_kind(), AggKind::kCount);
  EXPECT_EQ(q->select[4].expr->agg_kind(), AggKind::kAvg);
}

TEST(LexParserTest, AliasForms) {
  auto q = ParseQuery("SELECT p.bytes AS sz FROM Packets p");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->from[0].alias, "p");
  EXPECT_EQ(q->select[0].alias, "sz");
  EXPECT_EQ(q->select[0].expr->column_name(), "p.bytes");
}

TEST(LexParserTest, MinusEqualsStepAndReverseWindow) {
  auto q = ParseQuery(
      "SELECT a FROM S for (t = ST; t > 0; t -= 10) "
      "{ WindowIs(S, t - 9, t); }");
  ASSERT_TRUE(q.ok()) << q.status();
  WindowSequence seq(&*q->window, 100);
  auto s1 = seq.Next();
  auto s2 = seq.Next();
  ASSERT_TRUE(s2.has_value());
  EXPECT_EQ(s1->bounds[0].right, 100);
  EXPECT_EQ(s2->bounds[0].right, 90);
}

TEST(LexParserTest, CaseInsensitiveKeywordsAndComments) {
  auto q = ParseQuery(
      "select a from S -- trailing comment\nwhere a >= 3");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_EQ(q->where->binary_op(), BinaryOp::kGe);
}

TEST(LexParserTest, StringEscapes) {
  auto q = ParseQuery("SELECT a FROM S WHERE a = 'it''s'");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->where->right()->literal().string_value(), "it's");
}

TEST(LexParserTest, NotAndBooleans) {
  auto q = ParseQuery("SELECT a FROM S WHERE NOT (a = 1) AND true");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_EQ(q->where->binary_op(), BinaryOp::kAnd);
  EXPECT_EQ(q->where->left()->kind(), ExprKind::kUnary);
}

TEST(LexParserTest, ErrorCases) {
  EXPECT_FALSE(ParseQuery("").ok());
  EXPECT_FALSE(ParseQuery("SELECT FROM S").ok());
  EXPECT_FALSE(ParseQuery("SELECT a").ok());
  EXPECT_FALSE(ParseQuery("SELECT a FROM").ok());
  EXPECT_FALSE(ParseQuery("SELECT a FROM S WHERE").ok());
  EXPECT_FALSE(ParseQuery("SELECT a FROM S extra junk here").ok());
  EXPECT_FALSE(ParseQuery("SELECT a FROM S WHERE a = 'unterminated").ok());
  EXPECT_FALSE(
      ParseQuery("SELECT a FROM S for (t = 1; true) { }").ok());
  EXPECT_FALSE(
      ParseQuery("SELECT a FROM S for (t = 1; true; t++) { bogus; }").ok());
  EXPECT_FALSE(ParseQuery("SELECT MIN(*) FROM S").ok());
}

TEST(LexParserTest, OutOfRangeIntegerLiteralIsAnErrorAtItsOffset) {
  // Once clamped silently to INT64_MAX.
  auto q = ParseQuery("SELECT a FROM S WHERE a > 99999999999999999999");
  ASSERT_FALSE(q.ok());
  EXPECT_EQ(q.status().code(), StatusCode::kParseError);
  EXPECT_NE(q.status().message().find("out of range at offset 26"),
            std::string::npos)
      << q.status();
  // 2^63 is in range only as the magnitude of INT64_MIN.
  auto plus = ParseQuery("SELECT a FROM S WHERE a > 9223372036854775808");
  ASSERT_FALSE(plus.ok());
  EXPECT_NE(plus.status().message().find("at offset 26"), std::string::npos)
      << plus.status();
  EXPECT_FALSE(ParseQuery("SELECT a FROM S WHERE a > 2 - 9223372036854775808")
                   .ok());
  EXPECT_FALSE(ParseQuery("SELECT a FROM S WHERE a > -9223372036854775809")
                   .ok());
}

TEST(LexParserTest, Int64ExtremesParseExactly) {
  auto min = ParseQuery("SELECT a FROM S WHERE a > -9223372036854775808");
  ASSERT_TRUE(min.ok()) << min.status();
  const ExprPtr& lit = min->where->right();
  ASSERT_EQ(lit->kind(), ExprKind::kLiteral);
  EXPECT_EQ(lit->literal().int64_value(), INT64_MIN);  // Was INT64_MIN + 1.
  auto max = ParseQuery("SELECT a FROM S WHERE a < 9223372036854775807");
  ASSERT_TRUE(max.ok()) << max.status();
  EXPECT_EQ(max->where->right()->literal().int64_value(), INT64_MAX);
  // Negating INT64_MIN again is no literal: it evaluates to NULL.
  auto neg = ParseQuery("SELECT a FROM S WHERE a > - -9223372036854775808");
  ASSERT_TRUE(neg.ok()) << neg.status();
  EXPECT_EQ(neg->where->right()->kind(), ExprKind::kUnary);
  EXPECT_TRUE(neg->where->right()->Eval(Tuple()).is_null());
}

TEST(LexParserTest, TrailingSemicolonAccepted) {
  EXPECT_TRUE(ParseQuery("SELECT a FROM S;").ok());
}

TEST(LexParserTest, ToStringRoundTripParses) {
  auto q = ParseQuery(
      "SELECT a, b AS bee FROM S AS x, T WHERE x.a = T.a AND b > 2");
  ASSERT_TRUE(q.ok());
  const std::string printed = q->ToString();
  EXPECT_NE(printed.find("SELECT"), std::string::npos);
  EXPECT_NE(printed.find("AS bee"), std::string::npos);
}

}  // namespace
}  // namespace tcq
