#include "core/analyzer.h"

#include <gtest/gtest.h>

namespace tcq {
namespace {

class AnalyzerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    StreamDef stocks;
    stocks.name = "ClosingStockPrices";
    stocks.schema = Schema::Make({{"timestamp", ValueType::kInt64, ""},
                                  {"stockSymbol", ValueType::kString, ""},
                                  {"closingPrice", ValueType::kDouble, ""}});
    stocks.timestamp_field = 0;
    ASSERT_TRUE(catalog_.RegisterStream(stocks).ok());

    StreamDef companies;
    companies.name = "Companies";
    companies.schema = Schema::Make({{"symbol", ValueType::kString, ""},
                                     {"sector", ValueType::kString, ""}});
    ASSERT_TRUE(catalog_.RegisterTable(companies, {}).ok());
  }

  Catalog catalog_;
};

TEST_F(AnalyzerTest, SimpleWindowedSelect) {
  auto aq = AnalyzeSql(
      "SELECT closingPrice FROM ClosingStockPrices "
      "WHERE stockSymbol = 'MSFT' "
      "for (; t == 0; t = -1) { WindowIs(ClosingStockPrices, 1, 5); }",
      catalog_);
  ASSERT_TRUE(aq.ok()) << aq.status();
  EXPECT_EQ(aq->layout->num_sources(), 1u);
  EXPECT_EQ(aq->filters.size(), 1u);
  EXPECT_TRUE(aq->joins.empty());
  EXPECT_FALSE(aq->has_aggregates);
  EXPECT_FALSE(aq->cacq_eligible);
  ASSERT_EQ(aq->projections.size(), 1u);
  EXPECT_EQ(aq->output_schema->num_fields(), 1u);
  EXPECT_EQ(aq->output_schema->field(0).name, "closingPrice");
}

TEST_F(AnalyzerTest, SumAndAvgNeedNumericArguments) {
  // Once accepted: the first window to fire threw bad_variant_access.
  const std::string loop =
      " FROM ClosingStockPrices "
      "for (; t == 0; t = -1) { WindowIs(ClosingStockPrices, 1, 5); }";
  for (const char* agg :
       {"SUM(stockSymbol)", "AVG(stockSymbol)", "SUM(closingPrice > 1)"}) {
    auto r = AnalyzeSql(std::string("SELECT ") + agg + loop, catalog_);
    EXPECT_EQ(r.status().code(), StatusCode::kTypeError) << agg;
  }
  for (const char* agg : {"MIN(stockSymbol)", "MAX(stockSymbol)",
                          "COUNT(stockSymbol)", "AVG(closingPrice)"}) {
    auto r = AnalyzeSql(std::string("SELECT ") + agg + loop, catalog_);
    EXPECT_TRUE(r.ok()) << agg << ": " << r.status();
  }
}

TEST_F(AnalyzerTest, WindowBoundsRejectAggregateCalls) {
  // Once accepted: the first step evaluated COUNT(*) as a row expression,
  // which aborts the process.
  auto r = AnalyzeSql(
      "SELECT COUNT(*) FROM ClosingStockPrices for (t = ST; true; "
      "t += COUNT(*)) { WindowIs(ClosingStockPrices, t - 1, t); }",
      catalog_);
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(AnalyzerTest, UnknownStreamFails) {
  EXPECT_FALSE(AnalyzeSql("SELECT a FROM Nope", catalog_).ok());
}

TEST_F(AnalyzerTest, UnknownColumnFails) {
  auto r = AnalyzeSql(
      "SELECT volume FROM ClosingStockPrices "
      "for (; t == 0; t = -1) { WindowIs(ClosingStockPrices, 1, 5); }",
      catalog_);
  EXPECT_FALSE(r.ok());
}

TEST_F(AnalyzerTest, StreamWithoutWindowMustBeStandingFilter) {
  // OK: single-stream filter (CACQ-eligible).
  auto ok = AnalyzeSql(
      "SELECT closingPrice FROM ClosingStockPrices WHERE closingPrice > 50",
      catalog_);
  ASSERT_TRUE(ok.ok()) << ok.status();
  EXPECT_TRUE(ok->cacq_eligible);

  // Not OK: aggregate over an unwindowed stream.
  EXPECT_FALSE(
      AnalyzeSql("SELECT AVG(closingPrice) FROM ClosingStockPrices",
                 catalog_)
          .ok());
}

TEST_F(AnalyzerTest, TableOnlySnapshot) {
  auto aq = AnalyzeSql("SELECT symbol FROM Companies", catalog_);
  ASSERT_TRUE(aq.ok()) << aq.status();
  EXPECT_TRUE(aq->tables_only);
  EXPECT_FALSE(aq->cacq_eligible);
  EXPECT_FALSE(aq->window.has_value());
}

TEST_F(AnalyzerTest, SelfJoinWithAliases) {
  auto aq = AnalyzeSql(
      "SELECT c2.* FROM ClosingStockPrices as c1, ClosingStockPrices as c2 "
      "WHERE c1.stockSymbol = 'MSFT' and c2.stockSymbol != 'MSFT' and "
      "c2.closingPrice > c1.closingPrice and c2.timestamp = c1.timestamp "
      "for (t = ST; t < ST + 20; t++) { "
      "WindowIs(c1, t - 4, t); WindowIs(c2, t - 4, t); }",
      catalog_);
  ASSERT_TRUE(aq.ok()) << aq.status();
  EXPECT_EQ(aq->layout->num_sources(), 2u);
  ASSERT_EQ(aq->joins.size(), 1u);  // The timestamp equality.
  EXPECT_EQ(aq->filters.size(), 3u);
  // c2.* expands to c2's three columns only.
  EXPECT_EQ(aq->projections.size(), 3u);
  EXPECT_EQ(aq->window_clause_of_source[0], 0);
  EXPECT_EQ(aq->window_clause_of_source[1], 1);
}

TEST_F(AnalyzerTest, DuplicateAliasRejected) {
  EXPECT_FALSE(
      AnalyzeSql("SELECT * FROM ClosingStockPrices as c, Companies as c",
                 catalog_)
          .ok());
}

TEST_F(AnalyzerTest, AggregatesWithGroupBy) {
  auto aq = AnalyzeSql(
      "SELECT stockSymbol, AVG(closingPrice), COUNT(*) "
      "FROM ClosingStockPrices GROUP BY stockSymbol "
      "for (t = 1; true; t += 5) { WindowIs(ClosingStockPrices, t, t+4); }",
      catalog_);
  ASSERT_TRUE(aq.ok()) << aq.status();
  EXPECT_TRUE(aq->has_aggregates);
  ASSERT_EQ(aq->aggregates.size(), 2u);
  EXPECT_EQ(aq->aggregates[0].kind, AggKind::kAvg);
  EXPECT_EQ(aq->aggregates[1].kind, AggKind::kCount);
  ASSERT_EQ(aq->group_by.size(), 1u);
  EXPECT_EQ(aq->output_schema->num_fields(), 3u);
  EXPECT_EQ(aq->output_schema->field(1).type, ValueType::kDouble);
  EXPECT_EQ(aq->output_schema->field(2).type, ValueType::kInt64);
}

TEST_F(AnalyzerTest, ImplicitGroupByFromSelectList) {
  auto aq = AnalyzeSql(
      "SELECT stockSymbol, MAX(closingPrice) FROM ClosingStockPrices "
      "for (t = 1; true; t++) { WindowIs(ClosingStockPrices, 1, t); }",
      catalog_);
  ASSERT_TRUE(aq.ok()) << aq.status();
  ASSERT_EQ(aq->group_by.size(), 1u);
}

TEST_F(AnalyzerTest, AggregateAfterKeyRequired) {
  EXPECT_FALSE(AnalyzeSql(
                   "SELECT AVG(closingPrice), stockSymbol "
                   "FROM ClosingStockPrices "
                   "for (t=1; true; t++) { WindowIs(ClosingStockPrices,1,t); }",
                   catalog_)
                   .ok());
}

TEST_F(AnalyzerTest, NonKeyPlainSelectRejected) {
  EXPECT_FALSE(
      AnalyzeSql("SELECT closingPrice, MAX(closingPrice) "
                 "FROM ClosingStockPrices GROUP BY stockSymbol "
                 "for (t=1; true; t++) { WindowIs(ClosingStockPrices,1,t); }",
                 catalog_)
          .ok());
}

TEST_F(AnalyzerTest, WindowOnUnknownSourceFails) {
  EXPECT_FALSE(AnalyzeSql(
                   "SELECT closingPrice FROM ClosingStockPrices "
                   "for (; t == 0; t = -1) { WindowIs(Bogus, 1, 5); }",
                   catalog_)
                   .ok());
}

TEST_F(AnalyzerTest, StreamMissingWindowClauseFails) {
  // Two streams, only one WindowIs.
  EXPECT_FALSE(AnalyzeSql(
                   "SELECT * FROM ClosingStockPrices as a, "
                   "ClosingStockPrices as b WHERE a.timestamp = b.timestamp "
                   "for (; t == 0; t = -1) { WindowIs(a, 1, 5); }",
                   catalog_)
                   .ok());
}

TEST_F(AnalyzerTest, StreamJoinTableMixes) {
  auto aq = AnalyzeSql(
      "SELECT s.closingPrice, c.sector "
      "FROM ClosingStockPrices as s, Companies as c "
      "WHERE s.stockSymbol = c.symbol "
      "for (t = 1; t <= 10; t++) { WindowIs(s, t, t); }",
      catalog_);
  ASSERT_TRUE(aq.ok()) << aq.status();
  ASSERT_EQ(aq->joins.size(), 1u);
  EXPECT_TRUE(aq->defs[1].is_table);
  EXPECT_EQ(aq->window_clause_of_source[1], -1);  // Table: no window.
}

TEST_F(AnalyzerTest, NonBooleanWhereRejected) {
  EXPECT_FALSE(
      AnalyzeSql("SELECT closingPrice FROM ClosingStockPrices "
                 "WHERE closingPrice + 1 "
                 "for (; t==0; t=-1) { WindowIs(ClosingStockPrices,1,5); }",
                 catalog_)
          .ok());
}

}  // namespace
}  // namespace tcq
