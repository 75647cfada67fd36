#include "core/runner.h"

#include <gtest/gtest.h>

#include "ingress/sources.h"

namespace tcq {
namespace {

/// Direct QueryRunner tests (no server): window firing discipline,
/// reverse/history windows, per-window aggregation and table-only
/// snapshots. The landmark's running state lives in the server's window
/// plan (server_test, ServerLandmarkTest).
class RunnerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    StreamDef def;
    def.name = "ClosingStockPrices";
    def.schema = StockTickerSource::MakeSchema();
    def.timestamp_field = 0;
    ASSERT_TRUE(catalog_.RegisterStream(def).ok());

    // 100 days of MSFT, price = 40 + day.
    for (int64_t d = 1; d <= 100; ++d) {
      archive_.Append(Tuple::Make({Value::Int64(d), Value::String("MSFT"),
                                   Value::Double(40.0 + d)},
                                  d));
    }
  }

  QueryRunner MakeRunner(const std::string& sql, Timestamp start_time) {
    auto analyzed = AnalyzeSql(sql, catalog_);
    EXPECT_TRUE(analyzed.ok()) << analyzed.status();
    QueryRunner::Options opts;
    opts.start_time = start_time;
    return QueryRunner(*analyzed, {&archive_}, {TupleVector{}}, opts);
  }

  Catalog catalog_;
  Archive archive_;
};

TEST_F(RunnerTest, WindowsFireOnlyWhenPunctuated) {
  QueryRunner runner = MakeRunner(
      "SELECT closingPrice FROM ClosingStockPrices "
      "for (t = 10; t <= 12; t++) { WindowIs(ClosingStockPrices, t, t); }",
      1);
  std::vector<ResultSet> out;
  // Watermark 10: window [10,10] not certain yet (ties possible).
  EXPECT_EQ(runner.Advance(10, &out), 0u);
  // Watermark 11: [10,10] fires.
  EXPECT_EQ(runner.Advance(11, &out), 1u);
  // Watermark 13: [11,11] and [12,12] fire; loop ends.
  EXPECT_EQ(runner.Advance(13, &out), 2u);
  EXPECT_TRUE(runner.done());
  EXPECT_EQ(runner.Advance(100, &out), 0u);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_DOUBLE_EQ(out[0].rows[0].cell(0).double_value(), 50.0);
}

TEST_F(RunnerTest, ReverseWindowBrowsesHistory) {
  // §4.1.1: "windows that move backwards starting from the present time".
  QueryRunner runner = MakeRunner(
      "SELECT timestamp FROM ClosingStockPrices "
      "for (t = ST; t > ST - 30; t -= 10) { "
      "WindowIs(ClosingStockPrices, t - 9, t); }",
      /*start_time=*/90);
  std::vector<ResultSet> out;
  // All three windows lie in the past relative to watermark 100.
  EXPECT_EQ(runner.Advance(100, &out), 3u);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].t, 90);
  EXPECT_EQ(out[0].rows.size(), 10u);  // Days 81..90.
  EXPECT_EQ(out[1].t, 80);             // Moving backwards.
  EXPECT_EQ(out[2].t, 70);
  EXPECT_EQ(out[2].rows.front().cell(0).int64_value(), 61);
}

TEST_F(RunnerTest, SlidingAggregateRunsPerWindow) {
  QueryRunner runner = MakeRunner(
      "SELECT AVG(closingPrice) FROM ClosingStockPrices "
      "WHERE stockSymbol = 'MSFT' "
      "for (t = 10; t <= 20; t += 5) { "
      "WindowIs(ClosingStockPrices, t - 4, t); }",
      1);
  std::vector<ResultSet> out;
  runner.Advance(100, &out);
  ASSERT_EQ(out.size(), 3u);
  // Window [6,10]: prices 46..50, avg 48; [11,15]: 53; [16,20]: 58.
  EXPECT_DOUBLE_EQ(out[0].rows[0].cell(0).double_value(), 48.0);
  EXPECT_DOUBLE_EQ(out[1].rows[0].cell(0).double_value(), 53.0);
  EXPECT_DOUBLE_EQ(out[2].rows[0].cell(0).double_value(), 58.0);
  EXPECT_GT(runner.total_visits(), 0u);  // General (eddy) path ran ops.
}

TEST_F(RunnerTest, TableOnlySnapshotRunsOnce) {
  StreamDef def;
  def.name = "Companies";
  def.schema = Schema::Make({{"symbol", ValueType::kString, ""},
                             {"sector", ValueType::kString, ""}});
  TupleVector rows;
  rows.push_back(
      Tuple::Make({Value::String("MSFT"), Value::String("tech")}, 0));
  rows.push_back(
      Tuple::Make({Value::String("XOM"), Value::String("energy")}, 0));
  ASSERT_TRUE(catalog_.RegisterTable(def, rows).ok());

  auto analyzed =
      AnalyzeSql("SELECT symbol FROM Companies WHERE sector = 'tech'",
                 catalog_);
  ASSERT_TRUE(analyzed.ok());
  static Archive empty;
  QueryRunner runner(*analyzed, {&empty}, {rows}, QueryRunner::Options{});
  std::vector<ResultSet> out;
  EXPECT_EQ(runner.Advance(0, &out), 1u);
  EXPECT_TRUE(runner.done());
  ASSERT_EQ(out.size(), 1u);
  ASSERT_EQ(out[0].rows.size(), 1u);
  EXPECT_EQ(out[0].rows[0].cell(0).string_value(), "MSFT");
}

TEST_F(RunnerTest, EmptyWindowsYieldEmptySets) {
  QueryRunner runner = MakeRunner(
      "SELECT closingPrice FROM ClosingStockPrices "
      "WHERE stockSymbol = 'IBM' "  // Never present.
      "for (t = 10; t <= 12; t++) { WindowIs(ClosingStockPrices, t, t); }",
      1);
  std::vector<ResultSet> out;
  runner.Advance(100, &out);
  ASSERT_EQ(out.size(), 3u);
  for (const auto& rs : out) EXPECT_TRUE(rs.rows.empty());
}

}  // namespace
}  // namespace tcq
