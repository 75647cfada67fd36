#include "core/runner.h"

#include <gtest/gtest.h>

#include "ingress/sources.h"

namespace tcq {
namespace {

/// Direct QueryRunner tests (no server): window firing discipline,
/// reverse/history windows, the landmark incremental fast path, and
/// table-only snapshots.
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

TEST_F(RunnerTest, LandmarkAggregateUsesIncrementalPath) {
  QueryRunner runner = MakeRunner(
      "SELECT MAX(closingPrice) FROM ClosingStockPrices "
      "for (t = 10; t <= 50; t++) { "
      "WindowIs(ClosingStockPrices, 10, t); }",
      1);
  std::vector<ResultSet> out;
  EXPECT_EQ(runner.Advance(100, &out), 41u);
  // MAX grows with the landmark window: price = 40 + day.
  EXPECT_DOUBLE_EQ(out[0].rows[0].cell(0).double_value(), 50.0);   // t=10.
  EXPECT_DOUBLE_EQ(out[40].rows[0].cell(0).double_value(), 90.0);  // t=50.
  // Incremental path: no per-window re-scan through the eddy machinery.
  EXPECT_EQ(runner.total_visits(), 0u);
}

TEST_F(RunnerTest, LandmarkPathAppliesFilters) {
  QueryRunner runner = MakeRunner(
      "SELECT COUNT(*) FROM ClosingStockPrices "
      "WHERE closingPrice > 60 "
      "for (t = 10; t <= 30; t++) { "
      "WindowIs(ClosingStockPrices, 10, t); }",
      1);
  std::vector<ResultSet> out;
  runner.Advance(100, &out);
  ASSERT_EQ(out.size(), 21u);
  // Window [10,30]: days with price > 60 are 21..30 -> 10 rows.
  EXPECT_EQ(out[20].rows[0].cell(0).int64_value(), 10);
  // Window [10,20]: price > 60 means day > 20 -> none yet.
  EXPECT_EQ(out[10].rows.size(), 1u);
  EXPECT_EQ(out[10].rows[0].cell(0).int64_value(), 0);
}

TEST_F(RunnerTest, LandmarkRefeedsOnlyForStragglersInFedHistory) {
  // Days 1..10 are archived and the watermark reaches 50, so windows
  // [1,10] .. [1,40] fire and the accumulators hold history through 40.
  // A straggler at day 30 is newer than every archived tuple, yet lies in
  // that history: it must count from the next window on. One past the
  // fed history must not make the runner rescan what it holds.
  Archive archive;
  auto day = [](int64_t d) {
    return Tuple::Make(
        {Value::Int64(d), Value::String("MSFT"), Value::Double(40.0 + d)}, d);
  };
  for (int64_t d = 1; d <= 10; ++d) archive.Append(day(d));
  auto analyzed = AnalyzeSql(
      "SELECT COUNT(*) FROM ClosingStockPrices "
      "for (t = 10; true; t += 10) { WindowIs(ClosingStockPrices, 1, t); }",
      catalog_);
  ASSERT_TRUE(analyzed.ok()) << analyzed.status();
  QueryRunner runner(*analyzed, {&archive}, {TupleVector{}}, {});
  std::vector<ResultSet> out;
  EXPECT_EQ(runner.Advance(50, &out), 4u);
  EXPECT_EQ(runner.tuples_scanned(), 10u);
  archive.InsertOrdered(day(30));
  EXPECT_EQ(runner.Advance(60, &out), 1u);  // [1,50]: refed whole.
  EXPECT_EQ(out.back().rows[0].cell(0).int64_value(), 11);
  EXPECT_EQ(runner.tuples_scanned(), 21u);
  archive.Append(day(58));
  archive.InsertOrdered(day(55));
  EXPECT_EQ(runner.Advance(70, &out), 1u);  // [1,60]: days 55 and 58 fed.
  EXPECT_EQ(out.back().rows[0].cell(0).int64_value(), 13);
  EXPECT_EQ(runner.tuples_scanned(), 23u);
}

TEST_F(RunnerTest, LandmarkResumesFromTheCheckpointBeforeAStraggler) {
  // Windows [1,10] .. [1,100] feed 100 days; a checkpoint is taken at
  // t = 70, the first window 68 tuples (64 + 4 per group) past the last.
  const std::string sql =
      "SELECT COUNT(*), SUM(closingPrice) FROM ClosingStockPrices "
      "for (t = 10; true; t += 10) { WindowIs(ClosingStockPrices, 1, t); }";
  QueryRunner runner = MakeRunner(sql, 1);
  std::vector<ResultSet> out;
  EXPECT_EQ(runner.Advance(101, &out), 10u);
  // What a runner that never saw the stragglers reads at `hwm`.
  auto fresh = [&](Timestamp hwm) {
    QueryRunner reference = MakeRunner(sql, 1);
    std::vector<ResultSet> sets;
    reference.Advance(hwm, &sets);
    return sets.back().rows[0].ToString();
  };
  auto straggle = [&](int64_t d) {
    archive_.InsertOrdered(Tuple::Make(
        {Value::Int64(d), Value::String("MSFT"), Value::Double(0.1)}, d));
  };
  straggle(80);  // After the checkpoint: resume from it.
  uint64_t scanned = runner.tuples_scanned();
  EXPECT_EQ(runner.Advance(111, &out), 1u);
  EXPECT_EQ(runner.tuples_scanned() - scanned, 31u);  // Days 71..100 + 80.
  EXPECT_EQ(out.back().rows[0].ToString(), fresh(111));
  straggle(70);  // At the checkpoint's last day: it is stale too.
  scanned = runner.tuples_scanned();
  EXPECT_EQ(runner.Advance(121, &out), 1u);
  EXPECT_EQ(runner.tuples_scanned() - scanned, 102u);
  EXPECT_EQ(out.back().rows[0].ToString(), fresh(121));
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
