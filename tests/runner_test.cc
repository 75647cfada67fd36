#include "core/runner.h"

#include <gtest/gtest.h>

#include <limits>

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
  // One source: each window is read in place, 5 tuples each, no Eddy.
  EXPECT_EQ(runner.tuples_scanned(), 15u);
  EXPECT_EQ(runner.total_visits(), 0u);
}

TEST_F(RunnerTest, JoinWindowsRunThroughAnEddy) {
  auto analyzed = AnalyzeSql(
      "SELECT a.timestamp, b.closingPrice "
      "FROM ClosingStockPrices AS a, ClosingStockPrices AS b "
      "WHERE a.timestamp = b.timestamp "
      "for (t = 10; t <= 12; t++) { "
      "WindowIs(a, t - 1, t); WindowIs(b, t, t); }",
      catalog_);
  ASSERT_TRUE(analyzed.ok()) << analyzed.status();
  QueryRunner runner(*analyzed, {&archive_, &archive_},
                     {TupleVector{}, TupleVector{}}, QueryRunner::Options{});
  std::vector<ResultSet> out;
  EXPECT_EQ(runner.Advance(100, &out), 3u);
  for (size_t i = 0; i < out.size(); ++i) {
    const int64_t t = 10 + static_cast<int64_t>(i);
    ASSERT_EQ(out[i].rows.size(), 1u) << t;  // Only day t is on both sides.
    EXPECT_EQ(out[i].rows[0].cell(0).int64_value(), t);
    EXPECT_DOUBLE_EQ(out[i].rows[0].cell(1).double_value(), 40.0 + t);
  }
  EXPECT_EQ(runner.tuples_scanned(), 9u);  // 2 + 1 per window.
  EXPECT_GT(runner.total_visits(), 0u);    // The per-window Eddy routed.
}

TEST_F(RunnerTest, FiltersOverNullAndNanCellsFollowExprEval) {
  // A WHERE factor keeps a tuple only when it evaluates to true, not
  // NULL: a NULL cell fails every comparison, a bare BOOL column that is
  // NULL evaluates to NULL, and a NaN compares equal to every number
  // (Value::Compare), so it passes =, <= and >= and fails <, > and !=.
  // The same rule as the window plan's grouped filters and CACQ's
  // (DESIGN.md §17, step 4), on loops that run on the runner.
  StreamDef def;
  def.name = "Readings";
  def.schema = Schema::Make({{"ts", ValueType::kInt64, ""},
                             {"x", ValueType::kDouble, ""},
                             {"k", ValueType::kInt64, ""},
                             {"b", ValueType::kBool, ""}});
  def.timestamp_field = 0;
  ASSERT_TRUE(catalog_.RegisterStream(def).ok());
  const double nan = std::numeric_limits<double>::quiet_NaN();
  // x, k and b at ts 1..6.
  const std::vector<std::vector<Value>> cells = {
      {Value::Double(5.0), Value::Null(), Value::Bool(true)},
      {Value::Double(nan), Value::Int64(4), Value::Null()},
      {Value::Null(), Value::Null(), Value::Bool(false)},
      {Value::Double(7.0), Value::Int64(2), Value::Null()},
      {Value::Double(3.0), Value::Int64(9), Value::Bool(true)},
      {Value::Double(5.0), Value::Null(), Value::Bool(true)}};
  Archive readings;
  for (size_t i = 0; i < cells.size(); ++i) {
    const int64_t ts = static_cast<int64_t>(i) + 1;
    readings.Append(Tuple::Make(
        {Value::Int64(ts), cells[i][0], cells[i][1], cells[i][2]}, ts));
  }
  struct Case {
    std::string where;
    std::vector<int64_t> reverse;   // Windows [4, 6] then [1, 3].
    std::vector<int64_t> snapshot;  // [1, 6].
  };
  const std::vector<Case> cases = {
      {"x >= 5.0", {4, 6, 1, 2}, {1, 2, 4, 6}},
      {"x = 5.0", {6, 1, 2}, {1, 2, 6}},
      {"x != 5.0", {4, 5}, {4, 5}},
      {"k > 3", {5, 2}, {2, 5}},
      {"b", {5, 6, 1}, {1, 5, 6}},
  };
  const std::string reverse =
      " for (t = 6; t > 0; t -= 3) { WindowIs(Readings, t - 2, t); }";
  const std::string snapshot =
      " for (; t == 0; t = -1) { WindowIs(Readings, 1, 6); }";
  auto run = [&](const std::string& sql) {
    auto analyzed = AnalyzeSql(sql, catalog_);
    EXPECT_TRUE(analyzed.ok()) << analyzed.status();
    QueryRunner runner(*analyzed, {&readings}, {TupleVector{}},
                       QueryRunner::Options{});
    EXPECT_FALSE(runner.shareable()) << sql;  // Not linear: its own runner.
    std::vector<ResultSet> out;
    runner.Advance(100, &out);
    EXPECT_TRUE(runner.done()) << sql;
    std::vector<int64_t> ts;
    for (const ResultSet& rs : out) {
      for (const Tuple& row : rs.rows) ts.push_back(row.cell(0).int64_value());
    }
    return ts;
  };
  for (const Case& c : cases) {
    const std::string select = "SELECT ts FROM Readings WHERE " + c.where;
    EXPECT_EQ(run(select + reverse), c.reverse) << c.where;
    EXPECT_EQ(run(select + snapshot), c.snapshot) << c.where;
  }
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
  // A table source has no archive: its slot is null.
  QueryRunner runner(*analyzed, {nullptr}, {rows}, QueryRunner::Options{});
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

TEST_F(RunnerTest, RunsTakeWhatOneWindowAtATimeTakes) {
  // A linear loop's ready windows taken as runs of indexes (the window
  // plan's path) against the same loop taken one window at a time: the
  // same windows at each watermark and the same end, with the same
  // status. Near INT64_MAX a step overflows after a whole window (an
  // explicit `t += 7` and the implicit t + 1), or an end stops evaluating.
  const std::string near_max = std::to_string(kMaxTimestamp - 40);
  const std::vector<std::string> loops = {
      "for (t = " + near_max + "; true; t += 7) "
      "{ WindowIs(ClosingStockPrices, t - 9, t); }",
      "for (t = " + std::to_string(kMaxTimestamp - 6) + "; true; ) "
      "{ WindowIs(ClosingStockPrices, t - 5, t - 1); }",
      "for (t = " + near_max + "; true; t++) "
      "{ WindowIs(ClosingStockPrices, t - 3, t + 30 - 31); }",
      "for (t = 10; t <= 40; t += 4) { WindowIs(ClosingStockPrices, 10, t); }",
      "for (t = 90; true; t += 3) { WindowIs(ClosingStockPrices, t - 5, t); }",
      // 2^64 - 1 windows step from INT64_MIN: far past the step budget.
      "for (t = -9223372036854775808; true; t++) "
      "{ WindowIs(ClosingStockPrices, t, t); }",
      "for (t = 10; 40 >= t; t += 4) { WindowIs(ClosingStockPrices, 10, t); }"};
  const Timestamp marks[] = {50,
                             60,
                             kMaxTimestamp - 45,
                             kMaxTimestamp - 20,
                             kMaxTimestamp - 4,
                             kMaxTimestamp};
  for (const std::string& loop : loops) {
    const std::string sql = "SELECT COUNT(*) FROM ClosingStockPrices " + loop;
    QueryRunner by_run = MakeRunner(sql, 1);
    QueryRunner by_step = MakeRunner(sql, 1);
    ASSERT_TRUE(by_run.shareable()) << loop;
    uint64_t taken = 0;
    for (const Timestamp hwm : marks) {
      std::vector<WindowSequence::Step> steps;
      const QueryRunner::Run run = by_run.TakeRun(hwm);
      EXPECT_EQ(run.first, taken) << loop;
      EXPECT_EQ(run.count, by_step.TakeReady(hwm, &steps))
          << loop << " at " << hwm;
      EXPECT_EQ(by_run.done(), by_step.done()) << loop << " at " << hwm;
      taken += run.count;
    }
    EXPECT_EQ(by_run.status().code(), by_step.status().code()) << loop;
    EXPECT_EQ(by_run.status().message(), by_step.status().message()) << loop;
  }
}

}  // namespace
}  // namespace tcq
