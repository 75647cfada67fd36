#include "core/server.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/analyzer.h"
#include "ingress/sources.h"
#include "result_rows.h"

namespace tcq {
namespace {

SchemaPtr StockSchema() { return StockTickerSource::MakeSchema(); }

Tuple Stock(int64_t day, const std::string& sym, double price) {
  return Tuple::Make(
      {Value::Int64(day), Value::String(sym), Value::Double(price)}, day);
}

/// A deterministic price series for MSFT: price(day) = 40 + day.
/// Day d has closing price 40 + d, so price > 50 from day 11 on.
void FeedMsft(Server* server, int64_t days) {
  for (int64_t d = 1; d <= days; ++d) {
    ASSERT_TRUE(server->Push("ClosingStockPrices",
                             Stock(d, "MSFT", 40.0 + d))
                    .ok());
  }
}

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(server_
                    .DefineStream("ClosingStockPrices", StockSchema(),
                                  /*timestamp_field=*/0)
                    .ok());
  }
  Server server_;
};

// ---- The four §4.1.1 example queries, end to end. -------------------------

TEST_F(ServerTest, PaperExample1SnapshotQuery) {
  // "closing prices for MSFT on the first five days of trading".
  auto q = server_.Submit(
      "SELECT closingPrice, timestamp FROM ClosingStockPrices "
      "WHERE stockSymbol = 'MSFT' "
      "for (; t == 0; t = -1) { WindowIs(ClosingStockPrices, 1, 5); }");
  ASSERT_TRUE(q.ok()) << q.status();
  FeedMsft(&server_, 10);
  auto sets = server_.PollAll(*q);
  ASSERT_EQ(sets.size(), 1u);  // Snapshot: exactly one result set.
  ASSERT_EQ(sets[0].rows.size(), 5u);
  for (int64_t d = 1; d <= 5; ++d) {
    EXPECT_DOUBLE_EQ(sets[0].rows[static_cast<size_t>(d - 1)]
                         .cell(0)
                         .double_value(),
                     40.0 + d);
    EXPECT_EQ(sets[0].rows[static_cast<size_t>(d - 1)].cell(1).int64_value(),
              d);
  }
  // No further sets ever.
  FeedMsft(&server_, 0);
  EXPECT_FALSE(server_.Poll(*q).has_value());
}

TEST_F(ServerTest, PaperExample2LandmarkQuery) {
  // "all days after the hundredth trading day with price > 50, standing
  //  for 1000 days" — scaled down: after day 10, standing to day 30.
  auto q = server_.Submit(
      "SELECT closingPrice, timestamp FROM ClosingStockPrices "
      "WHERE stockSymbol = 'MSFT' and closingPrice > 50.00 "
      "for (t = 10; t <= 30; t++) { WindowIs(ClosingStockPrices, 10, t); }");
  ASSERT_TRUE(q.ok()) << q.status();
  FeedMsft(&server_, 31);  // One day past the last window (punctuation).
  auto sets = server_.PollAll(*q);
  ASSERT_EQ(sets.size(), 21u);  // One per t in [10, 30].
  // Window [10, 10]: price 50 is not > 50 — empty.
  EXPECT_TRUE(sets[0].rows.empty());
  // Window [10, 30]: days 11..30 qualify.
  EXPECT_EQ(sets[20].rows.size(), 20u);
  // The landmark keeps *all* qualifying days, not a sliding suffix.
  EXPECT_EQ(sets[20].rows.front().cell(1).int64_value(), 11);
}

TEST_F(ServerTest, PaperExample3SlidingAvg) {
  // "every fifth day, average closing price of the five most recent days".
  auto q = server_.Submit(
      "Select AVG(closingPrice) From ClosingStockPrices "
      "Where stockSymbol = 'MSFT' "
      "for (t = ST; t < ST + 50; t += 5) { "
      "WindowIs(ClosingStockPrices, t - 4, t); }");
  ASSERT_TRUE(q.ok()) << q.status();
  // ST resolves to 1 (no data yet when submitted).
  FeedMsft(&server_, 55);
  auto sets = server_.PollAll(*q);
  ASSERT_EQ(sets.size(), 10u);
  // First window [ -3, 1 ] holds only day 1: avg = 41.
  ASSERT_EQ(sets[0].rows.size(), 1u);
  EXPECT_DOUBLE_EQ(sets[0].rows[0].cell(0).double_value(), 41.0);
  // Second window [2, 6]: prices 42..46, avg 44.
  EXPECT_DOUBLE_EQ(sets[1].rows[0].cell(0).double_value(), 44.0);
  // Last window [42, 46]: avg 84+...: prices 82..86 -> 84.
  EXPECT_DOUBLE_EQ(sets[9].rows[0].cell(0).double_value(), 84.0);
}

TEST_F(ServerTest, PaperExample4TemporalBandJoin) {
  // "stocks that closed higher than MSFT on the same day".
  auto q = server_.Submit(
      "Select c2.* FROM ClosingStockPrices as c1, "
      "ClosingStockPrices as c2 "
      "WHERE c1.stockSymbol = 'MSFT' and c2.stockSymbol != 'MSFT' and "
      "c2.closingPrice > c1.closingPrice and "
      "c2.timestamp = c1.timestamp "
      "for (t = ST; t < ST + 5; t++) { "
      "WindowIs(c1, t - 4, t); WindowIs(c2, t - 4, t); }");
  ASSERT_TRUE(q.ok()) << q.status();
  // Each day: MSFT at 50, IBM above at 60, ORCL below at 40. Day 6 is
  // fed as punctuation so the t=5 window (right end 5) can fire.
  for (int64_t d = 1; d <= 6; ++d) {
    ASSERT_TRUE(
        server_.Push("ClosingStockPrices", Stock(d, "MSFT", 50)).ok());
    ASSERT_TRUE(
        server_.Push("ClosingStockPrices", Stock(d, "IBM", 60)).ok());
    ASSERT_TRUE(
        server_.Push("ClosingStockPrices", Stock(d, "ORCL", 40)).ok());
  }
  auto sets = server_.PollAll(*q);
  ASSERT_EQ(sets.size(), 5u);
  // Window t covers days [t-4, t]: t days exist, IBM beats MSFT each day.
  for (size_t i = 0; i < sets.size(); ++i) {
    EXPECT_EQ(sets[i].rows.size(), i + 1) << "window t=" << sets[i].t;
    for (const Tuple& row : sets[i].rows) {
      EXPECT_EQ(row.cell(1).string_value(), "IBM");
      EXPECT_DOUBLE_EQ(row.cell(2).double_value(), 60.0);
    }
  }
}

// ---- Other server behaviours. ------------------------------------------------

TEST_F(ServerTest, StandingFilterUsesCacqPath) {
  auto q1 = server_.Submit(
      "SELECT closingPrice FROM ClosingStockPrices "
      "WHERE stockSymbol = 'MSFT'");
  auto q2 = server_.Submit(
      "SELECT closingPrice FROM ClosingStockPrices "
      "WHERE closingPrice > 45");
  ASSERT_TRUE(q1.ok() && q2.ok());
  FeedMsft(&server_, 10);  // Prices 41..50.
  EXPECT_EQ(server_.PollAll(*q1).size(), 10u);  // All MSFT.
  EXPECT_EQ(server_.PollAll(*q2).size(), 5u);   // 46..50.
}

TEST_F(ServerTest, CallbackDelivery) {
  auto q = server_.Submit(
      "SELECT closingPrice FROM ClosingStockPrices "
      "WHERE closingPrice > 45");
  ASSERT_TRUE(q.ok());
  int called = 0;
  ASSERT_TRUE(server_
                  .SetCallback(*q,
                               [&](const ResultSet& rs) {
                                 called += static_cast<int>(rs.rows.size());
                               })
                  .ok());
  FeedMsft(&server_, 10);
  EXPECT_EQ(called, 5);
  EXPECT_FALSE(server_.Poll(*q).has_value());  // Callback consumed them.
}

TEST_F(ServerTest, NullCallbackDisconnectsWithResultsQueued) {
  // A null callback means "disconnect": with results already queued it
  // must not flush them into an empty std::function (bad_function_call).
  auto q = server_.Submit(
      "SELECT closingPrice FROM ClosingStockPrices "
      "WHERE stockSymbol = 'MSFT'");
  ASSERT_TRUE(q.ok());
  FeedMsft(&server_, 1);
  EXPECT_TRUE(server_.SetCallback(*q, nullptr).ok());
  ASSERT_TRUE(
      server_.Push("ClosingStockPrices", Stock(2, "MSFT", 42.0)).ok());
  auto sets = server_.PollAll(*q);
  ASSERT_EQ(sets.size(), 2u);  // Both stayed buffered for Poll.
  EXPECT_EQ(sets[0].t, 1);
  EXPECT_EQ(sets[1].t, 2);
}

TEST_F(ServerTest, CancelStopsDelivery) {
  auto q = server_.Submit(
      "SELECT closingPrice FROM ClosingStockPrices "
      "WHERE closingPrice > 0");
  ASSERT_TRUE(q.ok());
  FeedMsft(&server_, 3);
  ASSERT_TRUE(server_.Cancel(*q).ok());
  FeedMsft(&server_, 0);
  ASSERT_TRUE(
      server_.Push("ClosingStockPrices", Stock(4, "MSFT", 44)).ok());
  EXPECT_TRUE(server_.PollAll(*q).empty());
  EXPECT_EQ(server_.num_active_queries(), 0u);
  EXPECT_FALSE(server_.Cancel(*q).ok());
}

TEST_F(ServerTest, LateQuerySeesOnlyNewData) {
  FeedMsft(&server_, 10);
  auto q = server_.Submit(
      "SELECT closingPrice FROM ClosingStockPrices "
      "WHERE closingPrice > 0");
  ASSERT_TRUE(q.ok());
  ASSERT_TRUE(
      server_.Push("ClosingStockPrices", Stock(11, "MSFT", 51)).ok());
  auto sets = server_.PollAll(*q);
  ASSERT_EQ(sets.size(), 1u);  // Only the post-registration tuple.
}

TEST_F(ServerTest, WindowedQueryStartsAtSubmissionTime) {
  FeedMsft(&server_, 10);
  // ST should resolve to 11 (watermark + 1).
  auto q = server_.Submit(
      "SELECT AVG(closingPrice) FROM ClosingStockPrices "
      "WHERE stockSymbol = 'MSFT' "
      "for (t = ST; t < ST + 2; t++) { "
      "WindowIs(ClosingStockPrices, t, t); }");
  ASSERT_TRUE(q.ok()) << q.status();
  for (int64_t d = 11; d <= 13; ++d) {  // Day 13 punctuates window [12,12].
    ASSERT_TRUE(server_.Push("ClosingStockPrices",
                             Stock(d, "MSFT", 40.0 + d))
                    .ok());
  }
  auto sets = server_.PollAll(*q);
  // Windows [11,11] and [12,12]: prices 51, 52.
  ASSERT_EQ(sets.size(), 2u);
  EXPECT_DOUBLE_EQ(sets[0].rows[0].cell(0).double_value(), 51.0);
  EXPECT_DOUBLE_EQ(sets[1].rows[0].cell(0).double_value(), 52.0);
}

TEST_F(ServerTest, TableSnapshotAnswersImmediately) {
  SchemaPtr cschema = Schema::Make({{"symbol", ValueType::kString, ""},
                                    {"sector", ValueType::kString, ""}});
  TupleVector rows;
  rows.push_back(
      Tuple::Make({Value::String("MSFT"), Value::String("tech")}, 0));
  rows.push_back(
      Tuple::Make({Value::String("XOM"), Value::String("energy")}, 0));
  ASSERT_TRUE(server_.DefineTable("Companies", cschema, rows).ok());
  auto q = server_.Submit(
      "SELECT symbol FROM Companies WHERE sector = 'tech'");
  ASSERT_TRUE(q.ok()) << q.status();
  auto sets = server_.PollAll(*q);
  ASSERT_EQ(sets.size(), 1u);
  ASSERT_EQ(sets[0].rows.size(), 1u);
  EXPECT_EQ(sets[0].rows[0].cell(0).string_value(), "MSFT");
}

// Table rows are checked as stream tuples are: aggregates read each cell
// as its column's type.
TEST_F(ServerTest, DefineTableRejectsMistypedRows) {
  SchemaPtr schema = Schema::Make({{"id", ValueType::kInt64, ""},
                                   {"v", ValueType::kInt64, ""}});
  EXPECT_EQ(server_
                .DefineTable("Bad", schema,
                             {Tuple::Make({Value::Int64(1), Value::Double(2.5)})})
                .code(),
            StatusCode::kTypeError);
  EXPECT_EQ(server_.DefineTable("Short", schema, {Tuple::Make({Value::Int64(1)})})
                .code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(server_
                  .DefineTable("Good", schema,
                               {Tuple::Make({Value::Int64(1), Value::Null()}),
                                Tuple::Make({Value::Int64(2), Value::Int64(7)})})
                  .ok());
  auto q = server_.Submit("SELECT MAX(v), COUNT(*) FROM Good");
  ASSERT_TRUE(q.ok()) << q.status();
  auto sets = server_.PollAll(*q);
  ASSERT_EQ(sets.size(), 1u);
  EXPECT_EQ(sets[0].rows[0].cell(0).int64_value(), 7);
  EXPECT_EQ(sets[0].rows[0].cell(1).int64_value(), 2);
}

TEST_F(ServerTest, StreamTableJoin) {
  SchemaPtr cschema = Schema::Make({{"symbol", ValueType::kString, ""},
                                    {"sector", ValueType::kString, ""}});
  TupleVector rows;
  rows.push_back(
      Tuple::Make({Value::String("MSFT"), Value::String("tech")}, 0));
  ASSERT_TRUE(server_.DefineTable("Companies", cschema, rows).ok());
  auto q = server_.Submit(
      "SELECT s.closingPrice, c.sector "
      "FROM ClosingStockPrices as s, Companies as c "
      "WHERE s.stockSymbol = c.symbol "
      "for (t = 1; t <= 3; t++) { WindowIs(s, t, t); }");
  ASSERT_TRUE(q.ok()) << q.status();
  for (int64_t d = 1; d <= 4; ++d) {  // Day 4 punctuates window [3,3].
    ASSERT_TRUE(
        server_.Push("ClosingStockPrices", Stock(d, "MSFT", 50 + d)).ok());
    ASSERT_TRUE(
        server_.Push("ClosingStockPrices", Stock(d, "XOM", 80)).ok());
  }
  auto sets = server_.PollAll(*q);
  ASSERT_EQ(sets.size(), 3u);
  for (const auto& rs : sets) {
    ASSERT_EQ(rs.rows.size(), 1u);  // Only MSFT joins Companies.
    EXPECT_EQ(rs.rows[0].cell(1).string_value(), "tech");
  }
}

TEST_F(ServerTest, GroupByAggregateOverWindows) {
  auto q = server_.Submit(
      "SELECT stockSymbol, COUNT(*) FROM ClosingStockPrices "
      "GROUP BY stockSymbol "
      "for (t = 1; t <= 9; t += 3) { "
      "WindowIs(ClosingStockPrices, t, t + 2); }");
  ASSERT_TRUE(q.ok()) << q.status();
  for (int64_t d = 1; d <= 10; ++d) {  // Day 10 punctuates window [7,9].
    ASSERT_TRUE(
        server_.Push("ClosingStockPrices", Stock(d, "MSFT", 50)).ok());
    if (d % 3 == 0) {
      ASSERT_TRUE(
          server_.Push("ClosingStockPrices", Stock(d, "IBM", 90)).ok());
    }
  }
  auto sets = server_.PollAll(*q);
  ASSERT_EQ(sets.size(), 3u);
  for (const auto& rs : sets) {
    ASSERT_EQ(rs.rows.size(), 2u);
    EXPECT_EQ(rs.rows[0].cell(0).string_value(), "IBM");
    EXPECT_EQ(rs.rows[0].cell(1).int64_value(), 1);
    EXPECT_EQ(rs.rows[1].cell(0).string_value(), "MSFT");
    EXPECT_EQ(rs.rows[1].cell(1).int64_value(), 3);
  }
}

TEST_F(ServerTest, ErrorPaths) {
  EXPECT_FALSE(server_.Push("NoSuchStream", Stock(1, "A", 1)).ok());
  EXPECT_FALSE(server_.Submit("SELECT FROM").ok());
  EXPECT_FALSE(server_.Submit("SELECT x FROM NoSuchStream").ok());
  // Arity mismatch.
  EXPECT_FALSE(
      server_.Push("ClosingStockPrices", Tuple::Make({Value::Int64(1)}, 1))
          .ok());
  // Out-of-order timestamps rejected.
  ASSERT_TRUE(
      server_.Push("ClosingStockPrices", Stock(5, "MSFT", 1)).ok());
  EXPECT_FALSE(
      server_.Push("ClosingStockPrices", Stock(3, "MSFT", 1)).ok());
  // Poll on bogus id.
  EXPECT_FALSE(server_.Poll(42).has_value());
}

TEST_F(ServerTest, PushAllFromGenerator) {
  auto q = server_.Submit(
      "SELECT closingPrice FROM ClosingStockPrices "
      "WHERE stockSymbol = 'MSFT'");
  ASSERT_TRUE(q.ok());
  StockTickerSource::Options opts;
  opts.num_symbols = 4;
  opts.num_days = 25;
  StockTickerSource src(opts);
  ASSERT_TRUE(server_.PushAll("ClosingStockPrices", &src).ok());
  EXPECT_EQ(server_.PollAll(*q).size(), 25u);  // One MSFT row per day.
}

TEST_F(ServerTest, OutputSchemaReflectsSelectList) {
  auto q = server_.Submit(
      "SELECT closingPrice AS px FROM ClosingStockPrices "
      "WHERE closingPrice > 0");
  ASSERT_TRUE(q.ok());
  auto schema = server_.OutputSchema(*q);
  ASSERT_TRUE(schema.ok());
  EXPECT_EQ((*schema)->field(0).name, "px");
  EXPECT_EQ((*schema)->field(0).type, ValueType::kDouble);
}

TEST_F(ServerTest, NonAdvancingLoopStopsInsteadOfExhaustingMemory) {
  // for (; t == 0; t = ST - 1) with ST = 1 maps t = 0 to itself: the
  // window fires once and the query finishes, where it used to fire the
  // same window until the allocator gave up.
  auto q = server_.Submit(
      "SELECT COUNT(*) FROM ClosingStockPrices "
      "for (; t == 0; t = ST - 1) { WindowIs(ClosingStockPrices, 1, 5); }");
  ASSERT_TRUE(q.ok()) << q.status();
  FeedMsft(&server_, 10);
  auto sets = server_.PollAll(*q);
  ASSERT_EQ(sets.size(), 1u);
  EXPECT_EQ(sets[0].t, 0);
  EXPECT_EQ(sets[0].rows[0].cell(0).int64_value(), 5);
  FeedMsft(&server_, 0);
  EXPECT_TRUE(server_.PollAll(*q).empty());
}

TEST_F(ServerTest, LoopAtInt64MaxStopsInsteadOfOverflowing) {
  // Windows near the top of the timestamp range: the loop variable cannot
  // step past INT64_MAX, so the sequence ends there (no signed overflow).
  auto q = server_.Submit(
      "SELECT COUNT(*) FROM ClosingStockPrices "
      "for (t = 9223372036854775806; true; t++) "
      "{ WindowIs(ClosingStockPrices, 1, 5); }");
  ASSERT_TRUE(q.ok()) << q.status();
  FeedMsft(&server_, 10);
  // The two windows' right ends (5) are final: both fire, then t would
  // have to pass INT64_MAX and the query ends.
  auto sets = server_.PollAll(*q);
  ASSERT_EQ(sets.size(), 2u);
  EXPECT_EQ(sets[1].t, INT64_MAX);
  FeedMsft(&server_, 0);
  EXPECT_TRUE(server_.PollAll(*q).empty());
}

TEST(ServerBudgetTest, RunawayLoopsEndOnTheWindowBudget) {
  // Three for-loops that make endless windows ready in one advance: two
  // walk ~2^63 and 2^64 - 1 empty windows up from far below the data (a
  // count that must not wrap), one cycles between t = 1 and t = 0. Each
  // ends on the window budget, and the healthy query beside them delivers
  // what it delivers alone.
  std::vector<Tuple> feed;
  for (int64_t d = 1; d <= 20; ++d) feed.push_back(Stock(d, "MSFT", 40.0 + d));
  auto run = [&](std::vector<std::string> loops, std::string* snapshot) {
    Server server;
    EXPECT_TRUE(
        server.DefineStream("ClosingStockPrices", StockSchema(), 0).ok());
    loops.insert(loops.begin(), "for (t = ST; true; t += 2) "
                                "{ WindowIs(ClosingStockPrices, t - 3, t); }");
    std::vector<QueryId> ids;
    for (const std::string& loop : loops) {
      auto q = server.Submit(
          "SELECT AVG(closingPrice) FROM ClosingStockPrices " + loop);
      EXPECT_TRUE(q.ok()) << q.status();
      ids.push_back(*q);
    }
    EXPECT_TRUE(server.PushBatch("ClosingStockPrices", feed).ok());
    EXPECT_TRUE(server.Heartbeat("ClosingStockPrices", 30).ok());
    for (size_t i = 1; i < ids.size(); ++i) {
      EXPECT_TRUE(server.PollAll(ids[i]).empty());
    }
    *snapshot = server.SnapshotMetrics();
    std::string rows;
    for (const ResultSet& rs : server.PollAll(ids[0])) {
      rows += std::to_string(rs.t) + ":" + rs.rows[0].ToString() + ";";
    }
    return rows;
  };
  std::string alone_snapshot;
  std::string beside_snapshot;
  const std::string alone = run({}, &alone_snapshot);
  EXPECT_NE(alone.find("29:"), std::string::npos);
  // INT64_MAX: the lexer once clamped 9223372036854775808 to it silently;
  // that literal is now a ParseError.
  EXPECT_EQ(run({"for (t = ST - 9223372036854775807; true; t++) "
                 "{ WindowIs(ClosingStockPrices, t, t); }",
                 "for (t = 1; true; t = 1 - t) "
                 "{ WindowIs(ClosingStockPrices, t, t); }",
                 "for (t = -9223372036854775808; true; t++) "
                 "{ WindowIs(ClosingStockPrices, t, t); }"},
                &beside_snapshot),
            alone);
  EXPECT_NE(alone_snapshot.find("\"budget_exceeded\":0"), std::string::npos);
  EXPECT_NE(beside_snapshot.find("\"budget_exceeded\":3"),
            std::string::npos);
  EXPECT_NE(beside_snapshot.find("tcq.window.budget_exceeded"),
            std::string::npos);
}

TEST(ServerShardedTest, SnapshotCountsShardParks) {
  // A shard fleet's idle workers park; the shards rows and the tcq.shard
  // family report how many parks there were and how many a wake ended.
  Server::Options options;
  options.cacq_shards = 2;
  Server server(options);
  ASSERT_TRUE(server.DefineStream("ClosingStockPrices", StockSchema(), 0).ok());
  auto q = server.Submit(
      "SELECT closingPrice FROM ClosingStockPrices WHERE closingPrice > 45");
  ASSERT_TRUE(q.ok()) << q.status();
  FeedMsft(&server, 10);
  for (int round = 0; round < 20; ++round) {
    // Idle long enough for the workers to be parked when the barrier lands.
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    server.Quiesce();
  }
  EXPECT_EQ(FlattenRows(server.PollAll(*q)).size(), 5u);
  const std::string json = server.SnapshotMetrics();
  for (const char* key : {"\"tcq.shard.0.parks\"", "\"tcq.shard.1.woken_parks\"",
                          "\"tcq.shard.egress.parks\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << " missing: " << json;
  }
  // Sums one field over the "shards" rows: this fleet's own ShardStats,
  // unlike the process-wide registry counters.
  auto sum_field = [&json](const std::string& field) {
    const std::string key = "\"" + field + "\":";
    uint64_t total = 0;
    for (size_t at = json.find(key, json.find("\"shards\":{"));
         at != std::string::npos; at = json.find(key, at + 1)) {
      total += std::stoull(json.substr(at + key.size()));
    }
    return total;
  };
  EXPECT_GT(sum_field("parks"), 0u);
  EXPECT_GT(sum_field("woken_parks"), 0u);
}

// ---- Batch ingest ---------------------------------------------------------

TEST_F(ServerTest, PushBatchSkipsAndCountsInvalidTuples) {
  auto q = server_.Submit(
      "SELECT closingPrice FROM ClosingStockPrices "
      "WHERE stockSymbol = 'MSFT' AND closingPrice > 45");
  ASSERT_TRUE(q.ok()) << q.status();
  std::vector<Tuple> batch = {
      Stock(5, "MSFT", 50.0),
      Stock(3, "MSFT", 50.0),  // Out of order: rejected, not fatal.
      Stock(6, "MSFT", 50.0),
      Tuple::Make({Value::Int64(7)}, 7),  // Arity mismatch: rejected.
      Stock(8, "MSFT", 50.0),
  };
  size_t rejected = 0;
  ASSERT_TRUE(
      server_.PushBatch("ClosingStockPrices", std::move(batch), &rejected)
          .ok());
  EXPECT_EQ(rejected, 2u);

  // Without the rejection sink, the valid prefix lands and the first
  // error comes back — the same contract as a Push loop that stops there.
  std::vector<Tuple> tail = {Stock(9, "MSFT", 50.0), Stock(4, "MSFT", 50.0),
                             Stock(10, "MSFT", 50.0)};
  EXPECT_FALSE(server_.PushBatch("ClosingStockPrices", std::move(tail)).ok());
  EXPECT_TRUE(server_.Push("ClosingStockPrices", Stock(11, "MSFT", 50.0)).ok());

  // Every accepted day (5,6,8,9,11) reached the CACQ filter exactly once.
  std::string days;
  for (const Tuple& row : FlattenRows(server_.PollAll(*q))) {
    days += std::to_string(row.timestamp()) + ",";
  }
  EXPECT_EQ(days, "5,6,8,9,11,");
}

TEST(ServerIngestTest, MistypedCellsAreRejected) {
  // A DOUBLE cell in an INT64 column is refused at ingest, like an arity
  // mismatch, so an exact SUM over the column never reads it as INT64.
  SchemaPtr schema = Schema::Make(
      {{"ts", ValueType::kInt64, ""}, {"v", ValueType::kInt64, ""}});
  Server server;
  ASSERT_TRUE(server.DefineStream("S", schema, 0).ok());
  auto q = server.Submit(
      "SELECT SUM(v) FROM S for (t = 4; true; t += 4) "
      "{ WindowIs(S, t - 3, t); }");
  ASSERT_TRUE(q.ok()) << q.status();
  auto row = [](int64_t ts, Value v) {
    return Tuple::Make({Value::Int64(ts), std::move(v)}, ts);
  };
  const Status st = server.Push("S", row(1, Value::Double(2.5)));
  EXPECT_EQ(st.code(), StatusCode::kTypeError) << st;
  ASSERT_TRUE(server.Push("S", row(2, Value::Int64(1))).ok());
  // In a batch: skipped and counted, the rest ingested. NULL fits any
  // column.
  size_t rejected = 0;
  ASSERT_TRUE(server
                  .PushBatch("S",
                             {row(3, Value::String("x")), row(3, Value::Null()),
                              row(4, Value::Int64(5)),
                              row(5, Value::Double(1.0))},
                             &rejected)
                  .ok());
  EXPECT_EQ(rejected, 2u);
  ASSERT_TRUE(server.Push("S", row(9, Value::Int64(0))).ok());
  // Windows [1,4] and [5,8]: 1 + 5, then nothing (NULL).
  const std::vector<ResultSet> sets = server.PollAll(*q);
  ASSERT_EQ(sets.size(), 2u);
  EXPECT_EQ(sets[0].rows[0].cell(0).int64_value(), 6);
  EXPECT_TRUE(sets[1].rows[0].cell(0).is_null());
  // A retraction is checked the same way.
  EXPECT_EQ(server.Retract("S", row(4, Value::Double(5.0))).code(),
            StatusCode::kTypeError);
  EXPECT_EQ(server.Retract("S", Tuple::Make({Value::Int64(4)}, 4)).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(ServerTest, PushBatchUnknownStreamFails) {
  size_t rejected = 0;
  EXPECT_FALSE(
      server_.PushBatch("NoSuchStream", {Stock(1, "MSFT", 1.0)}, &rejected)
          .ok());
  EXPECT_EQ(rejected, 0u);
}

// ---- Shared window scan -----------------------------------------------------

TEST(ServerSharedScanTest, SharedScanReadsEachTupleOnce) {
  // Sixteen overlapping sliding windows over one stream: the per-query
  // path would read every tuple about width/step times per query; the
  // shared scan reads the merged union of the ready windows once per
  // advance.
  SchemaPtr trades = Schema::Make({{"ts", ValueType::kInt64, ""},
                                   {"sym", ValueType::kString, ""},
                                   {"price", ValueType::kDouble, ""},
                                   {"qty", ValueType::kInt64, ""}});
  Server server;
  ASSERT_TRUE(server.DefineStream("S", trades, 0).ok());
  std::vector<QueryId> ids;
  for (int q = 0; q < 16; ++q) {
    auto id = server.Submit(
        "SELECT COUNT(*), SUM(price) FROM S WHERE sym = '" +
        std::string(1, static_cast<char>('A' + q % 4)) +
        "' for (t = ST; true; t += 2) { WindowIs(S, t - 9, t); }");
    ASSERT_TRUE(id.ok()) << id.status();
    ids.push_back(*id);
  }
  // Timestamps rise by 0-2 per tuple; about one cell in twelve is NULL.
  Rng rng(5);
  std::vector<Tuple> feed;
  int64_t ts = 1;
  for (size_t i = 0; i < 400; ++i) {
    ts += static_cast<int64_t>(rng.NextBounded(3));
    auto maybe_null = [&](Value v) {
      return rng.NextBounded(12) == 0 ? Value::Null() : std::move(v);
    };
    static const char* const kSyms[] = {"A", "B", "C", "D"};
    feed.push_back(Tuple::Make(
        {Value::Int64(ts), maybe_null(Value::String(kSyms[rng.NextBounded(4)])),
         maybe_null(Value::Double(static_cast<double>(rng.NextBounded(1000)) /
                                  7.0)),
         maybe_null(Value::Int64(static_cast<int64_t>(rng.NextBounded(10))))},
        ts));
  }
  for (size_t at = 0; at < feed.size(); at += 50) {
    const auto from = feed.begin() + static_cast<ptrdiff_t>(at);
    ASSERT_TRUE(
        server.PushBatch("S", std::vector<Tuple>(from, from + 50)).ok());
  }
  const std::string snap = server.SnapshotMetrics();
  const size_t at = snap.find("\"windows\":{\"fired\":");
  ASSERT_NE(at, std::string::npos) << snap;
  unsigned long long fired = 0, scanned = 0, shared = 0;
  ASSERT_EQ(std::sscanf(snap.c_str() + at,
                        "\"windows\":{\"fired\":%llu,\"scanned\":%llu,"
                        "\"shared_scans\":%llu",
                        &fired, &scanned, &shared),
            3);
  EXPECT_GT(fired, 16u * 100);
  EXPECT_EQ(shared, feed.size() / 50);
  // Each advance re-reads at most the 9 ticks of overlap with the last
  // one (about 1.5 tuples per tick here), so the reads stay close to the
  // arrivals instead of growing with queries x windows.
  EXPECT_LE(scanned, feed.size() + shared * 20);
  EXPECT_GE(scanned, feed.size() / 2);
}

TEST(ServerNullTest, NullCellsFailEveryComparisonOnBothPaths) {
  // SQL semantics over a feed where every third cell is NULL: a NULL
  // comparison is never true, so for each operator the standing CACQ
  // filter (GroupedFilter) and a windowed query over the same rows (the
  // shared window scan) deliver exactly the rows an oracle computes from
  // the non-NULL cells. Checked inline and on a two-shard fleet.
  const std::vector<std::pair<std::string, std::function<bool(int64_t)>>>
      ops = {{"<", [](int64_t x) { return x < 5; }},
             {"<=", [](int64_t x) { return x <= 5; }},
             {">", [](int64_t x) { return x > 5; }},
             {">=", [](int64_t x) { return x >= 5; }},
             {"=", [](int64_t x) { return x == 5; }},
             {"!=", [](int64_t x) { return x != 5; }}};
  constexpr int64_t kTuples = 60;
  auto cell = [](int64_t ts) {
    return ts % 3 == 0 ? Value() : Value::Int64(ts % 11);
  };
  for (const size_t shards : {size_t{1}, size_t{2}}) {
    Server::Options options;
    options.cacq_shards = shards;
    Server server(options);
    ASSERT_TRUE(server
                    .DefineStream("Feed",
                                  Schema::Make({{"ts", ValueType::kInt64, ""},
                                                {"x", ValueType::kInt64, ""}}),
                                  /*timestamp_field=*/0)
                    .ok());
    std::vector<std::pair<QueryId, QueryId>> queries;  // (cacq, windowed)
    for (const auto& [op, pred] : ops) {
      const std::string where = "SELECT ts FROM Feed WHERE x " + op + " 5";
      auto standing = server.Submit(where);
      auto windowed = server.Submit(
          where + " for (t = 1; t <= " + std::to_string(kTuples) +
          "; t += 10) { WindowIs(Feed, t, t + 9); }");
      ASSERT_TRUE(standing.ok()) << standing.status();
      ASSERT_TRUE(windowed.ok()) << windowed.status();
      queries.emplace_back(*standing, *windowed);
    }
    for (int64_t ts = 1; ts <= kTuples; ++ts) {
      ASSERT_TRUE(
          server.Push("Feed", Tuple::Make({Value::Int64(ts), cell(ts)}, ts))
              .ok());
    }
    ASSERT_TRUE(server.Heartbeat("Feed", kTuples + 1).ok());
    server.Quiesce();
    auto timestamps = [&server](QueryId q) {
      std::vector<int64_t> out;
      for (const ResultSet& rs : server.PollAll(q)) {
        for (const Tuple& row : rs.rows) out.push_back(row.cell(0).int64_value());
      }
      std::sort(out.begin(), out.end());
      return out;
    };
    for (size_t i = 0; i < ops.size(); ++i) {
      std::vector<int64_t> expected;
      for (int64_t ts = 1; ts <= kTuples; ++ts) {
        const Value v = cell(ts);
        if (!v.is_null() && ops[i].second(v.int64_value())) {
          expected.push_back(ts);
        }
      }
      ASSERT_FALSE(expected.empty()) << ops[i].first;
      EXPECT_EQ(timestamps(queries[i].first), expected)
          << "standing x " << ops[i].first << " 5, shards " << shards;
      EXPECT_EQ(timestamps(queries[i].second), expected)
          << "windowed x " << ops[i].first << " 5, shards " << shards;
    }
  }
}

TEST(ServerNullTest, NanCellsAnswerAsTheFactorEvaluatesWhateverElseIsRegistered) {
  // A NaN compares equal to every number (Value::Compare, which a
  // residual factor and a per-window filter evaluate), so it passes =, <=
  // and >= and fails <, > and !=. A standing filter's answer must not
  // depend on the other queries of its stream: `x >= 5.0` over {7.0, NaN}
  // once delivered one row instead of two beside `x <= 1.0`, whose bound
  // drew NaN into its point region.
  const std::vector<std::string> ops = {"<", "<=", ">", ">=", "=", "!="};
  const std::vector<double> feed = {7.0, std::nan(""), 5.0, -0.0, 1.0};
  auto passes = [](const std::string& op, double x) {
    const int c = Value::Double(x).Compare(Value::Double(5.0));
    if (op == "<") return c < 0;
    if (op == "<=") return c <= 0;
    if (op == ">") return c > 0;
    if (op == ">=") return c >= 0;
    if (op == "=") return c == 0;
    return c != 0;
  };
  for (const std::string& op : ops) {
    std::vector<int64_t> expected;
    for (size_t i = 0; i < feed.size(); ++i) {
      if (passes(op, feed[i])) expected.push_back(static_cast<int64_t>(i) + 1);
    }
    for (const bool companions : {false, true}) {
      Server server;
      ASSERT_TRUE(server
                      .DefineStream(
                          "Feed",
                          Schema::Make({{"ts", ValueType::kInt64, ""},
                                        {"x", ValueType::kDouble, ""}}),
                          /*timestamp_field=*/0)
                      .ok());
      auto q = server.Submit("SELECT ts FROM Feed WHERE x " + op + " 5.0");
      ASSERT_TRUE(q.ok()) << q.status();
      if (companions) {
        for (const char* sql : {"SELECT ts FROM Feed WHERE x <= 1.0",
                                "SELECT ts FROM Feed WHERE x > 9",
                                "SELECT ts FROM Feed WHERE x = 0.0",
                                "SELECT ts FROM Feed WHERE x != 7.0"}) {
          ASSERT_TRUE(server.Submit(sql).ok()) << sql;
        }
      }
      for (size_t i = 0; i < feed.size(); ++i) {
        const int64_t ts = static_cast<int64_t>(i) + 1;
        ASSERT_TRUE(server
                        .Push("Feed", Tuple::Make({Value::Int64(ts),
                                                   Value::Double(feed[i])},
                                                  ts))
                        .ok());
      }
      std::vector<int64_t> got;
      for (const ResultSet& rs : server.PollAll(*q)) {
        for (const Tuple& row : rs.rows) got.push_back(row.cell(0).int64_value());
      }
      EXPECT_EQ(got, expected)
          << "x " << op << " 5.0" << (companions ? " with companions" : "");
    }
  }
}

// ---- Batched egress --------------------------------------------------------

// ---- Panes (DESIGN.md §17) -------------------------------------------------

/// One field of SnapshotMetrics' "windows" object.
uint64_t WindowsMetric(const Server& server, const std::string& field) {
  const std::string snap = server.SnapshotMetrics();
  const size_t windows = snap.find("\"windows\":{");
  const size_t at = snap.find("\"" + field + "\":", windows);
  EXPECT_NE(windows, std::string::npos) << snap;
  EXPECT_NE(at, std::string::npos) << snap;
  return std::strtoull(snap.c_str() + at + field.size() + 3, nullptr, 10);
}

/// The first stream's "history" "resident_bytes" in SnapshotMetrics.
int64_t HistoryBytes(const Server& server) {
  const std::string snap = server.SnapshotMetrics();
  const std::string key = "\"history\":{\"resident\":";
  const size_t history = snap.find(key, snap.find("\"streams\":{"));
  const size_t at = snap.find("\"resident_bytes\":", history);
  EXPECT_NE(history, std::string::npos) << snap;
  EXPECT_NE(at, std::string::npos) << snap;
  return std::strtoll(snap.c_str() + at + 17, nullptr, 10);
}

/// A result set, doubles by their bits: equal strings are byte-identical
/// sets.
std::string RenderSet(const ResultSet& rs) {
  std::string out = "t=" + std::to_string(rs.t);
  for (const Tuple& row : rs.rows) {
    out += " [" + std::to_string(row.timestamp());
    for (size_t c = 0; c < row.arity(); ++c) {
      const Value& v = row.cell(c);
      out += v.type() == ValueType::kDouble
                 ? " d" + std::to_string(std::bit_cast<uint64_t>(
                              v.double_value()))
                 : " " + v.ToString();
    }
    out += "]";
  }
  return out;
}

/// A Server and, beside it, standalone QueryRunners over an archive fed
/// the way the server feeds its own: in-order arrivals appended,
/// kIngestLate stragglers inserted after them, matched retractions
/// cancelled, and every runner advanced to the server's watermark after
/// each call. The server fires single-stream windows through its window
/// plan, a runner each through its own per-window Eddy, so every set the
/// two deliver must be byte-identical.
class PaneRig {
 public:
  explicit PaneRig(Timestamp retention_span = kMaxTimestamp)
      : server_(Options(retention_span)), archive_(retention_span) {
    EXPECT_TRUE(server_.DefineStream("S", Schema(), 0).ok());
    EXPECT_TRUE(
        server_.SetDisorderBound("S", 0, LatePolicy::kIngestLate).ok());
    EXPECT_TRUE(catalog_
                    .RegisterStream(StreamDef{.name = "S",
                                              .schema = Schema(),
                                              .timestamp_field = 0})
                    .ok());
  }

  static Server::Options Options(Timestamp retention_span) {
    Server::Options options;
    options.retention_span = retention_span;
    return options;
  }

  static SchemaPtr Schema() {
    return Schema::Make({{"ts", ValueType::kInt64, ""},
                         {"k", ValueType::kInt64, ""},
                         {"v", ValueType::kInt64, ""},
                         {"p", ValueType::kDouble, ""}});
  }

  size_t Submit(const std::string& sql) {
    auto id = server_.Submit(sql);
    EXPECT_TRUE(id.ok()) << id.status() << ": " << sql;
    auto analyzed = AnalyzeSql(sql, catalog_);
    EXPECT_TRUE(analyzed.ok()) << analyzed.status();
    QueryRunner::Options options;
    options.start_time = std::max<Timestamp>(1, watermark_ + 1);
    queries_.push_back(
        Query{*id, sql,
              std::make_unique<QueryRunner>(
                  *analyzed, std::vector<const Archive*>{&archive_},
                  std::vector<TupleVector>(1), options),
              {}, {}});
    Collect();
    return queries_.size() - 1;
  }

  void Push(const std::vector<Tuple>& batch) {
    EXPECT_TRUE(server_.PushBatch("S", batch).ok());
    std::vector<Tuple> late;
    for (Tuple t : batch) {
      t.set_timestamp(t.cell(0).int64_value());
      if (t.timestamp() < watermark_) {
        late.push_back(std::move(t));
        continue;
      }
      watermark_ = t.timestamp();
      archive_.Append(t);
      history_.push_back(t);
    }
    for (const Tuple& t : late) archive_.InsertOrdered(t);
    Collect();
  }

  /// Retracts the in-order arrival `i` (of those pushed so far).
  void Retract(size_t i) {
    Tuple r = history_[i];
    EXPECT_TRUE(server_.Retract("S", r).ok());
    r.set_retraction(true);
    archive_.CancelMatching(r);
    Collect();
  }

  void Heartbeat(Timestamp ts) {
    EXPECT_TRUE(server_.Heartbeat("S", ts).ok());
    watermark_ = std::max(watermark_, ts);
    Collect();
  }

  void Cancel(size_t q) {
    EXPECT_TRUE(server_.Cancel(queries_[q].id).ok());
    queries_[q].runner.reset();
  }

  /// Every query's sets so far, server against runner.
  void ExpectSameSets(const std::string& context) const {
    for (const Query& q : queries_) {
      ASSERT_EQ(q.got, q.want) << context << "\n" << q.sql;
    }
  }

  size_t history() const { return history_.size(); }
  Timestamp watermark() const { return watermark_; }
  const Server& server() const { return server_; }
  const std::vector<std::string>& got(size_t q) const {
    return queries_[q].got;
  }

 private:
  struct Query {
    QueryId id;
    std::string sql;
    std::unique_ptr<QueryRunner> runner;  ///< Null once cancelled.
    std::vector<std::string> got, want;
  };

  void Collect() {
    for (Query& q : queries_) {
      if (q.runner == nullptr) continue;
      for (const ResultSet& rs : server_.PollAll(q.id)) {
        q.got.push_back(RenderSet(rs));
      }
      std::vector<ResultSet> sets;
      q.runner->Advance(watermark_, &sets);
      for (const ResultSet& rs : sets) q.want.push_back(RenderSet(rs));
    }
  }

  Server server_;
  Catalog catalog_;
  Archive archive_;
  Timestamp watermark_ = kMinTimestamp;
  std::vector<Tuple> history_;  ///< In-order arrivals.
  std::vector<Query> queries_;
};

Tuple PaneRow(Rng* rng, Timestamp ts) {
  auto maybe_null = [rng](Value v) {
    return rng->NextBounded(12) == 0 ? Value::Null() : std::move(v);
  };
  return Tuple::Make(
      {Value::Int64(ts), maybe_null(Value::Int64(rng->NextInt(0, 7))),
       maybe_null(Value::Int64(rng->NextInt(-20, 60))),
       maybe_null(Value::Double(
           static_cast<double>(rng->NextBounded(1000)) / 7.0))},
      ts);
}

std::string SlidingSql(const std::string& select, const std::string& where,
                       int64_t width, int64_t hop,
                       const std::string& start = "ST") {
  std::string sql = "SELECT " + select + " FROM S" + where;
  if (select.rfind("k, ", 0) == 0) sql += " GROUP BY k";
  return sql + " for (t = " + start + "; true; t += " + std::to_string(hop) +
         ") { WindowIs(S, t - " + std::to_string(width - 1) + ", t); }";
}

std::string LandmarkSql(const std::string& select, const std::string& where,
                        const std::string& left, int64_t hop,
                        const std::string& start = "ST") {
  std::string sql = "SELECT " + select + " FROM S" + where;
  if (select.rfind("k, ", 0) == 0) sql += " GROUP BY k";
  return sql + " for (t = " + start + "; true; t += " + std::to_string(hop) +
         ") { WindowIs(S, " + left + ", t); }";
}

TEST(ServerPaneTest, MatchesStandaloneRunnersOverRandomShapes) {
  // Widths 1-12; hops equal to the width, below it (gcd 1 included) and
  // above it (panes in the gaps are never built); grouped and ungrouped
  // merges, projections, and the AVG and double SUM fallback. Landmarks
  // from a fixed left end (the running state; projections stay units)
  // over the same lists, AVG and double SUM included. Feeds carry
  // timestamp ties, NULLs, kIngestLate stragglers (near the frontier and
  // far behind it, before the landmarks' newest checkpoints) and
  // retractions into built panes; a query joins mid-stream with windows
  // over history and one of two queries on the same key leaves. The last
  // seeds keep a retention span, so landmarks lose their left end.
  const char* const kSelects[] = {
      "COUNT(*), SUM(v), MAX(p), MIN(v)", "k, COUNT(*), SUM(v), MAX(p)",
      "ts, k, p", "AVG(p), COUNT(v)", "MIN(p), SUM(p), MAX(v)"};
  const char* const kWheres[] = {"", " WHERE k = 3", " WHERE v > 10",
                                 " WHERE v + 1 > 5",
                                 " WHERE k != 5 AND v <= 40"};
  uint64_t panes = 0;
  uint64_t rewrites = 0;
  for (uint64_t seed = 1; seed <= 48; ++seed) {
    Rng rng(seed);
    // Landmark shapes and far stragglers draw from their own stream, so
    // the sliding shapes and the feed are those of the seed alone.
    Rng extra(1000 + seed);
    PaneRig rig(seed > 40 ? 15 + static_cast<Timestamp>(extra.NextBounded(60))
                          : kMaxTimestamp);
    auto random_sql = [&](const std::string& start) {
      const int64_t width = 1 + static_cast<int64_t>(rng.NextBounded(12));
      const uint64_t kind = rng.NextBounded(3);
      const int64_t hop =
          kind == 0   ? width
          : kind == 1 ? 1 + static_cast<int64_t>(rng.NextBounded(
                                static_cast<uint64_t>(width)))
                      : width + 1 + static_cast<int64_t>(rng.NextBounded(5));
      return SlidingSql(kSelects[rng.NextBounded(std::size(kSelects))],
                        kWheres[rng.NextBounded(std::size(kWheres))], width,
                        hop, start);
    };
    auto random_landmark = [&](const std::string& start) {
      const std::string lefts[] = {
          "1", "ST", std::to_string(1 + extra.NextBounded(40))};
      return LandmarkSql(kSelects[extra.NextBounded(std::size(kSelects))],
                         kWheres[extra.NextBounded(std::size(kWheres))],
                         lefts[extra.NextBounded(3)],
                         1 + static_cast<int64_t>(extra.NextBounded(8)),
                         start);
    };
    for (int q = 0; q < 6; ++q) rig.Submit(random_sql("ST"));
    for (int q = 0; q < 3; ++q) rig.Submit(random_landmark("ST"));
    rig.Submit(SlidingSql("COUNT(*), MAX(v)", " WHERE k = 3", 10, 3));
    const size_t leaves =
        rig.Submit(SlidingSql("COUNT(*), MAX(v)", " WHERE k = 3", 10, 3));
    Timestamp ts = 1;
    for (int batch = 0; batch < 40; ++batch) {
      std::vector<Tuple> tuples;
      for (uint64_t i = 0, n = 1 + rng.NextBounded(12); i < n; ++i) {
        ts += static_cast<Timestamp>(rng.NextBounded(3));
        const bool straggler = rig.watermark() > 20 && rng.NextBounded(12) == 0;
        tuples.push_back(PaneRow(
            &rng, straggler ? rig.watermark() - 1 -
                                  static_cast<Timestamp>(rng.NextBounded(15))
                            : ts));
      }
      if (rig.watermark() > 120 && extra.NextBounded(5) == 0) {
        tuples.push_back(PaneRow(
            &extra, rig.watermark() - 20 -
                        static_cast<Timestamp>(extra.NextBounded(100))));
      }
      rig.Push(tuples);
      if (rig.history() > 0 && rng.NextBounded(4) == 0) {
        rig.Retract(rig.history() - 1 - rng.NextBounded(std::min<size_t>(
                                            rig.history(), 20)));
      }
      if (batch == 20) {
        rig.Submit(random_sql("5"));  // Its first windows are history.
        rig.Submit(random_landmark("5"));
        rig.Cancel(leaves);
      }
    }
    rig.Heartbeat(ts + 30);
    rig.ExpectSameSets("seed " + std::to_string(seed));
    panes += WindowsMetric(rig.server(), "panes");
    rewrites += WindowsMetric(rig.server(), "pane_rewrites");
  }
  EXPECT_GT(panes, 0u);
  EXPECT_GT(rewrites, 0u);
}

// Typed MIN/MAX state (INT64 and DOUBLE kept as plain numbers) through the
// three paths a window takes: panes merged in order, units scanned whole
// (a double group key never takes panes) and the running state of a
// landmark, against standalone runners byte for byte. Cells reach both
// INT64 ends, NaN (first, last and between), signed zeros and infinities.
TEST(ServerPaneTest, TypedExtremesMatchStandaloneRunners) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const int64_t ints[] = {INT64_MIN, INT64_MIN + 1, -1, 0, 1, INT64_MAX - 1,
                          INT64_MAX};
  const double doubles[] = {nan, -0.0, 0.0, -1.5, 2.25, 1e308, -inf, inf};
  const char* const kWheres[] = {"", " WHERE k = 1", " WHERE v > 0"};
  uint64_t panes = 0;
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    Rng rng(seed);
    PaneRig rig(seed > 20 ? 20 : kMaxTimestamp);
    auto where = [&] { return kWheres[rng.NextBounded(std::size(kWheres))]; };
    for (int q = 0; q < 4; ++q) {
      const int64_t width = 1 + static_cast<int64_t>(rng.NextBounded(10));
      const int64_t hop = 1 + static_cast<int64_t>(rng.NextBounded(
                                  static_cast<uint64_t>(width) + 2));
      rig.Submit(SlidingSql("MIN(v), MAX(v), MIN(p), MAX(p)", where(), width,
                            hop));
      rig.Submit(SlidingSql("k, MAX(v), MIN(p), COUNT(*)", where(), width,
                            hop));
      // Units: a DOUBLE group key takes no panes.
      rig.Submit("SELECT p, MIN(v), MAX(v) FROM S" + std::string(where()) +
                 " GROUP BY p for (t = ST; true; t += " + std::to_string(hop) +
                 ") { WindowIs(S, t - " + std::to_string(width - 1) +
                 ", t); }");
    }
    rig.Submit(LandmarkSql("MIN(v), MAX(v), MIN(p), MAX(p)", where(), "ST",
                           1 + static_cast<int64_t>(rng.NextBounded(5))));
    Timestamp ts = 1;
    for (int batch = 0; batch < 30; ++batch) {
      std::vector<Tuple> tuples;
      for (uint64_t i = 0, n = 1 + rng.NextBounded(10); i < n; ++i) {
        ts += static_cast<Timestamp>(rng.NextBounded(3));
        auto maybe_null = [&rng](Value v) {
          return rng.NextBounded(10) == 0 ? Value::Null() : std::move(v);
        };
        tuples.push_back(Tuple::Make(
            {Value::Int64(ts),
             maybe_null(Value::Int64(rng.NextInt(0, 3))),
             maybe_null(Value::Int64(ints[rng.NextBounded(std::size(ints))])),
             maybe_null(Value::Double(
                 doubles[rng.NextBounded(std::size(doubles))]))},
            ts));
      }
      rig.Push(tuples);
    }
    rig.Heartbeat(ts + 30);
    rig.ExpectSameSets("seed " + std::to_string(seed));
    panes += WindowsMetric(rig.server(), "panes");
  }
  EXPECT_GT(panes, 0u);
}

TEST(ServerPaneTest, StragglerAndRetractionRebuildOnlyTheirPanes) {
  // Windows of 10 ticks every 2: panes of 2 ticks. At watermark 40 the
  // windows up to t = 39 have fired and the panes of [30, 39] are kept
  // for the windows still to come.
  PaneRig rig;
  Rng rng(3);
  rig.Submit(SlidingSql("COUNT(*), SUM(v), MAX(p)", "", 10, 2));
  rig.Submit(SlidingSql("k, COUNT(*), MIN(v)", "", 10, 2));
  rig.Submit(SlidingSql("ts, v", "", 10, 2));
  for (Timestamp ts = 1; ts <= 40; ++ts) rig.Push({PaneRow(&rng, ts)});
  const uint64_t built = WindowsMetric(rig.server(), "panes");
  EXPECT_EQ(WindowsMetric(rig.server(), "pane_rewrites"), 0u);
  // A straggler into the pane [36, 37]: every query drops it and the
  // one built after it, [38, 39], and rebuilds both for the window of
  // t = 41, which fires once a tuple at 42 arrives.
  rig.Push({PaneRow(&rng, 36)});
  EXPECT_EQ(WindowsMetric(rig.server(), "pane_rewrites"), 2u * 3);
  rig.Push({PaneRow(&rng, 41)});
  rig.Push({PaneRow(&rng, 42)});
  EXPECT_EQ(WindowsMetric(rig.server(), "panes"), built + 3u * 3);
  // A retraction of tick 33's tuple drops the panes from [32, 33] on.
  // That one is gone already (the next window starts at 34), so four per
  // query: [34, 35] to [40, 41].
  rig.Retract(32);
  rig.Push({PaneRow(&rng, 43)});
  EXPECT_EQ(WindowsMetric(rig.server(), "pane_rewrites"), 2u * 3 + 4u * 3);
  rig.Heartbeat(60);
  rig.ExpectSameSets("straggler and retraction");
}

TEST(ServerPaneTest, EachPaneIsBuiltOnceWithoutRewrites) {
  // One tuple per tick, in order: every pane is non-empty, so the panes
  // built are exactly the grid cells some window covers that the
  // watermark has reached, each once.
  const int64_t kShapes[][2] = {{10, 5}, {10, 3}, {12, 4}, {16, 8},
                                {4, 4},  {3, 7},  {1, 1}};
  PaneRig rig;
  for (const auto& [width, hop] : kShapes) {
    rig.Submit(SlidingSql("COUNT(*), MAX(v)", "", width, hop));
  }
  Rng rng(9);
  std::vector<Tuple> batch;
  for (Timestamp ts = 1; ts <= 300; ++ts) {
    batch.push_back(PaneRow(&rng, ts));
    if (batch.size() == 7) rig.Push(std::exchange(batch, {}));
  }
  rig.Push(batch);
  rig.ExpectSameSets("in order");
  uint64_t cells = 0;
  for (const auto& [width, hop] : kShapes) {
    // ST is 1, so window k is [1 - (width - 1) + k * hop, ...]; its left
    // end at k = 0 anchors the grid.
    const int64_t pane = std::gcd(width, hop);
    const Timestamp anchor = 1 - (width - 1);
    std::set<int64_t> covered;
    for (Timestamp left = anchor; left < 300; left += hop) {
      for (Timestamp start = left; start < left + width; start += pane) {
        // Reached by the watermark (300), and not wholly before the first
        // tuple (such a pane holds nothing and is never made).
        if (start + pane - 1 >= 1 && start < 300) {
          covered.insert((start - anchor) / pane);
        }
      }
    }
    cells += covered.size();
  }
  EXPECT_EQ(WindowsMetric(rig.server(), "panes"), cells);
  EXPECT_EQ(WindowsMetric(rig.server(), "pane_rewrites"), 0u);
  // Each tuple below the watermark was read once, not once per window
  // or query over it.
  EXPECT_EQ(WindowsMetric(rig.server(), "scanned"), 299u);
}

TEST(ServerPaneTest, RetentionDropsThePanesItReachesInto) {
  // History older than 25 ticks is gone, and windows reach 40 ticks back:
  // panes reaching below the archive's floor are dropped, and the windows
  // over them see only what is retained, as their own scans would.
  PaneRig rig(/*retention_span=*/25);
  Rng rng(8);
  rig.Submit(SlidingSql("COUNT(*), SUM(v), MAX(p)", "", 40, 4));
  rig.Submit(SlidingSql("ts, v", " WHERE k < 4", 30, 6));
  rig.Submit(SlidingSql("k, COUNT(*), MIN(v)", "", 12, 3));
  for (Timestamp ts = 1; ts <= 120; ++ts) {
    rig.Push({PaneRow(&rng, ts), PaneRow(&rng, ts)});
  }
  rig.ExpectSameSets("retention");
  EXPECT_GT(WindowsMetric(rig.server(), "pane_rewrites"), 0u);
}

TEST(ServerPaneTest, MidStreamSubmitBuildsPanesFromHistory) {
  PaneRig rig;
  Rng rng(4);
  for (Timestamp ts = 1; ts <= 100; ++ts) rig.Push({PaneRow(&rng, ts)});
  // Windows from t = 20 are history at submission: they fire at once,
  // from panes built over the archive.
  rig.Submit(SlidingSql("COUNT(*), SUM(v), MAX(p)", " WHERE v > 10", 10, 3,
                        "20"));
  rig.Submit(SlidingSql("ts, k", " WHERE k = 2", 6, 4, "20"));
  EXPECT_FALSE(rig.got(0).empty());
  EXPECT_GT(WindowsMetric(rig.server(), "panes"), 0u);
  for (Timestamp ts = 101; ts <= 130; ++ts) rig.Push({PaneRow(&rng, ts)});
  rig.ExpectSameSets("mid-stream submit");
}

TEST(ServerPaneTest, CancellingOneOfTwoQueriesOnAKey) {
  PaneRig rig;
  Rng rng(6);
  const size_t stays =
      rig.Submit(SlidingSql("COUNT(*), MAX(v)", " WHERE k = 3", 8, 2));
  const size_t leaves =
      rig.Submit(SlidingSql("COUNT(*), MAX(v)", " WHERE k = 3", 8, 2));
  for (Timestamp ts = 1; ts <= 40; ++ts) rig.Push({PaneRow(&rng, ts)});
  const size_t delivered = rig.got(leaves).size();
  rig.Cancel(leaves);
  for (Timestamp ts = 41; ts <= 80; ++ts) rig.Push({PaneRow(&rng, ts)});
  rig.ExpectSameSets("after cancel");
  EXPECT_EQ(rig.got(leaves).size(), delivered);
  EXPECT_GT(rig.got(stays).size(), delivered);
}

// ---- The pane ring (DESIGN.md §17 "Panes") ---------------------------------
// A grid query keeps its panes in a ring indexed by pane slot, 8 slots at
// first; these cases drive it past that, around it, over gaps, through
// rewrites and under eviction, each against standalone runners.

TEST(ServerPaneTest, RingWrapsAndGrows) {
  // 40, 15 and 9 panes per window, more than the ring's first 8 slots; a
  // mid-stream Submit and a heartbeat jump fire many windows at once, so
  // the ring holds the panes of all of them.
  PaneRig rig;
  Rng rng(21);
  rig.Submit(SlidingSql("COUNT(*), SUM(v), MAX(p)", "", 40, 1));
  rig.Submit(SlidingSql("ts, v", " WHERE k < 4", 30, 2));
  rig.Submit(SlidingSql("k, COUNT(*), MIN(v)", "", 36, 4));
  Timestamp ts = 1;
  for (int batch = 0; batch < 60; ++batch) {
    std::vector<Tuple> tuples;
    for (uint64_t i = 0, n = 1 + rng.NextBounded(8); i < n; ++i) {
      ts += static_cast<Timestamp>(rng.NextBounded(3));
      tuples.push_back(PaneRow(&rng, ts));
    }
    rig.Push(tuples);
    if (batch == 30) {
      rig.Submit(SlidingSql("MIN(v), MAX(v), COUNT(*)", " WHERE v > 0", 24,
                            3, "5"));
    }
  }
  rig.Heartbeat(ts + 200);
  for (int i = 0; i < 20; ++i) rig.Push({PaneRow(&rng, ts + 200 + i)});
  rig.Heartbeat(ts + 400);
  rig.ExpectSameSets("ring wraps and grows");
  EXPECT_GT(WindowsMetric(rig.server(), "panes"), 0u);
  EXPECT_EQ(WindowsMetric(rig.server(), "pane_rewrites"), 0u);
  // Each tuple read once (the Submit over history aside): the windows
  // merged panes rather than scanning themselves whole.
  EXPECT_LE(WindowsMetric(rig.server(), "scanned"), 2 * rig.history());
}

TEST(ServerPaneTest, HopsWiderThanTheWindowSkipTheGaps) {
  // Slots number only the panes inside windows: a gap holds none, and a
  // tuple in it is never read. Stragglers land in kept panes and in gaps.
  PaneRig rig;
  Rng rng(22);
  rig.Submit(SlidingSql("COUNT(*), SUM(v), MAX(p)", "", 3, 7));
  rig.Submit(SlidingSql("ts, k, v", "", 4, 10));
  rig.Submit(SlidingSql("k, COUNT(*), MIN(v)", " WHERE v > 5", 6, 9));
  rig.Submit(SlidingSql("MAX(v), COUNT(v)", "", 1, 5));
  for (Timestamp ts = 1; ts <= 200; ++ts) {
    std::vector<Tuple> tuples = {PaneRow(&rng, ts)};
    if (ts > 20 && rng.NextBounded(6) == 0) {
      tuples.push_back(
          PaneRow(&rng, ts - 1 - static_cast<Timestamp>(rng.NextBounded(8))));
    }
    rig.Push(tuples);
  }
  rig.Heartbeat(260);
  rig.ExpectSameSets("hop wider than the width");
  EXPECT_GT(WindowsMetric(rig.server(), "panes"), 0u);
  EXPECT_GT(WindowsMetric(rig.server(), "pane_rewrites"), 0u);
}

TEST(ServerPaneTest, StragglerAfterTheRingWrappedDropsFromItsPane) {
  // Width 40, hop 1: one pane per tick. At watermark 300 the windows up to
  // t = 299 have fired and the ring (64 slots, wrapped several times)
  // keeps the panes of [261, 299] for the window of t = 300. A straggler
  // at 290 drops the panes of 290..299, and only those are rebuilt.
  PaneRig rig;
  Rng rng(23);
  rig.Submit(SlidingSql("COUNT(*), SUM(v), MAX(p)", "", 40, 1));
  for (Timestamp ts = 1; ts <= 300; ++ts) rig.Push({PaneRow(&rng, ts)});
  const uint64_t built = WindowsMetric(rig.server(), "panes");
  const uint64_t scanned = WindowsMetric(rig.server(), "scanned");
  EXPECT_EQ(scanned, 299u);
  rig.Push({PaneRow(&rng, 290)});
  EXPECT_EQ(WindowsMetric(rig.server(), "pane_rewrites"), 10u);
  rig.Push({PaneRow(&rng, 301)});
  // Ticks 290 (two tuples now) to 300 read again.
  EXPECT_EQ(WindowsMetric(rig.server(), "scanned"), scanned + 12u);
  EXPECT_EQ(WindowsMetric(rig.server(), "panes"), built + 11u);
  rig.Heartbeat(400);
  rig.ExpectSameSets("straggler after the ring wrapped");
}

TEST(ServerPaneTest, EvictionDropsRingPanesBelowTheFloor) {
  // Retention keeps 30 ticks; windows reach 60 back, over gaps too. Panes
  // starting below the floor are dropped, and windows over them are units
  // that see only what is retained.
  PaneRig rig(/*retention_span=*/30);
  Rng rng(24);
  rig.Submit(SlidingSql("COUNT(*), SUM(v), MAX(p)", "", 60, 2));
  rig.Submit(SlidingSql("ts, v", "", 45, 50));
  rig.Submit(SlidingSql("k, COUNT(*), MAX(v)", " WHERE k != 2", 20, 33));
  for (Timestamp ts = 1; ts <= 400; ++ts) {
    rig.Push({PaneRow(&rng, ts), PaneRow(&rng, ts)});
  }
  rig.Heartbeat(500);
  rig.ExpectSameSets("eviction");
  EXPECT_GT(WindowsMetric(rig.server(), "pane_rewrites"), 0u);
}

TEST(ServerPaneTest, BurstPastTheRingBoundFiresUnits) {
  // A Submit over 18,000 ticks of history fires ~18,000 windows of 1,000
  // one-tick panes at once: the ring holds the panes of the first ones,
  // up to its bound, and the rest are units scanned whole.
  PaneRig rig;
  Rng rng(25);
  std::vector<Tuple> history;
  for (Timestamp ts = 1; ts <= 18000; ts += 25) {
    history.push_back(PaneRow(&rng, ts));
  }
  rig.Push(history);
  rig.Submit(SlidingSql("COUNT(*), MAX(v), MIN(p)", "", 1000, 1, "1"));
  EXPECT_GT(rig.got(0).size(), 17000u);
  for (Timestamp ts = 18001; ts <= 18100; ++ts) {
    rig.Push({PaneRow(&rng, ts)});
  }
  rig.ExpectSameSets("burst");
  // Units build no panes: the ~60 tuples between the last window the
  // ring held and the first after the burst are in none (one tuple per
  // pane otherwise).
  EXPECT_GT(WindowsMetric(rig.server(), "panes"), 0u);
  EXPECT_LT(WindowsMetric(rig.server(), "panes"), rig.history() - 50);
}

// ---- Loops the plan does not take, and loops that end on an overflow ------

TEST(ServerPaneTest, NonLinearLoopsRunOnTheirOwnRunners) {
  // Reverse, snapshot and doubling loops are not linear: each evaluates
  // its windows whole on its own runner, beside the plan's grid, landmark
  // and unit queries, and leaves the plan's panes and shared scans as
  // they are without it.
  const std::vector<std::string> linear = {
      SlidingSql("COUNT(*), SUM(v), MAX(p)", "", 10, 3),
      LandmarkSql("COUNT(*), AVG(p)", " WHERE k != 2", "ST", 4),
      SlidingSql("AVG(p), COUNT(v)", "", 6, 2)};
  const std::vector<std::string> non_linear = {
      "SELECT COUNT(*), MAX(v) FROM S "
      "for (t = 90; t > 10; t -= 7) { WindowIs(S, t - 9, t); }",
      "SELECT ts, v FROM S WHERE k < 4 "
      "for (; t == 0; t = -1) { WindowIs(S, 20, 35); }",
      "SELECT k, COUNT(*), MIN(v) FROM S GROUP BY k "
      "for (t = 1; t < 150; t = 2 * t) { WindowIs(S, t - 3, t); }",
      "SELECT MAX(v), SUM(p) FROM S "
      "for (t = 5; t < 150; t += 5) { WindowIs(S, t, 2 * t); }"};
  uint64_t panes[2] = {0, 0};
  uint64_t shared[2] = {0, 0};
  for (const bool with_non_linear : {false, true}) {
    PaneRig rig;
    Rng rng(31);
    for (const std::string& sql : linear) rig.Submit(sql);
    if (with_non_linear) {
      for (const std::string& sql : non_linear) rig.Submit(sql);
    }
    Timestamp ts = 1;
    for (int batch = 0; batch < 40; ++batch) {
      std::vector<Tuple> tuples;
      for (uint64_t i = 0, n = 1 + rng.NextBounded(8); i < n; ++i) {
        ts += static_cast<Timestamp>(rng.NextBounded(3));
        tuples.push_back(PaneRow(&rng, ts));
      }
      rig.Push(tuples);
    }
    rig.Heartbeat(ts + 200);
    rig.ExpectSameSets(with_non_linear ? "with non-linear loops" : "linear");
    if (with_non_linear) {
      for (size_t q = linear.size(); q < linear.size() + non_linear.size();
           ++q) {
        EXPECT_FALSE(rig.got(q).empty()) << non_linear[q - linear.size()];
      }
    }
    panes[with_non_linear] = WindowsMetric(rig.server(), "panes");
    shared[with_non_linear] = WindowsMetric(rig.server(), "shared_scans");
  }
  EXPECT_GT(panes[0], 0u);
  EXPECT_EQ(panes[1], panes[0]);
  EXPECT_EQ(shared[1], shared[0]);
}

TEST(ServerPaneTest, MirroredConditionsRunOnThePlan) {
  // `C >= t` and `C > t` are `t <= C` and `t < C`: the loops are linear,
  // so the plan fires them from panes, as it does the usual spelling.
  uint64_t panes[2] = {0, 0};
  for (const bool mirrored : {false, true}) {
    PaneRig rig;
    Rng rng(37);
    rig.Submit(std::string("SELECT COUNT(*), MAX(v) FROM S for (t = 10; ") +
               (mirrored ? "150 >= t" : "t <= 150") +
               "; t += 2) { WindowIs(S, t - 9, t); }");
    rig.Submit(std::string("SELECT k, SUM(v) FROM S GROUP BY k for (t = 4; ") +
               (mirrored ? "120 > t" : "t < 120") +
               "; t += 3) { WindowIs(S, t - 5, t); }");
    Timestamp ts = 1;
    for (int batch = 0; batch < 40; ++batch) {
      std::vector<Tuple> tuples;
      for (uint64_t i = 0, n = 1 + rng.NextBounded(8); i < n; ++i) {
        ts += static_cast<Timestamp>(rng.NextBounded(3));
        tuples.push_back(PaneRow(&rng, ts));
      }
      rig.Push(tuples);
    }
    rig.Heartbeat(ts + 200);
    rig.ExpectSameSets(mirrored ? "mirrored" : "usual");
    EXPECT_FALSE(rig.got(0).empty());
    EXPECT_FALSE(rig.got(1).empty());
    panes[mirrored] = WindowsMetric(rig.server(), "panes");
  }
  EXPECT_GT(panes[0], 0u);
  EXPECT_EQ(panes[1], panes[0]);
}

TEST(ServerPaneTest, LastWindowBeforeAStepOverflowFiresByIndex) {
  // Loops near INT64_MAX whose step overflows after a whole window: an
  // explicit `t += 7` (NULL, as in the trees) and the implicit t + 1 (out
  // of range). The plan takes that last window by index, from panes, the
  // running state or whole, and the loop ends there.
  const Timestamp start = kMaxTimestamp - 40;
  const std::string at = std::to_string(start);
  PaneRig rig;
  rig.Submit(SlidingSql("COUNT(*), SUM(v), MAX(p)", "", 10, 7, at));
  rig.Submit(SlidingSql("ts, k", " WHERE k < 5", 4, 7, at));
  rig.Submit(SlidingSql("AVG(p), COUNT(v)", "", 10, 7, at));
  rig.Submit(LandmarkSql("COUNT(*), SUM(p)", "",
                         std::to_string(kMaxTimestamp - 60), 7, at));
  rig.Submit("SELECT COUNT(*), MIN(v) FROM S for (t = " +
             std::to_string(kMaxTimestamp - 6) +
             "; true; ) { WindowIs(S, t - 5, t - 1); }");
  Rng rng(32);
  for (Timestamp ts = kMaxTimestamp - 70; ts < kMaxTimestamp; ts += 2) {
    rig.Push({PaneRow(&rng, ts), PaneRow(&rng, ts)});
  }
  rig.Heartbeat(kMaxTimestamp);
  rig.ExpectSameSets("step overflow");
  // t = MAX - 40, - 33, ..., - 5: six windows, the last without a step.
  for (size_t q = 0; q < 4; ++q) {
    ASSERT_EQ(rig.got(q).size(), 6u) << q;
    EXPECT_EQ(rig.got(q).back().rfind(
                  "t=" + std::to_string(kMaxTimestamp - 5), 0),
              0u);
  }
  // t = MAX - 6 to MAX: seven windows.
  EXPECT_EQ(rig.got(4).size(), 7u);
  EXPECT_GT(WindowsMetric(rig.server(), "panes"), 0u);
}

// ---- Landmarks on the window plan (DESIGN.md §17) --------------------------

TEST_F(ServerTest, LandmarkMaxReadsEachTupleOnce) {
  auto q = server_.Submit(
      "SELECT MAX(closingPrice) FROM ClosingStockPrices "
      "for (t = 10; t <= 50; t++) { WindowIs(ClosingStockPrices, 10, t); }");
  ASSERT_TRUE(q.ok()) << q.status();
  FeedMsft(&server_, 100);
  auto sets = server_.PollAll(*q);
  ASSERT_EQ(sets.size(), 41u);
  // MAX grows with the landmark window: price = 40 + day.
  EXPECT_DOUBLE_EQ(sets[0].rows[0].cell(0).double_value(), 50.0);   // t=10.
  EXPECT_DOUBLE_EQ(sets[40].rows[0].cell(0).double_value(), 90.0);  // t=50.
  // The running state reads days 10..50 once, not once per window.
  EXPECT_EQ(WindowsMetric(server_, "scanned"), 41u);
}

TEST_F(ServerTest, LandmarkAppliesFilters) {
  auto q = server_.Submit(
      "SELECT COUNT(*) FROM ClosingStockPrices WHERE closingPrice > 60 "
      "for (t = 10; t <= 30; t++) { WindowIs(ClosingStockPrices, 10, t); }");
  ASSERT_TRUE(q.ok()) << q.status();
  FeedMsft(&server_, 100);
  auto sets = server_.PollAll(*q);
  ASSERT_EQ(sets.size(), 21u);
  // Window [10,30]: days with price > 60 are 21..30 -> 10 rows.
  EXPECT_EQ(sets[20].rows[0].cell(0).int64_value(), 10);
  // Window [10,20]: price > 60 means day > 20 -> none yet.
  ASSERT_EQ(sets[10].rows.size(), 1u);
  EXPECT_EQ(sets[10].rows[0].cell(0).int64_value(), 0);
  EXPECT_EQ(WindowsMetric(server_, "scanned"), 21u);
}

TEST(ServerLandmarkTest, RefeedsOnlyForStragglersInFedHistory) {
  // Ticks 1..10 are archived and the watermark reaches 50, so at Submit
  // the windows [1,10] .. [1,40] fire and the running state holds the
  // history through 40.
  PaneRig rig;
  Rng rng(2);
  std::vector<Tuple> first;
  for (Timestamp ts = 1; ts <= 10; ++ts) first.push_back(PaneRow(&rng, ts));
  rig.Push(first);
  rig.Heartbeat(50);
  const size_t q = rig.Submit(
      "SELECT COUNT(*) FROM S for (t = 10; true; t += 10) "
      "{ WindowIs(S, 1, t); }");
  EXPECT_EQ(rig.got(q).size(), 4u);
  EXPECT_EQ(WindowsMetric(rig.server(), "scanned"), 10u);
  // A straggler past the held history is fed with the rest of it, through
  // the watermark: nothing held is read again.
  rig.Push({PaneRow(&rng, 45)});
  EXPECT_EQ(WindowsMetric(rig.server(), "scanned"), 11u);
  // One inside it rewinds the state to the left end (no copy is older):
  // [1, 49] is read again, the straggler included.
  rig.Push({PaneRow(&rng, 30)});
  EXPECT_EQ(WindowsMetric(rig.server(), "scanned"), 23u);
  rig.Heartbeat(60);
  EXPECT_EQ(WindowsMetric(rig.server(), "scanned"), 23u);
  ASSERT_EQ(rig.got(q).size(), 5u);
  EXPECT_EQ(rig.got(q).back(), "t=50 [50 12]");
  rig.ExpectSameSets("stragglers in and past the fed history");
}

TEST(ServerLandmarkTest, ResumesFromTheCheckpointBeforeAStraggler) {
  // Windows [1,10] .. [1,100] feed 100 ticks; a copy of the running state
  // is taken at t = 70, the first window 68 tuples (64 + 4 per group)
  // past the last. Double SUM: the sums must stay those of one in-order
  // pass, bit for bit.
  PaneRig rig;
  Rng rng(12);
  rig.Submit(
      "SELECT COUNT(*), SUM(p) FROM S for (t = 10; true; t += 10) "
      "{ WindowIs(S, 1, t); }");
  for (Timestamp ts = 1; ts <= 100; ++ts) rig.Push({PaneRow(&rng, ts)});
  rig.Heartbeat(101);
  EXPECT_EQ(WindowsMetric(rig.server(), "scanned"), 100u);
  // After the copy: resume from it, reading ticks 71..100 and the
  // straggler.
  rig.Push({PaneRow(&rng, 80)});
  EXPECT_EQ(WindowsMetric(rig.server(), "scanned"), 131u);
  rig.Heartbeat(111);
  // At the copy's last tick: it is stale too, and the state restarts from
  // the left end (100 ticks and both stragglers).
  rig.Push({PaneRow(&rng, 70)});
  EXPECT_EQ(WindowsMetric(rig.server(), "scanned"), 233u);
  rig.Heartbeat(121);
  rig.ExpectSameSets("checkpoints");
}

TEST(ServerLandmarkTest, RetentionLeavesEachWindowTheRetainedHistory) {
  // Ten ticks of history are kept, and a landmark from tick 1 fires every
  // 5. Once the archive's floor passes the left end, each window sees only
  // what is retained, as its own scan would: the same query submitted
  // kSpeculative (every window evaluated whole) must read the same, with
  // or without a straggler at tick 32.
  const std::string sql =
      "SELECT COUNT(*), SUM(v) FROM S for (t = 5; true; t += 5) "
      "{ WindowIs(S, 1, t); }";
  for (const bool straggler : {false, true}) {
    Server::Options options;
    options.retention_span = 10;
    Server server(options);
    ASSERT_TRUE(server.DefineStream("S", PaneRig::Schema(), 0).ok());
    ASSERT_TRUE(
        server.SetDisorderBound("S", 0, LatePolicy::kIngestLate).ok());
    auto delayed = server.Submit(sql);
    Server::SubmitOptions speculative;
    speculative.consistency = Consistency::kSpeculative;
    auto whole = server.Submit(sql, speculative);
    ASSERT_TRUE(delayed.ok() && whole.ok());
    Rng rng(7);
    for (Timestamp ts = 1; ts <= 46; ++ts) {
      ASSERT_TRUE(server.Push("S", PaneRow(&rng, ts)).ok());
      if (straggler && ts == 38) {
        ASSERT_TRUE(server.Push("S", PaneRow(&rng, 32)).ok());
      }
    }
    // The first set at each t is the speculative window as fired (later
    // ones revise it).
    std::map<Timestamp, std::string> want;
    for (const ResultSet& rs : server.PollAll(*whole)) {
      want.emplace(rs.t, RenderSet(rs));
    }
    const std::vector<ResultSet> got = server.PollAll(*delayed);
    ASSERT_EQ(got.size(), 9u);
    for (const ResultSet& rs : got) {
      EXPECT_EQ(RenderSet(rs), want[rs.t]) << "straggler " << straggler;
    }
    // At t = 40 ticks 32..40 are retained, and the straggler at 32.
    EXPECT_EQ(got[7].rows[0].cell(0).int64_value(), straggler ? 10 : 9);
    EXPECT_EQ(got[8].rows[0].cell(0).int64_value(), 9);
    // The stream's history memory is counted: ten ticks of it, until a
    // push far ahead trims all but that tuple.
    const int64_t held = HistoryBytes(server);
    EXPECT_GT(held, 0);
    ASSERT_TRUE(server.Push("S", PaneRow(&rng, 100)).ok());
    const int64_t trimmed = HistoryBytes(server);
    EXPECT_GT(trimmed, 0);
    EXPECT_LT(trimmed, held);
  }
}

TEST(ServerLandmarkTest, RetractionPastTheHeldHistoryReadsNothingAgain) {
  // A retraction of a tuple at the watermark, which the running state has
  // not been fed yet, leaves it as it is.
  PaneRig rig;
  Rng rng(5);
  rig.Submit(
      "SELECT k, COUNT(*), AVG(p) FROM S GROUP BY k for (t = 4; true; t += 4) "
      "{ WindowIs(S, 1, t); }");
  for (Timestamp ts = 1; ts <= 30; ++ts) rig.Push({PaneRow(&rng, ts)});
  const uint64_t scanned = WindowsMetric(rig.server(), "scanned");
  EXPECT_EQ(scanned, 29u);
  rig.Retract(29);  // The tuple at tick 30.
  rig.Heartbeat(40);
  EXPECT_EQ(WindowsMetric(rig.server(), "scanned"), scanned);
  rig.Retract(5);  // Inside the held history: read again from tick 1.
  rig.Heartbeat(50);
  EXPECT_EQ(WindowsMetric(rig.server(), "scanned"), scanned + 28u);
  rig.ExpectSameSets("retractions");
}

TEST_F(ServerTest, OneSetPerQueryPerBatchInArrivalOrder) {
  // One 256-tuple PushBatch into 8 standing filters: each query with
  // matches is called back exactly once, with the rows Push-per-tuple
  // delivers, in the same order.
  const std::vector<std::string> wheres = {
      "stockSymbol = 'MSFT'", "stockSymbol = 'IBM'",
      "closingPrice > 60",    "closingPrice < 45",
      "stockSymbol = 'ORCL' AND closingPrice > 50",
      "closingPrice > 1000",  // No matches: no callback.
      "closingPrice >= 40",   "stockSymbol != 'MSFT'"};
  const char* const kSymbols[] = {"MSFT", "IBM", "ORCL", "SUNW"};
  std::vector<Tuple> feed;
  for (int64_t day = 1; day <= 256; ++day) {
    feed.push_back(Stock(day, kSymbols[day % 4],
                         40.0 + static_cast<double>((day * 37) % 29)));
  }
  struct Run {
    Server* server;
    std::vector<QueryId> queries;
    std::vector<size_t> callbacks;
    std::vector<std::string> rows;
  };
  auto setup = [&wheres](Run* run) {
    run->callbacks.assign(wheres.size(), 0);
    run->rows.assign(wheres.size(), "");
    for (size_t i = 0; i < wheres.size(); ++i) {
      auto q = run->server->Submit(
          "SELECT closingPrice, stockSymbol FROM ClosingStockPrices WHERE " +
          wheres[i]);
      ASSERT_TRUE(q.ok()) << q.status();
      run->queries.push_back(*q);
      auto on_set = [run, i](const ResultSet& rs) {
        ++run->callbacks[i];
        EXPECT_EQ(rs.t, rs.rows.back().timestamp());
        for (const Tuple& row : rs.rows) run->rows[i] += row.ToString();
      };
      ASSERT_TRUE(run->server->SetCallback(*q, on_set).ok());
    }
  };
  Server per_tuple;
  ASSERT_TRUE(
      per_tuple.DefineStream("ClosingStockPrices", StockSchema(), 0).ok());
  Run batched{&server_};
  Run single{&per_tuple};
  setup(&batched);
  setup(&single);
  ASSERT_TRUE(server_.PushBatch("ClosingStockPrices", feed).ok());
  for (const Tuple& t : feed) {
    ASSERT_TRUE(per_tuple.Push("ClosingStockPrices", t).ok());
  }
  const std::string snap = server_.SnapshotMetrics();
  for (size_t i = 0; i < wheres.size(); ++i) {
    const bool matched = !single.rows[i].empty();
    EXPECT_EQ(batched.callbacks[i], matched ? 1u : 0u) << wheres[i];
    EXPECT_EQ(batched.rows[i], single.rows[i]) << wheres[i];
    // The "queries" row counts sets beside rows.
    const size_t at = snap.find(
        "\"" + std::to_string(batched.queries[i]) + "\":{\"active\"",
        snap.find("\"queries\":{"));
    ASSERT_NE(at, std::string::npos) << snap;
    const size_t sets = snap.find("\"result_sets\":", at);
    ASSERT_NE(sets, std::string::npos) << snap;
    EXPECT_EQ(std::strtoull(snap.c_str() + sets + 14, nullptr, 10),
              batched.callbacks[i])
        << wheres[i];
  }
  EXPECT_EQ(single.callbacks[5], 0u);
#ifndef TCQ_METRICS_DISABLED
  EXPECT_NE(snap.find("\"tcq.egress.result_sets\""), std::string::npos);
#endif
}

TEST_F(ServerTest, CallbackExceptionReachesThePushAndDeliveryGoesOn) {
  auto q = server_.Submit(
      "SELECT closingPrice FROM ClosingStockPrices WHERE closingPrice > 45");
  ASSERT_TRUE(q.ok());
  std::vector<Timestamp> seen;
  auto on_set = [&](const ResultSet& rs) {
    seen.push_back(rs.t);
    if (seen.size() == 1) throw std::runtime_error("client failed");
  };
  ASSERT_TRUE(server_.SetCallback(*q, on_set).ok());
  EXPECT_THROW(
      (void)server_.Push("ClosingStockPrices", Stock(6, "MSFT", 46.0)),
      std::runtime_error);
  // The drain state survived: later sets are delivered, and Cancel does
  // not wait for a callback that is no longer running.
  ASSERT_TRUE(server_.Push("ClosingStockPrices", Stock(7, "MSFT", 47.0)).ok());
  EXPECT_EQ(seen, (std::vector<Timestamp>{6, 7}));
  EXPECT_TRUE(server_.Cancel(*q).ok());
}

// ---- Callbacks that call back into the server -------------------------------
//
// Every case runs inline and on a two-shard fleet (where CACQ callbacks
// run on the egress thread), under a watchdog: a deadlock fails the test
// binary instead of hanging it. ctest also runs these under the `stress`
// label (server_reentrancy_test), so the sanitizer job covers them.

/// Ends the process with a failure if still alive after `limit`.
class Watchdog {
 public:
  explicit Watchdog(std::chrono::seconds limit = std::chrono::seconds(60))
      : thread_([this, limit] {
          std::unique_lock<std::mutex> lock(mu_);
          if (!cv_.wait_for(lock, limit, [this] { return done_; })) {
            std::fprintf(stderr, "watchdog: %s deadlocked\n",
                         ::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name());
            std::_Exit(1);
          }
        }) {}
  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;
};

class ServerReentrancyTest : public ::testing::TestWithParam<size_t> {
 protected:
  void SetUp() override {
    Server::Options options;
    options.cacq_shards = GetParam();
    server_ = std::make_unique<Server>(options);
    ASSERT_TRUE(
        server_->DefineStream("ClosingStockPrices", StockSchema(), 0).ok());
    ASSERT_TRUE(server_->DefineStream("Other", StockSchema(), 0).ok());
  }

  QueryId Standing(const std::string& stream = "ClosingStockPrices") {
    auto q = server_->Submit("SELECT closingPrice FROM " + stream +
                             " WHERE closingPrice > 45");
    EXPECT_TRUE(q.ok()) << q.status();
    return q.ok() ? *q : 0;
  }

  /// Pushes MSFT days [from, to] as one batch (prices 40 + day), then
  /// waits for delivery.
  void Feed(int64_t from, int64_t to,
            const std::string& stream = "ClosingStockPrices") {
    std::vector<Tuple> batch;
    for (int64_t d = from; d <= to; ++d) {
      batch.push_back(Stock(d, "MSFT", 40.0 + static_cast<double>(d)));
    }
    ASSERT_TRUE(server_->PushBatch(stream, std::move(batch)).ok());
    server_->Quiesce();
  }

  Watchdog watchdog_;
  std::unique_ptr<Server> server_;
};

TEST_P(ServerReentrancyTest, CallbackCancelsItsOwnQuery) {
  const QueryId q = Standing();
  std::atomic<int> calls{0};
  Status cancel = Status::Internal("not called");
  auto on_set = [&](const ResultSet&) {
    if (calls.fetch_add(1) == 0) cancel = server_->Cancel(q);
  };
  ASSERT_TRUE(server_->SetCallback(q, on_set).ok());
  Feed(1, 20);
  EXPECT_EQ(calls.load(), 1);
  EXPECT_TRUE(cancel.ok()) << cancel;
  Feed(21, 30);
  EXPECT_EQ(calls.load(), 1);
  EXPECT_EQ(server_->num_active_queries(), 0u);
}

TEST_P(ServerReentrancyTest, CallbackSubmitsAndConnectsANewQuery) {
  const QueryId q = Standing();
  std::optional<QueryId> added;
  std::atomic<size_t> added_rows{0};
  auto on_added = [&](const ResultSet& rs) { added_rows += rs.rows.size(); };
  auto on_set = [&](const ResultSet&) {
    if (added.has_value()) return;
    auto nq = server_->Submit(
        "SELECT closingPrice FROM ClosingStockPrices WHERE closingPrice > 60");
    ASSERT_TRUE(nq.ok()) << nq.status();
    added = *nq;
    EXPECT_TRUE(server_->SetCallback(*nq, on_added).ok());
  };
  ASSERT_TRUE(server_->SetCallback(q, on_set).ok());
  Feed(1, 10);
  ASSERT_TRUE(added.has_value());
  Feed(11, 30);  // Prices 51..70: 10 above 60.
  EXPECT_EQ(added_rows.load(), 10u);
}

TEST_P(ServerReentrancyTest, CallbackPollsAnotherQuery) {
  const QueryId q = Standing();
  const QueryId buffered = Standing();  // No callback: buffers for Poll.
  size_t polled = 0;
  auto on_set = [&](const ResultSet&) {
    // Its own queue stays empty: its sets are called back.
    EXPECT_FALSE(server_->Poll(q).has_value());
    if (auto rs = server_->Poll(buffered)) polled += rs->rows.size();
    polled += FlattenRows(server_->PollAll(buffered)).size();
  };
  ASSERT_TRUE(server_->SetCallback(q, on_set).ok());
  Feed(1, 20);  // 15 rows above 45, for each query.
  polled += FlattenRows(server_->PollAll(buffered)).size();
  EXPECT_EQ(polled, 15u);
}

TEST_P(ServerReentrancyTest, CallbackDisconnectsItself) {
  const QueryId q = Standing();
  std::vector<Timestamp> seen;
  auto on_set = [&](const ResultSet& rs) {
    for (const Tuple& row : rs.rows) seen.push_back(row.timestamp());
    EXPECT_TRUE(server_->SetCallback(q, nullptr).ok());
  };
  ASSERT_TRUE(server_->SetCallback(q, on_set).ok());
  Feed(1, 10);
  Feed(11, 20);
  const size_t called_back = seen.size();
  EXPECT_GT(called_back, 0u);
  for (const Tuple& row : FlattenRows(server_->PollAll(q))) {
    seen.push_back(row.timestamp());
  }
  // Every row once, in arrival order: called back up to the disconnect,
  // buffered for Poll after it. (Sharded, one shard owns every MSFT row.)
  std::vector<Timestamp> want;
  for (Timestamp d = 6; d <= 20; ++d) want.push_back(d);
  EXPECT_EQ(seen, want) << called_back << " called back";
}

TEST_P(ServerReentrancyTest, CallbackPushesIntoASecondStream) {
  const QueryId q = Standing();
  const QueryId other = Standing("Other");
  std::atomic<bool> in_outer{false};
  std::atomic<bool> overlapped{false};
  std::atomic<size_t> other_rows{0};
  bool pushed = false;
  auto ten_days = [] {
    std::vector<Tuple> batch;
    for (int64_t d = 1; d <= 10; ++d) batch.push_back(Stock(d, "MSFT", 50.0));
    return batch;
  };
  auto on_other = [&](const ResultSet& rs) {
    if (in_outer) overlapped = true;
    other_rows += rs.rows.size();
  };
  auto on_set = [&](const ResultSet&) {
    if (pushed) return;
    pushed = true;
    in_outer = true;
    EXPECT_TRUE(server_->PushBatch("Other", ten_days()).ok());
    in_outer = false;
  };
  ASSERT_TRUE(server_->SetCallback(other, on_other).ok());
  ASSERT_TRUE(server_->SetCallback(q, on_set).ok());
  ASSERT_TRUE(server_->PushBatch("ClosingStockPrices", ten_days()).ok());
  // Inline, the outer PushBatch returns after the nested push's sets
  // have been delivered too; sharded, they follow the barriers.
  if (GetParam() > 1) {
    server_->Quiesce();
    server_->Quiesce();
  }
  EXPECT_TRUE(pushed);
  EXPECT_EQ(other_rows.load(), 10u);
  EXPECT_FALSE(overlapped.load()) << "callbacks overlapped";
}

TEST_P(ServerReentrancyTest, CallbackPushIntoItsStreamLeavesQueuedSetsWhole) {
  // Three queries share each engine batch. The second one's callback
  // pushes another batch into the same stream while the third's set of
  // the first batch still waits; the new batch must not reuse the storage
  // that set reads (spare emission batches are only those no set reads).
  const QueryId a = Standing();
  const QueryId b = Standing();
  const QueryId c = Standing();
  bool pushed = false;
  std::vector<double> got;
  ASSERT_TRUE(server_->SetCallback(a, [](const ResultSet&) {}).ok());
  ASSERT_TRUE(server_
                  ->SetCallback(b,
                                [&](const ResultSet&) {
                                  if (pushed) return;
                                  pushed = true;
                                  std::vector<Tuple> batch;
                                  for (int64_t d = 11; d <= 20; ++d) {
                                    batch.push_back(Stock(
                                        d, "MSFT",
                                        40.0 + static_cast<double>(d)));
                                  }
                                  EXPECT_TRUE(server_
                                                  ->PushBatch(
                                                      "ClosingStockPrices",
                                                      std::move(batch))
                                                  .ok());
                                })
                  .ok());
  ASSERT_TRUE(server_
                  ->SetCallback(c,
                                [&](const ResultSet& rs) {
                                  for (const Tuple& row : rs.rows) {
                                    got.push_back(row.cell(0).double_value());
                                  }
                                })
                  .ok());
  Feed(1, 10);
  server_->Quiesce();
  std::vector<double> want;
  for (int64_t d = 6; d <= 20; ++d) want.push_back(40.0 + d);
  EXPECT_TRUE(pushed);
  EXPECT_EQ(got, want);
}

TEST_P(ServerReentrancyTest, CancelWaitsForTheInFlightCallback) {
  // Another thread's Cancel returns only after the query's running
  // callback has returned, and no callback of it starts afterwards.
  const QueryId q = Standing();
  std::atomic<bool> started{false};
  std::atomic<bool> running{false};
  std::atomic<int> calls{0};
  auto on_set = [&](const ResultSet&) {
    running = true;
    started = true;
    ++calls;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    running = false;
  };
  ASSERT_TRUE(server_->SetCallback(q, on_set).ok());
  std::atomic<bool> stop{false};
  std::thread producer([&] {
    for (int64_t day = 1; !stop; ++day) {
      ASSERT_TRUE(
          server_->Push("ClosingStockPrices", Stock(day, "MSFT", 50.0)).ok());
    }
  });
  while (!started) std::this_thread::yield();
  ASSERT_TRUE(server_->Cancel(q).ok());
  EXPECT_FALSE(running.load()) << "Cancel returned mid-callback";
  const int at_cancel = calls.load();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  stop = true;
  producer.join();
  server_->Quiesce();
  EXPECT_EQ(calls.load(), at_cancel);
}

TEST_P(ServerReentrancyTest, ConnectFlushesBacklogBeforeLiveSets) {
  // The backlog goes through the delivery FIFO ahead of every live set,
  // even with a producer pushing while the callback connects.
  const QueryId q = Standing();
  Feed(1, 50);  // Days 6..50 buffered.
  std::atomic<bool> connected{false};
  std::thread producer([&] {
    for (int64_t day = 51; day <= 400; ++day) {
      if (day == 60) {
        while (!connected) std::this_thread::yield();
      }
      const Tuple t = Stock(day, "MSFT", 40.0 + static_cast<double>(day));
      ASSERT_TRUE(server_->Push("ClosingStockPrices", t).ok());
    }
  });
  std::mutex seen_mu;
  std::vector<Timestamp> seen;
  auto on_set = [&](const ResultSet& rs) {
    std::lock_guard<std::mutex> lock(seen_mu);
    for (const Tuple& row : rs.rows) seen.push_back(row.timestamp());
  };
  ASSERT_TRUE(server_->SetCallback(q, on_set).ok());
  connected = true;
  producer.join();
  server_->Quiesce();
  std::vector<Timestamp> want;
  for (Timestamp d = 6; d <= 400; ++d) want.push_back(d);
  std::lock_guard<std::mutex> lock(seen_mu);
  EXPECT_EQ(seen, want);
}

INSTANTIATE_TEST_SUITE_P(Shards, ServerReentrancyTest,
                         ::testing::Values(size_t{1}, size_t{2}),
                         [](const ::testing::TestParamInfo<size_t>& info) {
                           return info.param == 1 ? std::string("Inline")
                                                  : std::string("TwoShards");
                         });

}  // namespace
}  // namespace tcq
