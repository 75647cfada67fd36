// Cross-module integration: multiple streams, joins between distinct
// streams, mixed standing/windowed query populations, and egress — the
// paths a downstream user exercises together.

#include <gtest/gtest.h>

#include <map>

#include "common/rng.h"
#include "core/server.h"
#include "ingress/sources.h"
#include "window/window.h"

namespace tcq {
namespace {

SchemaPtr TradeSchema() {
  return Schema::Make({{"ts", ValueType::kInt64, ""},
                       {"symbol", ValueType::kString, ""},
                       {"shares", ValueType::kInt64, ""}});
}

SchemaPtr QuoteSchema() {
  return Schema::Make({{"ts", ValueType::kInt64, ""},
                       {"symbol", ValueType::kString, ""},
                       {"price", ValueType::kDouble, ""}});
}

Tuple Trade(int64_t ts, const std::string& sym, int64_t shares) {
  return Tuple::Make(
      {Value::Int64(ts), Value::String(sym), Value::Int64(shares)}, ts);
}

Tuple Quote(int64_t ts, const std::string& sym, double price) {
  return Tuple::Make(
      {Value::Int64(ts), Value::String(sym), Value::Double(price)}, ts);
}

class IntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(server_.DefineStream("Trades", TradeSchema(), 0).ok());
    ASSERT_TRUE(server_.DefineStream("Quotes", QuoteSchema(), 0).ok());
  }
  Server server_;
};

TEST_F(IntegrationTest, TwoStreamWindowedEquiJoin) {
  // Join trades with same-timestamp quotes for the same symbol.
  auto q = server_.Submit(
      "SELECT t.symbol, t.shares, qt.price "
      "FROM Trades AS t, Quotes AS qt "
      "WHERE t.symbol = qt.symbol AND t.ts = qt.ts "
      "for (u = 1; u <= 5; u = u + 1) { "
      "  WindowIs(t, u, u); WindowIs(qt, u, u); }");
  ASSERT_TRUE(q.ok()) << q.status();

  for (int64_t ts = 1; ts <= 6; ++ts) {
    ASSERT_TRUE(server_.Push("Trades", Trade(ts, "MSFT", 100 * ts)).ok());
    ASSERT_TRUE(server_.Push("Trades", Trade(ts, "IBM", 10)).ok());
    ASSERT_TRUE(
        server_.Push("Quotes", Quote(ts, "MSFT", 50.0 + ts)).ok());
    // IBM quotes only on even timestamps.
    if (ts % 2 == 0) {
      ASSERT_TRUE(server_.Push("Quotes", Quote(ts, "IBM", 90.0)).ok());
    }
  }
  auto sets = server_.PollAll(*q);
  ASSERT_EQ(sets.size(), 5u);
  for (size_t i = 0; i < sets.size(); ++i) {
    const int64_t ts = static_cast<int64_t>(i) + 1;
    // MSFT joins every day; IBM only on even days.
    const size_t expected = ts % 2 == 0 ? 2u : 1u;
    ASSERT_EQ(sets[i].rows.size(), expected) << "window " << ts;
    for (const Tuple& row : sets[i].rows) {
      if (row.cell(0).string_value() == "MSFT") {
        EXPECT_EQ(row.cell(1).int64_value(), 100 * ts);
        EXPECT_DOUBLE_EQ(row.cell(2).double_value(), 50.0 + ts);
      } else {
        EXPECT_DOUBLE_EQ(row.cell(2).double_value(), 90.0);
      }
    }
  }
}

TEST_F(IntegrationTest, JoinAgainstReferenceOnRandomData) {
  auto q = server_.Submit(
      "SELECT t.shares, qt.price FROM Trades AS t, Quotes AS qt "
      "WHERE t.symbol = qt.symbol "
      "for (u = 10; u <= 10; u = u + 1) { "
      "  WindowIs(t, 1, 10); WindowIs(qt, 1, 10); }");
  ASSERT_TRUE(q.ok()) << q.status();

  Rng rng(77);
  const char* symbols[] = {"A", "B", "C", "D"};
  std::map<std::string, int> trades_per_symbol, quotes_per_symbol;
  for (int64_t ts = 1; ts <= 11; ++ts) {
    const std::string tsym = symbols[rng.NextBounded(4)];
    const std::string qsym = symbols[rng.NextBounded(4)];
    if (ts <= 10) {
      ++trades_per_symbol[tsym];
      ++quotes_per_symbol[qsym];
    }
    ASSERT_TRUE(server_.Push("Trades", Trade(ts, tsym, 1)).ok());
    ASSERT_TRUE(server_.Push("Quotes", Quote(ts, qsym, 1.0)).ok());
  }
  size_t expected = 0;
  for (const auto& [sym, n] : trades_per_symbol) {
    auto it = quotes_per_symbol.find(sym);
    if (it != quotes_per_symbol.end()) {
      expected += static_cast<size_t>(n) * static_cast<size_t>(it->second);
    }
  }
  auto sets = server_.PollAll(*q);
  ASSERT_EQ(sets.size(), 1u);
  EXPECT_EQ(sets[0].rows.size(), expected);
}

TEST_F(IntegrationTest, MixedPopulationOverTwoStreams) {
  // Standing filters on both streams + a windowed aggregate, all live.
  auto big_trades = server_.Submit(
      "SELECT shares FROM Trades WHERE shares >= 500");
  auto msft_quotes = server_.Submit(
      "SELECT price FROM Quotes WHERE symbol = 'MSFT'");
  auto volume = server_.Submit(
      "SELECT SUM(shares) FROM Trades "
      "for (u = 1; true; u = u + 5) { WindowIs(Trades, u, u + 4); }");
  ASSERT_TRUE(big_trades.ok() && msft_quotes.ok() && volume.ok());

  for (int64_t ts = 1; ts <= 11; ++ts) {
    ASSERT_TRUE(server_.Push("Trades", Trade(ts, "MSFT", ts * 100)).ok());
    ASSERT_TRUE(server_.Push(
                            "Quotes",
                            Quote(ts, ts % 2 == 0 ? "MSFT" : "IBM", 50.0))
                    .ok());
  }

  // big trades: shares >= 500 means ts >= 5 -> 7 matches.
  EXPECT_EQ(server_.PollAll(*big_trades).size(), 7u);
  // MSFT quotes: even ts -> 5 matches.
  EXPECT_EQ(server_.PollAll(*msft_quotes).size(), 5u);
  // Volume windows [1,5] and [6,10] fired (11 punctuates the second).
  auto vsets = server_.PollAll(*volume);
  ASSERT_EQ(vsets.size(), 2u);
  EXPECT_EQ(vsets[0].rows[0].cell(0).int64_value(), 100 * (1 + 2 + 3 + 4 + 5));
  EXPECT_EQ(vsets[1].rows[0].cell(0).int64_value(),
            100 * (6 + 7 + 8 + 9 + 10));
}

TEST_F(IntegrationTest, HoppingWindowSkipsDataEndToEnd) {
  // §4.1.2 hopping windows through the full parse -> analyze -> execute
  // path: width 5, hop 10, so half the stream never participates.
  const std::string sql =
      "SELECT MAX(price) FROM Quotes "
      "for (t = 10; t <= 40; t += 10) { WindowIs(Quotes, t - 4, t); }";

  // The parsed for-loop is linear: both ends move, by more than the width.
  Catalog catalog;
  StreamDef def;
  def.name = "Quotes";
  def.schema = QuoteSchema();
  def.timestamp_field = 0;
  ASSERT_TRUE(catalog.RegisterStream(def).ok());
  auto aq = AnalyzeSql(sql, catalog);
  ASSERT_TRUE(aq.ok()) << aq.status();
  ASSERT_TRUE(aq->window.has_value());
  WindowSequence seq(&*aq->window, /*st=*/0);
  const LinearLoop* loop = seq.linear();
  ASSERT_NE(loop, nullptr);
  EXPECT_TRUE(loop->left(0).moves && loop->right(0).moves);
  const int64_t width = loop->right(0).offset - loop->left(0).offset + 1;
  EXPECT_EQ(width, 5);
  EXPECT_EQ(loop->hop, 10);
  EXPECT_GT(loop->hop, width);  // The windows skip data.

  auto q = server_.Submit(sql);
  ASSERT_TRUE(q.ok()) << q.status();
  // price = ts, one quote per day; day 41 punctuates the last window.
  for (int64_t ts = 1; ts <= 41; ++ts) {
    ASSERT_TRUE(
        server_.Push("Quotes", Quote(ts, "MSFT", static_cast<double>(ts)))
            .ok());
  }
  // Windows [6,10] [16,20] [26,30] [36,40]: MAX = each right end. The
  // skipped days (11..15, 21..25, 31..35, 41) influence nothing.
  auto sets = server_.PollAll(*q);
  ASSERT_EQ(sets.size(), 4u);
  for (size_t i = 0; i < sets.size(); ++i) {
    ASSERT_EQ(sets[i].rows.size(), 1u);
    EXPECT_DOUBLE_EQ(sets[i].rows[0].cell(0).double_value(),
                     10.0 * static_cast<double>(i + 1));
  }
}

TEST_F(IntegrationTest, ReverseWindowBrowsesHistoryEndToEnd) {
  // §4.1.1 "windows that move backwards": the archive serves windows over
  // data that arrived before the query was ever submitted.
  for (int64_t ts = 1; ts <= 20; ++ts) {
    ASSERT_TRUE(
        server_.Push("Quotes", Quote(ts, "MSFT", static_cast<double>(ts)))
            .ok());
  }
  const std::string sql =
      "SELECT MAX(price), AVG(price) FROM Quotes "
      "for (t = 21; t > 6; t -= 5) { WindowIs(Quotes, t - 4, t); }";

  Catalog catalog;
  StreamDef def;
  def.name = "Quotes";
  def.schema = QuoteSchema();
  def.timestamp_field = 0;
  ASSERT_TRUE(catalog.RegisterStream(def).ok());
  auto aq = AnalyzeSql(sql, catalog);
  ASSERT_TRUE(aq.ok()) << aq.status();
  ASSERT_TRUE(aq->window.has_value());
  // A loop that steps backwards is not linear: the server evaluates each
  // window whole through its own runner.
  EXPECT_EQ(WindowSequence(&*aq->window, /*st=*/0).linear(), nullptr);

  auto q = server_.Submit(sql);
  ASSERT_TRUE(q.ok()) << q.status();
  // Watermark 22 punctuates the first (latest) window [17,21].
  ASSERT_TRUE(server_.Push("Quotes", Quote(21, "MSFT", 21.0)).ok());
  ASSERT_TRUE(server_.Push("Quotes", Quote(22, "MSFT", 22.0)).ok());

  // Fired in loop order, newest window first: [17,21], [12,16], [7,11].
  auto sets = server_.PollAll(*q);
  ASSERT_EQ(sets.size(), 3u);
  const double expected_max[] = {21.0, 16.0, 11.0};
  for (size_t i = 0; i < sets.size(); ++i) {
    ASSERT_EQ(sets[i].rows.size(), 1u);
    EXPECT_DOUBLE_EQ(sets[i].rows[0].cell(0).double_value(), expected_max[i]);
    EXPECT_DOUBLE_EQ(sets[i].rows[0].cell(1).double_value(),
                     expected_max[i] - 2.0);  // AVG of 5 consecutive days.
  }
}

TEST_F(IntegrationTest, EgressOverJoinQuery) {
  auto q = server_.Submit(
      "SELECT t.shares, qt.price FROM Trades AS t, Quotes AS qt "
      "WHERE t.symbol = qt.symbol AND t.ts = qt.ts "
      "for (u = 1; u <= 3; u = u + 1) { "
      "  WindowIs(t, u, u); WindowIs(qt, u, u); }");
  ASSERT_TRUE(q.ok()) << q.status();
  for (int64_t ts = 1; ts <= 4; ++ts) {
    ASSERT_TRUE(server_.Push("Trades", Trade(ts, "MSFT", 1)).ok());
    ASSERT_TRUE(server_.Push("Quotes", Quote(ts, "MSFT", 2.0)).ok());
  }
  // Disconnected client reconnects: three windows buffered, flushed to
  // the new callback in order.
  std::vector<ResultSet> sets;
  ASSERT_TRUE(server_
                  .SetCallback(*q, [&](const ResultSet& rs) {
                    sets.push_back(rs);
                  })
                  .ok());
  ASSERT_EQ(sets.size(), 3u);
  for (size_t i = 0; i < sets.size(); ++i) {
    EXPECT_EQ(sets[i].rows.size(), 1u);
    EXPECT_EQ(sets[i].t, static_cast<Timestamp>(i + 1));
  }
  EXPECT_FALSE(server_.Poll(*q).has_value());
}

TEST_F(IntegrationTest, ContinuousQueryOverMetricsStream) {
  // Engine telemetry is itself a stream: a standing filter over
  // tcq.metrics joins the introspection stream's shared eddy like any
  // CACQ query, and PumpMetrics publishes snapshots into it.
  auto q = server_.Submit(
      "SELECT name, value FROM tcq.metrics WHERE value >= 0");
  ASSERT_TRUE(q.ok()) << q.status();

  // Generate some engine activity, then publish a telemetry snapshot.
  for (int64_t ts = 1; ts <= 3; ++ts) {
    ASSERT_TRUE(server_.Push("Trades", Trade(ts, "MSFT", 100)).ok());
  }
  const size_t published = server_.PumpMetrics();
  EXPECT_GT(published, 0u);

  std::vector<ResultSet> sets = server_.PollAll(*q);
  ASSERT_FALSE(sets.empty());
  bool saw_trades_arrivals = false;
  for (const ResultSet& rs : sets) {
    for (const Tuple& t : rs.rows) {
      ASSERT_EQ(t.arity(), 2u);
      const std::string& name = t.cell(0).string_value();
      EXPECT_EQ(name.rfind("tcq.", 0), 0u) << name;
      if (name == "tcq.stream.Trades.arrivals") {
        saw_trades_arrivals = true;
        EXPECT_DOUBLE_EQ(t.cell(1).double_value(), 3.0);
      }
    }
  }
  // The per-stream rows are live in every build (metrics compiled out or
  // not), so the query always observes the Trades ingest count.
  EXPECT_TRUE(saw_trades_arrivals);

  // The query is continuous: a later pump delivers fresh tuples.
  EXPECT_GT(server_.PumpMetrics(), 0u);
  EXPECT_FALSE(server_.PollAll(*q).empty());
}

TEST_F(IntegrationTest, SnapshotMetricsJsonStructure) {
  auto q = server_.Submit("SELECT symbol FROM Trades WHERE shares > 50");
  ASSERT_TRUE(q.ok()) << q.status();
  for (int64_t ts = 1; ts <= 4; ++ts) {
    ASSERT_TRUE(server_.Push("Trades", Trade(ts, "IBM", 60 * ts)).ok());
  }
  const std::string json = server_.SnapshotMetrics();
  for (const char* key :
       {"\"metrics\":{", "\"streams\":{", "\"queries\":{", "\"eddies\":{",
        "\"Trades\"", "\"arrivals\":4", "\"kind\":\"cacq\"",
        "\"delivered_rows\":4",
        "\"pending_sets\":4,\"buffered_rows\":4,\"shed_rows\":0",
        "\"ops\":["}) {
    EXPECT_NE(json.find(key), std::string::npos)
        << key << " missing from " << json;
  }
  // The inline engine runs no exchange, standbys or migrations, so it
  // registers none of their metric families (no test in this binary
  // builds a shard fleet).
  for (const char* family :
       {"\"tcq.shard.", "\"tcq.ha.", "\"tcq.rebalance."}) {
    EXPECT_EQ(json.find(family), std::string::npos)
        << family << " registered by an inline server: " << json;
  }
  EXPECT_NE(json.find("\"shards\":{}"), std::string::npos) << json;
#ifndef TCQ_METRICS_DISABLED
  EXPECT_NE(json.find("\"tcq.egress.shed_rows\""), std::string::npos) << json;
#endif
}

TEST_F(IntegrationTest, WindowVariableNameOtherThanT) {
  // The for-loop variable is user-chosen ("u" above, "day" here).
  auto q = server_.Submit(
      "SELECT shares FROM Trades "
      "for (day = 1; day <= 2; day = day + 1) { "
      "  WindowIs(Trades, day, day); }");
  ASSERT_TRUE(q.ok()) << q.status();
  for (int64_t ts = 1; ts <= 3; ++ts) {
    ASSERT_TRUE(server_.Push("Trades", Trade(ts, "X", ts)).ok());
  }
  EXPECT_EQ(server_.PollAll(*q).size(), 2u);
}

}  // namespace
}  // namespace tcq
