// Egress (§4.3): the server's per-query result buffer serves a client
// that streams (SetCallback), disconnects (SetCallback(q, nullptr)) and
// pulls its backlog on reconnection (Poll / PollAll). A client that never
// drains it costs bounded memory: past the row bound the oldest result
// sets are shed and counted. Plus the StreamPumpModule ingress hand-off.

#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "core/server.h"
#include "core/stream_pump.h"
#include "fjords/scheduler.h"
#include "ingress/sources.h"
#include "ingress/wrapper.h"
#include "result_rows.h"

namespace tcq {
namespace {

/// The server's per-query buffered-row bound (server.cc).
constexpr int64_t kBound = 65536;

Tuple Stock(int64_t day, const std::string& sym, double price) {
  return Tuple::Make(
      {Value::Int64(day), Value::String(sym), Value::Double(price)}, day);
}

/// Reads integer `field` of query `q`'s SnapshotMetrics "queries" row.
int64_t QueryField(const Server& server, QueryId q, const std::string& field) {
  const std::string json = server.SnapshotMetrics();
  size_t pos = json.find("\"queries\":{");
  pos = json.find("\"" + std::to_string(q) + "\":{", pos);
  pos = json.find("\"" + field + "\":", pos);
  EXPECT_NE(pos, std::string::npos) << field << " missing from " << json;
  if (pos == std::string::npos) return -1;
  return std::strtoll(json.c_str() + pos + field.size() + 3, nullptr, 10);
}

class EgressTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(server_
                    .DefineStream("ClosingStockPrices",
                                  StockTickerSource::MakeSchema(), 0)
                    .ok());
    auto q = server_.Submit(
        "SELECT closingPrice FROM ClosingStockPrices "
        "WHERE stockSymbol = 'MSFT'");
    ASSERT_TRUE(q.ok());
    query_ = *q;
  }

  /// Pushes one MSFT row per day in [from, to], one Push per day: the
  /// standing query gets one single-row result set per day.
  void Feed(int64_t from, int64_t to) {
    for (int64_t d = from; d <= to; ++d) {
      ASSERT_TRUE(server_
                      .Push("ClosingStockPrices",
                            Stock(d, "MSFT", 40.0 + static_cast<double>(d)))
                      .ok());
    }
  }

  /// Pulls up to `max_sets` buffered sets through repeated Poll.
  std::vector<ResultSet> PollUpTo(size_t max_sets) {
    std::vector<ResultSet> out;
    while (out.size() < max_sets) {
      std::optional<ResultSet> rs = server_.Poll(query_);
      if (!rs.has_value()) break;
      out.push_back(std::move(*rs));
    }
    return out;
  }

  int64_t Field(const std::string& field) const {
    return QueryField(server_, query_, field);
  }

  Server server_;
  QueryId query_ = 0;
};

TEST_F(EgressTest, PullBuffersWhileDisconnected) {
  Feed(1, 10);
  EXPECT_EQ(Field("buffered_rows"), 10);
  auto sets = server_.PollAll(query_);
  ASSERT_EQ(sets.size(), 10u);
  for (size_t i = 0; i < sets.size(); ++i) {
    EXPECT_EQ(sets[i].t, static_cast<Timestamp>(i + 1));
  }
  EXPECT_EQ(Field("buffered_rows"), 0);
  EXPECT_EQ(Field("delivered_rows"), 10);
  EXPECT_EQ(Field("shed_rows"), 0);
}

TEST_F(EgressTest, PollFetchesInBatches) {
  Feed(1, 10);
  EXPECT_EQ(PollUpTo(3).size(), 3u);
  EXPECT_EQ(Field("buffered_rows"), 7);
  auto next = PollUpTo(3);
  ASSERT_EQ(next.size(), 3u);
  EXPECT_EQ(next.front().t, 4);
  EXPECT_EQ(PollUpTo(100).size(), 4u);
  EXPECT_TRUE(PollUpTo(100).empty());
  EXPECT_EQ(Field("buffered_rows"), 0);
}

TEST_F(EgressTest, ConnectFlushesBacklogInOrderThenStreamsLive) {
  Feed(1, 5);  // Buffered while disconnected.
  std::vector<Timestamp> seen;
  ASSERT_TRUE(server_
                  .SetCallback(query_,
                               [&](const ResultSet& rs) {
                                 seen.push_back(rs.t);
                               })
                  .ok());
  EXPECT_EQ(seen, (std::vector<Timestamp>{1, 2, 3, 4, 5}));
  EXPECT_EQ(Field("buffered_rows"), 0);
  Feed(6, 8);  // Live streaming.
  EXPECT_EQ(seen, (std::vector<Timestamp>{1, 2, 3, 4, 5, 6, 7, 8}));
  EXPECT_FALSE(server_.Poll(query_).has_value());
  EXPECT_EQ(Field("delivered_rows"), 8);
}

TEST_F(EgressTest, DisconnectResumesBuffering) {
  int live = 0;
  ASSERT_TRUE(
      server_.SetCallback(query_, [&](const ResultSet&) { ++live; }).ok());
  Feed(1, 3);
  EXPECT_EQ(live, 3);
  ASSERT_TRUE(server_.SetCallback(query_, nullptr).ok());
  Feed(4, 6);
  EXPECT_EQ(live, 3);
  EXPECT_EQ(Field("buffered_rows"), 3);
  auto sets = server_.PollAll(query_);
  ASSERT_EQ(sets.size(), 3u);
  EXPECT_EQ(sets.front().t, 4);
  EXPECT_EQ(sets.back().t, 6);
}

TEST_F(EgressTest, BoundShedsOldestSets) {
  Feed(1, kBound + 7);  // One single-row set per day.
  EXPECT_EQ(Field("buffered_rows"), kBound);
  EXPECT_EQ(Field("shed_rows"), 7);
  EXPECT_EQ(Field("delivered_rows"), kBound + 7);
#ifndef TCQ_METRICS_DISABLED
  EXPECT_NE(server_.SnapshotMetrics().find("\"tcq.egress.shed_rows\""),
            std::string::npos);
#endif
  // The freshest results survive (days 8 .. bound + 7).
  auto sets = server_.PollAll(query_);
  ASSERT_EQ(sets.size(), static_cast<size_t>(kBound));
  EXPECT_EQ(sets.front().t, 8);
  EXPECT_EQ(sets.back().t, kBound + 7);
  EXPECT_EQ(Field("shed_rows"), 7);  // Shedding is cumulative.
}

TEST_F(EgressTest, SetLargerThanTheBoundIsKeptWhole) {
  // Two tumbling windows of kBound + 1 rows each: every set alone is over
  // the bound, so the buffer holds exactly the newest one.
  const int64_t w = kBound + 1;
  auto q = server_.Submit(
      "SELECT closingPrice FROM ClosingStockPrices "
      "for (t = " + std::to_string(w) + "; t <= " + std::to_string(2 * w) +
      "; t += " + std::to_string(w) + ") { "
      "WindowIs(ClosingStockPrices, t - " + std::to_string(w - 1) + ", t); }");
  ASSERT_TRUE(q.ok()) << q.status();
  ASSERT_TRUE(server_.Cancel(query_).ok());  // Only the windowed query.
  Feed(1, w + 1);  // Fires the first window.
  EXPECT_EQ(QueryField(server_, *q, "buffered_rows"), w);
  EXPECT_EQ(QueryField(server_, *q, "shed_rows"), 0);
  Feed(w + 2, 2 * w + 1);  // Fires the second: the first is shed whole.
  EXPECT_EQ(QueryField(server_, *q, "buffered_rows"), w);
  EXPECT_EQ(QueryField(server_, *q, "shed_rows"), w);
  auto sets = server_.PollAll(*q);
  ASSERT_EQ(sets.size(), 1u);
  EXPECT_EQ(sets[0].t, 2 * w);
  EXPECT_EQ(sets[0].rows.size(), static_cast<size_t>(w));
}

TEST_F(EgressTest, CancelResetsBufferedCount) {
  Feed(1, 5);
  EXPECT_EQ(Field("buffered_rows"), 5);
  ASSERT_TRUE(server_.Cancel(query_).ok());
  EXPECT_EQ(Field("buffered_rows"), 0);
  EXPECT_TRUE(server_.PollAll(query_).empty());
}

TEST_F(EgressTest, SetCallbackOnUnknownQueryFails) {
  EXPECT_FALSE(server_.SetCallback(999, [](const ResultSet&) {}).ok());
  EXPECT_FALSE(server_.SetCallback(999, nullptr).ok());
}

TEST_F(EgressTest, StreamPumpDrainsQueueIntoServer) {
  auto q = std::make_shared<TupleQueue>(PushQueueOptions(1024));
  StreamPumpModule pump("pump", &server_, "ClosingStockPrices", q);
  for (int64_t d = 1; d <= 20; ++d) {
    ASSERT_TRUE(q->Enqueue(Stock(d, "MSFT", 50.0)));
  }
  q->Close();
  while (pump.Step(8) != FjordModule::StepResult::kDone) {
  }
  EXPECT_EQ(pump.pumped(), 20u);
  EXPECT_EQ(pump.rejected(), 0u);
  EXPECT_EQ(FlattenRows(server_.PollAll(query_)).size(), 20u);
}

TEST_F(EgressTest, StreamPumpCountsRejects) {
  auto q = std::make_shared<TupleQueue>(PushQueueOptions(16));
  StreamPumpModule pump("pump", &server_, "ClosingStockPrices", q);
  ASSERT_TRUE(q->Enqueue(Stock(5, "MSFT", 50.0)));
  ASSERT_TRUE(q->Enqueue(Stock(3, "MSFT", 50.0)));  // Out of order.
  ASSERT_TRUE(q->Enqueue(Stock(6, "MSFT", 50.0)));
  q->Close();
  while (pump.Step(8) != FjordModule::StepResult::kDone) {
  }
  EXPECT_EQ(pump.pumped(), 2u);
  EXPECT_EQ(pump.rejected(), 1u);
}

TEST_F(EgressTest, EndToEndWrapperPipelineUnderScheduler) {
  // SourceModule -> queue -> StreamPump -> Server -> result buffer: the
  // full Figure-5 path (Wrapper process -> Executor -> client).
  StockTickerSource::Options sopts;
  sopts.num_symbols = 2;  // MSFT + one other.
  sopts.num_days = 50;
  auto wire = std::make_shared<TupleQueue>(PushQueueOptions(64));

  ExecutionObject eo("wrapper");
  eo.AddModule(std::make_shared<SourceModule>(
      "ticker", std::make_unique<StockTickerSource>(sopts), wire));
  eo.AddModule(std::make_shared<StreamPumpModule>(
      "pump", &server_, "ClosingStockPrices", wire));
  eo.Start();
  eo.Join();

  // One MSFT row per day.
  EXPECT_EQ(FlattenRows(server_.PollAll(query_)).size(), 50u);
}

}  // namespace
}  // namespace tcq
