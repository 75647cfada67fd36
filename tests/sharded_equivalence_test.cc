// Sharded-vs-single equivalence: the Flux-style exchange may hash tuples
// across any number of shard eddies, but the §2.2 routing-invariance
// obligation extends across the exchange — the emitted RESULT SET must be
// exactly what one inline CacqEngine produces, whatever the shard count,
// batch boundary, policy seed or query registration order. ScheduleExplorer
// drives those dimensions over the same 12 seeds as the batch-equivalence
// suite.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cacq/sharded_engine.h"
#include "core/server.h"
#include "ingress/sources.h"
#include "testing/schedule_explorer.h"

namespace tcq {
namespace {

SchemaPtr KV() {
  return Schema::Make(
      {{"k", ValueType::kInt64, ""}, {"v", ValueType::kInt64, ""}});
}

Tuple KVTuple(int64_t k, int64_t v, Timestamp ts) {
  return Tuple::Make({Value::Int64(k), Value::Int64(v)}, ts);
}

/// One labelled emission: the label is the query's position in the
/// workload (stable across registration orders), not its engine QueryId.
using Labelled = std::pair<size_t, std::string>;

std::string Fingerprint(std::vector<Labelled> rows) {
  std::sort(rows.begin(), rows.end());
  std::ostringstream fp;
  for (const Labelled& r : rows) fp << "q" << r.first << "|" << r.second
                                    << "\n";
  return fp.str();
}

struct Workload {
  /// (name, schema, partition column), declaration order fixed.
  std::vector<std::tuple<std::string, SchemaPtr, size_t>> streams;
  std::vector<CacqQuerySpec> queries;
  /// Producer feed: same-stream batches, in push order.
  std::vector<std::pair<std::string, std::vector<Tuple>>> feed;
};

/// Reference: the whole workload through one inline CacqEngine.
std::string RunInline(const Workload& w) {
  CacqEngine engine;
  for (const auto& [name, schema, col] : w.streams) {
    EXPECT_TRUE(engine.AddStream(name, schema).ok());
  }
  std::vector<Labelled> rows;
  std::map<QueryId, size_t> label;
  engine.SetSink([&](QueryId q, const Tuple& t) {
    rows.emplace_back(label.at(q), t.ToString());
  });
  for (size_t i = 0; i < w.queries.size(); ++i) {
    auto q = engine.AddQuery(w.queries[i]);
    EXPECT_TRUE(q.ok()) << q.status();
    label[*q] = i;
  }
  for (const auto& [stream, batch] : w.feed) {
    EXPECT_TRUE(engine.InjectBatch(stream, batch).ok());
  }
  return Fingerprint(std::move(rows));
}

/// The same workload through a ShardedEngine: `num_shards` worker threads,
/// queries registered in `order`, batches re-sliced to `chunk` tuples.
std::string RunSharded(const Workload& w, size_t num_shards, uint64_t seed,
                       const std::vector<size_t>& order, size_t chunk) {
  ShardedEngine::Options opts;
  opts.num_shards = num_shards;
  opts.seed = seed;
  ShardedEngine engine(opts);
  for (const auto& [name, schema, col] : w.streams) {
    EXPECT_TRUE(engine.AddStream(name, schema, col).ok());
  }
  std::mutex mu;
  std::vector<Labelled> rows;
  std::map<QueryId, size_t> label;
  engine.SetSink([&](std::vector<ShardedEngine::Emission>&& batch) {
    std::lock_guard<std::mutex> lock(mu);
    for (const auto& [q, t] : batch) {
      rows.emplace_back(label.at(q), t.ToString());
    }
  });
  engine.Start();
  for (size_t i : order) {
    auto q = engine.AddQuery(w.queries[i]);
    EXPECT_TRUE(q.ok()) << q.status();
    std::lock_guard<std::mutex> lock(mu);
    label[*q] = i;
  }
  for (const auto& [stream, batch] : w.feed) {
    for (size_t at = 0; at < batch.size(); at += chunk) {
      const size_t n = std::min(chunk, batch.size() - at);
      std::vector<Tuple> slice(batch.begin() + static_cast<ptrdiff_t>(at),
                               batch.begin() + static_cast<ptrdiff_t>(at + n));
      EXPECT_TRUE(engine.PushBatch(stream, std::move(slice)).ok());
    }
  }
  engine.Quiesce();
  engine.Stop();
  std::lock_guard<std::mutex> lock(mu);
  return Fingerprint(std::move(rows));
}

Workload FilterWorkload() {
  Workload w;
  w.streams.emplace_back("S", KV(), /*partition col=*/0);
  auto filter = [](ExprPtr e) {
    CacqQuerySpec q;
    q.sources = {"S"};
    q.where = std::move(e);
    return q;
  };
  w.queries.push_back(filter(Expr::Binary(BinaryOp::kGt, Expr::Column("k"),
                                          Expr::Literal(Value::Int64(10)))));
  w.queries.push_back(filter(Expr::Binary(BinaryOp::kLt, Expr::Column("k"),
                                          Expr::Literal(Value::Int64(40)))));
  w.queries.push_back(filter(Expr::Binary(
      BinaryOp::kEq,
      Expr::Binary(BinaryOp::kMod, Expr::Column("v"),
                   Expr::Literal(Value::Int64(3))),
      Expr::Literal(Value::Int64(0)))));
  std::vector<Tuple> batch;
  for (int64_t k = 0; k < 60; ++k) batch.push_back(KVTuple(k, k * 7, k + 1));
  w.feed.emplace_back("S", std::move(batch));
  return w;
}

Workload JoinWorkload() {
  Workload w;
  // Both streams partitioned on their join column k.
  w.streams.emplace_back("A", KV(), 0);
  w.streams.emplace_back("B", KV(), 0);
  auto join = Expr::Binary(BinaryOp::kEq, Expr::Column("A.k"),
                           Expr::Column("B.k"));
  CacqQuerySpec q0;
  q0.sources = {"A", "B"};
  q0.where = join;
  CacqQuerySpec q1;
  q1.sources = {"A", "B"};
  q1.where = Expr::Binary(
      BinaryOp::kAnd, join,
      Expr::Binary(BinaryOp::kGt, Expr::Column("A.v"),
                   Expr::Literal(Value::Int64(10))));
  w.queries.push_back(std::move(q0));
  w.queries.push_back(std::move(q1));
  // Interleaved A/B batches over a small key domain, so SteM state built
  // by early batches joins against arrivals many batches later.
  Timestamp ts = 1;
  for (int round = 0; round < 8; ++round) {
    std::vector<Tuple> a, b;
    for (int i = 0; i < 10; ++i) {
      a.push_back(KVTuple((round * 3 + i) % 17, round * 10 + i, ts++));
      b.push_back(KVTuple((round * 5 + i * 2) % 17, i, ts++));
    }
    w.feed.emplace_back("A", std::move(a));
    w.feed.emplace_back("B", std::move(b));
  }
  return w;
}

TEST(ShardedEquivalenceTest, FiltersMatchInlineAcrossSchedules) {
  const Workload w = FilterWorkload();
  const std::string expected = RunInline(w);
  EXPECT_FALSE(expected.empty());

  for (uint64_t seed = 1; seed <= 12; ++seed) {
    ScheduleExplorer explorer(seed);
    auto common = explorer.Explore(
        w.queries.size(), [&](const ScheduleExplorer::Schedule& schedule) {
          // Explorer dimensions: registration order, batch boundary (the
          // quantum), per-trial policy seed — plus the shard count.
          const size_t shards = 1 + schedule.trial_seed % 4;  // 1..4.
          const std::string got =
              RunSharded(w, shards, schedule.trial_seed + 1, schedule.order,
                         schedule.quantum);
          EXPECT_EQ(got, expected)
              << "seed " << seed << ", shards " << shards << ", "
              << ScheduleExplorer::Describe(schedule);
          return got;
        });
    ASSERT_TRUE(common.ok()) << common.status();
  }
}

TEST(ShardedEquivalenceTest, PartitionedJoinsMatchInlineAcrossSchedules) {
  const Workload w = JoinWorkload();
  const std::string expected = RunInline(w);
  EXPECT_FALSE(expected.empty());

  for (uint64_t seed = 1; seed <= 12; ++seed) {
    ScheduleExplorer explorer(seed);
    auto common = explorer.Explore(
        w.queries.size(), [&](const ScheduleExplorer::Schedule& schedule) {
          const size_t shards = 2 + schedule.trial_seed % 3;  // 2..4.
          const std::string got =
              RunSharded(w, shards, schedule.trial_seed + 1, schedule.order,
                         schedule.quantum);
          EXPECT_EQ(got, expected)
              << "seed " << seed << ", shards " << shards << ", "
              << ScheduleExplorer::Describe(schedule);
          return got;
        });
    ASSERT_TRUE(common.ok()) << common.status();
  }
}

TEST(ShardedEquivalenceTest, DynamicFoldInMatchesInline) {
  // A query registered mid-stream sees exactly the tuples pushed after
  // AddQuery returns — on every shard, exactly like the inline engine.
  Workload w = FilterWorkload();
  const auto late_query = w.queries.back();
  w.queries.pop_back();

  auto run = [&](auto&& push_engine, auto&& add_query) {
    const auto& batch = w.feed[0].second;
    const size_t half = batch.size() / 2;
    push_engine(std::vector<Tuple>(batch.begin(),
                                   batch.begin() + static_cast<ptrdiff_t>(half)));
    add_query();
    push_engine(std::vector<Tuple>(batch.begin() + static_cast<ptrdiff_t>(half),
                                   batch.end()));
  };

  // Inline reference.
  std::vector<Labelled> inline_rows;
  std::map<QueryId, size_t> inline_label;
  CacqEngine inline_engine;
  ASSERT_TRUE(inline_engine.AddStream("S", KV()).ok());
  inline_engine.SetSink([&](QueryId q, const Tuple& t) {
    inline_rows.emplace_back(inline_label.at(q), t.ToString());
  });
  for (size_t i = 0; i < w.queries.size(); ++i) {
    inline_label[*inline_engine.AddQuery(w.queries[i])] = i;
  }
  run([&](std::vector<Tuple> b) {
        ASSERT_TRUE(inline_engine.InjectBatch("S", b).ok());
      },
      [&] { inline_label[*inline_engine.AddQuery(late_query)] = 99; });
  const std::string expected = Fingerprint(std::move(inline_rows));

  // Sharded, 4 workers.
  ShardedEngine::Options opts;
  opts.num_shards = 4;
  ShardedEngine sharded(opts);
  ASSERT_TRUE(sharded.AddStream("S", KV(), 0).ok());
  std::mutex mu;
  std::vector<Labelled> rows;
  std::map<QueryId, size_t> label;
  sharded.SetSink([&](std::vector<ShardedEngine::Emission>&& batch) {
    std::lock_guard<std::mutex> lock(mu);
    for (const auto& [q, t] : batch) rows.emplace_back(label.at(q),
                                                       t.ToString());
  });
  sharded.Start();
  for (size_t i = 0; i < w.queries.size(); ++i) {
    auto q = sharded.AddQuery(w.queries[i]);
    ASSERT_TRUE(q.ok());
    std::lock_guard<std::mutex> lock(mu);
    label[*q] = i;
  }
  run(
      [&](std::vector<Tuple> b) {
        ASSERT_TRUE(sharded.PushBatch("S", std::move(b)).ok());
      },
      [&] {
        auto q = sharded.AddQuery(late_query);
        ASSERT_TRUE(q.ok());
        std::lock_guard<std::mutex> lock(mu);
        label[*q] = 99;
      });
  sharded.Quiesce();
  sharded.Stop();
  EXPECT_EQ(Fingerprint(std::move(rows)), expected);
}

TEST(ShardedEquivalenceTest, RejectsJoinOffThePartitionColumns) {
  ShardedEngine::Options opts;
  opts.num_shards = 2;
  ShardedEngine engine(opts);
  ASSERT_TRUE(engine.AddStream("A", KV(), /*partition col=*/0).ok());
  ASSERT_TRUE(engine.AddStream("B", KV(), /*partition col=*/0).ok());
  CacqQuerySpec bad;  // Joins on v while the exchange hashes on k.
  bad.sources = {"A", "B"};
  bad.where = Expr::Binary(BinaryOp::kEq, Expr::Column("A.v"),
                           Expr::Column("B.v"));
  EXPECT_EQ(engine.AddQuery(bad).status().code(),
            StatusCode::kInvalidArgument);
  // The matching join is accepted.
  CacqQuerySpec good;
  good.sources = {"A", "B"};
  good.where = Expr::Binary(BinaryOp::kEq, Expr::Column("A.k"),
                            Expr::Column("B.k"));
  EXPECT_TRUE(engine.AddQuery(good).ok());
}

TEST(ShardedEquivalenceTest, ShardStatsAccountForEveryTuple) {
  const Workload w = FilterWorkload();
  ShardedEngine::Options opts;
  opts.num_shards = 4;
  ShardedEngine engine(opts);
  for (const auto& [name, schema, col] : w.streams) {
    ASSERT_TRUE(engine.AddStream(name, schema, col).ok());
  }
  engine.Start();
  for (const auto& q : w.queries) ASSERT_TRUE(engine.AddQuery(q).ok());
  size_t total = 0;
  for (const auto& [stream, batch] : w.feed) {
    total += batch.size();
    ASSERT_TRUE(engine.PushBatch(stream, std::vector<Tuple>(batch)).ok());
  }
  engine.Quiesce();
  uint64_t routed = 0, processed = 0;
  size_t populated = 0;
  for (const ShardedEngine::ShardStats& s : engine.shard_stats()) {
    routed += s.routed;
    processed += s.processed;
    EXPECT_EQ(s.queue_depth, 0u);  // Quiesced: nothing in flight.
    if (s.routed > 0) ++populated;
  }
  EXPECT_EQ(routed, total);
  EXPECT_EQ(processed, total);
  // 60 distinct keys over 4 shards: the hash must actually spread them.
  EXPECT_GT(populated, 1u);
  engine.Stop();
}

// --- Server-level equivalence ----------------------------------------------

Tuple Stock(int64_t day, const std::string& sym, double price) {
  return Tuple::Make(
      {Value::Int64(day), Value::String(sym), Value::Double(price)}, day);
}

TEST(ShardedEquivalenceTest, ServerShardedMatchesInlineServer) {
  // The full facade: standing CACQ filters (delayed and speculative), a
  // windowed aggregate, a mid-stream Cancel, a Retract of an archived
  // tuple and a ReplayStream of the whole history on a server with
  // cacq_shards=4 must answer exactly like the one-shard server. (The
  // windowed path is shard-oblivious by design.) The one-shard server is
  // also held to its synchronous contract: every CACQ row is pollable the
  // moment the call that produced it returns, in arrival order.
  struct Standing {
    const char* sql;
    Consistency consistency;
    std::function<bool(const Tuple&)> where;  ///< Row oracle (CACQ only).
    size_t column;                            ///< Projected input column.
  };
  auto price = [](const Tuple& t) { return t.cell(2).AsDouble(); };
  const std::vector<Standing> standing = {
      {"SELECT closingPrice FROM ClosingStockPrices "
       "WHERE stockSymbol = 'MSFT' AND closingPrice > 45",
       Consistency::kDelayed,
       [&](const Tuple& t) {
         return t.cell(1).string_value() == "MSFT" && price(t) > 45;
       },
       2},
      {"SELECT timestamp FROM ClosingStockPrices WHERE closingPrice < 44",
       Consistency::kDelayed, [&](const Tuple& t) { return price(t) < 44; },
       0},
      {"SELECT AVG(closingPrice) FROM ClosingStockPrices "
       "for (t = ST; true; t += 5) { "
       "WindowIs(ClosingStockPrices, t - 4, t); }",
       Consistency::kDelayed, nullptr, 0},
      {"SELECT closingPrice FROM ClosingStockPrices WHERE closingPrice >= 47",
       Consistency::kSpeculative,
       [&](const Tuple& t) { return price(t) >= 47; }, 2},
      // Canceled mid-stream (kCanceled below).
      {"SELECT stockSymbol FROM ClosingStockPrices WHERE closingPrice > 42",
       Consistency::kDelayed, [&](const Tuple& t) { return price(t) > 42; },
       1},
  };
  constexpr size_t kCanceled = 4;
  constexpr int64_t kCancelAfterDay = 15;
  const char* symbols[] = {"MSFT", "IBM", "ORCL"};
  auto day_batch = [&](int64_t d) {
    std::vector<Tuple> batch;
    for (const char* sym : symbols) {
      batch.push_back(Stock(d, sym, 40.0 + ((d * 3 + sym[0]) % 10)));
    }
    return batch;
  };
  const Tuple retracted = day_batch(7)[0];  // MSFT at 48.

  auto run = [&](size_t shards) {
    Server::Options o;
    o.cacq_shards = shards;
    Server server(o);
    EXPECT_TRUE(server
                    .DefineStream("ClosingStockPrices",
                                  StockTickerSource::MakeSchema(),
                                  /*timestamp_field=*/0,
                                  /*partition_field=*/1)  // stockSymbol.
                    .ok());
    std::vector<QueryId> qs;
    for (const Standing& s : standing) {
      Server::SubmitOptions so;
      so.consistency = s.consistency;
      auto q = server.Submit(s.sql, so);
      EXPECT_TRUE(q.ok()) << q.status();
      qs.push_back(*q);
    }

    // Rows polled so far, per query, in delivery order; and the oracle's
    // expected arrival-order rows for the CACQ queries.
    std::vector<std::vector<std::string>> got(standing.size());
    std::vector<std::vector<std::string>> want(standing.size());
    std::vector<bool> live(standing.size(), true);
    auto expect_rows = [&](const Tuple& t) {
      for (size_t i = 0; i < standing.size(); ++i) {
        if (!live[i] || !standing[i].where || !standing[i].where(t)) continue;
        Tuple row = Tuple::Make({t.cell(standing[i].column)}, t.timestamp());
        row.set_retraction(t.retraction());
        want[i].push_back(row.ToString());
      }
    };
    auto poll = [&](const char* after) {
      for (size_t i = 0; i < standing.size(); ++i) {
        if (!live[i]) continue;
        for (const ResultSet& rs : server.PollAll(qs[i])) {
          for (const Tuple& row : rs.rows) got[i].push_back(row.ToString());
        }
        if (shards == 1 && standing[i].where) {
          // Synchronous and in arrival order: no Quiesce needed, and the
          // unsorted rows equal the oracle's sequence so far.
          EXPECT_EQ(got[i], want[i]) << "query " << i << " after " << after;
        }
      }
    };

    std::vector<Tuple> fed;
    for (int64_t d = 1; d <= 30; ++d) {
      std::vector<Tuple> batch = day_batch(d);
      for (const Tuple& t : batch) {
        expect_rows(t);
        fed.push_back(t);
      }
      EXPECT_TRUE(
          server.PushBatch("ClosingStockPrices", std::move(batch)).ok());
      poll("PushBatch");
      if (d == kCancelAfterDay) {
        // Deliver everything pushed so far, then cancel mid-stream.
        server.Quiesce();
        poll("Quiesce");
        EXPECT_TRUE(server.Cancel(qs[kCanceled]).ok());
        live[kCanceled] = false;
      }
    }

    // Retract an archived assertion: a signed row for each matching query.
    EXPECT_TRUE(server.Retract("ClosingStockPrices", retracted).ok());
    Tuple signed_copy = retracted;
    signed_copy.set_retraction(true);
    expect_rows(signed_copy);
    poll("Retract");

    // Replay the whole archive (the retracted tuple is gone from it).
    EXPECT_TRUE(server.ReplayStream("ClosingStockPrices", kMinTimestamp).ok());
    for (const Tuple& t : fed) {
      if (!t.PayloadEquals(retracted)) expect_rows(t);
    }
    poll("ReplayStream");
    server.Quiesce();
    poll("final Quiesce");

    // Per-query sorted multiset: sharded delivery order is not defined.
    std::ostringstream fp;
    for (size_t i = 0; i < standing.size(); ++i) {
      std::vector<std::string> rows = got[i];
      std::sort(rows.begin(), rows.end());
      fp << "q" << i << ":";
      for (const std::string& r : rows) fp << r << ";";
      fp << "\n";
    }
    return fp.str();
  };

  const std::string expected = run(1);
  EXPECT_NE(expected.find("q1:["), std::string::npos);
  // The retracted MSFT row sorts first in both queries it matched.
  EXPECT_NE(expected.find("q0:-["), std::string::npos);
  EXPECT_NE(expected.find("q3:-["), std::string::npos);
  EXPECT_EQ(run(4), expected);
}

TEST(ShardedEquivalenceTest, ServerShardedCancelStopsDelivery) {
  Server::Options o;
  o.cacq_shards = 4;
  Server server(o);
  ASSERT_TRUE(server
                  .DefineStream("ClosingStockPrices",
                                StockTickerSource::MakeSchema(), 0, 1)
                  .ok());
  auto q = server.Submit(
      "SELECT closingPrice FROM ClosingStockPrices WHERE closingPrice > 0");
  ASSERT_TRUE(q.ok()) << q.status();
  std::vector<Tuple> batch;
  for (int64_t d = 1; d <= 16; ++d) batch.push_back(Stock(d, "MSFT", 50.0));
  ASSERT_TRUE(server.PushBatch("ClosingStockPrices", std::move(batch)).ok());
  server.Quiesce();
  EXPECT_EQ(server.PollAll(*q).size(), 16u);

  ASSERT_TRUE(server.Cancel(*q).ok());
  std::vector<Tuple> more;
  for (int64_t d = 17; d <= 24; ++d) more.push_back(Stock(d, "MSFT", 50.0));
  ASSERT_TRUE(server.PushBatch("ClosingStockPrices", std::move(more)).ok());
  server.Quiesce();
  EXPECT_TRUE(server.PollAll(*q).empty());
}

}  // namespace
}  // namespace tcq
