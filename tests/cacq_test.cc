#include "cacq/engine.h"

#include <gtest/gtest.h>

#include <map>

#include "cacq/sharded_engine.h"
#include "common/rng.h"
#include "kv.h"

namespace tcq {
namespace {

SchemaPtr StockSchema() {
  return Schema::Make({{"timestamp", ValueType::kInt64, ""},
                       {"stockSymbol", ValueType::kString, ""},
                       {"closingPrice", ValueType::kDouble, ""}});
}

Tuple Stock(int64_t ts, const std::string& sym, double price) {
  return Tuple::Make(
      {Value::Int64(ts), Value::String(sym), Value::Double(price)}, ts);
}

ExprPtr SymEq(const std::string& sym) {
  return Expr::Binary(BinaryOp::kEq, Expr::Column("stockSymbol"),
                      Expr::Literal(Value::String(sym)));
}

ExprPtr PriceGt(double p) {
  return Expr::Binary(BinaryOp::kGt, Expr::Column("closingPrice"),
                      Expr::Literal(Value::Double(p)));
}

TEST(CacqEngineTest, TwoSelectionQueriesShareOneEddy) {
  CacqEngine engine;
  ASSERT_TRUE(engine.AddStream("Stocks", StockSchema()).ok());

  std::map<QueryId, int> hits;
  engine.SetSink([&](QueryId q, const Tuple&) { ++hits[q]; });

  CacqQuerySpec q0;
  q0.sources = {"Stocks"};
  q0.where = SymEq("MSFT");
  CacqQuerySpec q1;
  q1.sources = {"Stocks"};
  q1.where = Expr::Binary(BinaryOp::kAnd, SymEq("MSFT"), PriceGt(50));
  ASSERT_TRUE(engine.AddQuery(q0).ok());
  ASSERT_TRUE(engine.AddQuery(q1).ok());

  ASSERT_TRUE(engine.Inject("Stocks", Stock(1, "MSFT", 45)).ok());
  ASSERT_TRUE(engine.Inject("Stocks", Stock(2, "MSFT", 55)).ok());
  ASSERT_TRUE(engine.Inject("Stocks", Stock(3, "IBM", 60)).ok());

  EXPECT_EQ(hits[0], 2);  // Both MSFT rows.
  EXPECT_EQ(hits[1], 1);  // Only the >50 row.
}

TEST(CacqEngineTest, QueryWithNoPredicateSeesEverything) {
  CacqEngine engine;
  ASSERT_TRUE(engine.AddStream("Stocks", StockSchema()).ok());
  int hits = 0;
  engine.SetSink([&](QueryId, const Tuple&) { ++hits; });
  CacqQuerySpec q;
  q.sources = {"Stocks"};
  ASSERT_TRUE(engine.AddQuery(q).ok());
  ASSERT_TRUE(engine.Inject("Stocks", Stock(1, "A", 1)).ok());
  ASSERT_TRUE(engine.Inject("Stocks", Stock(2, "B", 2)).ok());
  EXPECT_EQ(hits, 2);
}

TEST(CacqEngineTest, NoQueriesNoWork) {
  CacqEngine engine;
  ASSERT_TRUE(engine.AddStream("Stocks", StockSchema()).ok());
  ASSERT_TRUE(engine.Inject("Stocks", Stock(1, "A", 1)).ok());
  EXPECT_EQ(engine.eddy().visits(), 0u);
}

TEST(CacqEngineTest, DynamicAddAndRemove) {
  CacqEngine engine;
  ASSERT_TRUE(engine.AddStream("Stocks", StockSchema()).ok());
  std::map<QueryId, int> hits;
  engine.SetSink([&](QueryId q, const Tuple&) { ++hits[q]; });

  CacqQuerySpec spec;
  spec.sources = {"Stocks"};
  spec.where = SymEq("MSFT");
  auto q0 = engine.AddQuery(spec);
  ASSERT_TRUE(q0.ok());
  ASSERT_TRUE(engine.Inject("Stocks", Stock(1, "MSFT", 1)).ok());
  EXPECT_EQ(hits[*q0], 1);

  // A second query folds in mid-stream; the first keeps matching.
  spec.where = PriceGt(10);
  auto q1 = engine.AddQuery(spec);
  ASSERT_TRUE(q1.ok());
  ASSERT_TRUE(engine.Inject("Stocks", Stock(2, "MSFT", 20)).ok());
  EXPECT_EQ(hits[*q0], 2);
  EXPECT_EQ(hits[*q1], 1);

  // Remove the first; only the second fires afterwards.
  ASSERT_TRUE(engine.RemoveQuery(*q0).ok());
  ASSERT_TRUE(engine.Inject("Stocks", Stock(3, "MSFT", 30)).ok());
  EXPECT_EQ(hits[*q0], 2);
  EXPECT_EQ(hits[*q1], 2);
  EXPECT_EQ(engine.num_active_queries(), 1u);
}

TEST(CacqEngineTest, RemoveUnknownQueryFails) {
  CacqEngine engine;
  ASSERT_TRUE(engine.AddStream("S", StockSchema()).ok());
  EXPECT_FALSE(engine.RemoveQuery(5).ok());
}

TEST(CacqEngineTest, ResidualPredicates) {
  // OR predicates cannot enter grouped filters; they run as residuals.
  CacqEngine engine;
  ASSERT_TRUE(engine.AddStream("Stocks", StockSchema()).ok());
  int hits = 0;
  engine.SetSink([&](QueryId, const Tuple&) { ++hits; });
  CacqQuerySpec q;
  q.sources = {"Stocks"};
  q.where = Expr::Binary(BinaryOp::kOr, SymEq("MSFT"), SymEq("IBM"));
  ASSERT_TRUE(engine.AddQuery(q).ok());
  ASSERT_TRUE(engine.Inject("Stocks", Stock(1, "MSFT", 1)).ok());
  ASSERT_TRUE(engine.Inject("Stocks", Stock(2, "IBM", 1)).ok());
  ASSERT_TRUE(engine.Inject("Stocks", Stock(3, "ORCL", 1)).ok());
  EXPECT_EQ(hits, 2);
}

TEST(CacqEngineTest, ResidualsOnSourceSetsSixtyFourApartStaySeparate) {
  // {S0} and {S64} agree modulo 64: each query's residual must still run
  // on its own stream only.
  CacqEngine engine;
  for (int i = 0; i <= 64; ++i) {
    ASSERT_TRUE(engine.AddStream("S" + std::to_string(i), KV()).ok());
  }
  std::map<QueryId, int> hits;
  engine.SetSink([&](QueryId q, const Tuple&) { ++hits[q]; });
  auto sum_gt_100 = [](const std::string& s) {
    CacqQuerySpec q;
    q.sources = {s};
    q.where = Expr::Binary(
        BinaryOp::kGt,
        Expr::Binary(BinaryOp::kAdd, Expr::Column(s + ".k"),
                     Expr::Column(s + ".v")),
        Expr::Literal(Value::Int64(100)));
    return q;
  };
  auto q0 = engine.AddQuery(sum_gt_100("S0"));
  auto q64 = engine.AddQuery(sum_gt_100("S64"));
  ASSERT_TRUE(q0.ok() && q64.ok());

  ASSERT_TRUE(engine.Inject("S0", KVTuple(1, 1, 1)).ok());
  ASSERT_TRUE(engine.Inject("S64", KVTuple(1, 1, 1)).ok());
  ASSERT_TRUE(engine.Inject("S64", KVTuple(60, 60, 2)).ok());
  EXPECT_EQ(hits[*q0], 0);
  EXPECT_EQ(hits[*q64], 1);  // Only (60, 60) passes k + v > 100.
}

TEST(CacqEngineTest, RejectsFactorsOutsideTheFootprint) {
  // A factor on a stream the query does not range over could never be
  // applied to its tuples; accepting it would deliver every A tuple.
  CacqEngine engine;
  ASSERT_TRUE(engine.AddStream("A", KV()).ok());
  ASSERT_TRUE(engine.AddStream("B", KV()).ok());
  int hits = 0;
  engine.SetSink([&](QueryId, const Tuple&) { ++hits; });
  const ExprPtr grouped = Expr::Binary(BinaryOp::kGt, Expr::Column("B.v"),
                                       Expr::Literal(Value::Int64(100)));
  const ExprPtr residual = Expr::Binary(
      BinaryOp::kGt,
      Expr::Binary(BinaryOp::kAdd, Expr::Column("B.v"), Expr::Column("B.k")),
      Expr::Literal(Value::Int64(100)));
  for (const ExprPtr& where : {grouped, residual}) {
    CacqQuerySpec q;
    q.sources = {"A"};
    q.where = where;
    const Result<QueryId> id = engine.AddQuery(q);
    ASSERT_FALSE(id.ok()) << where->ToString();
    EXPECT_EQ(id.status().code(), StatusCode::kInvalidArgument);
  }
  for (int64_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(engine.Inject("A", KVTuple(i, 1, i)).ok());
  }
  EXPECT_EQ(hits, 0);
  EXPECT_EQ(engine.num_active_queries(), 0u);
}

TEST(CacqEngineTest, OneIndexVisitPerSingleStreamTuple) {
  // Filters over two columns of one stream share one query-index
  // operator: each tuple is routed once, not once per column.
  CacqEngine engine;
  ASSERT_TRUE(engine.AddStream("Stocks", StockSchema()).ok());
  int hits = 0;
  engine.SetSink([&](QueryId, const Tuple&) { ++hits; });
  for (double p : {10.0, 50.0}) {
    CacqQuerySpec q;
    q.sources = {"Stocks"};
    q.where = Expr::Binary(BinaryOp::kAnd, SymEq("MSFT"), PriceGt(p));
    ASSERT_TRUE(engine.AddQuery(q).ok());
  }
  const std::vector<Tuple> batch = {Stock(1, "MSFT", 45), Stock(2, "MSFT", 55),
                                    Stock(3, "IBM", 60)};
  for (const Tuple& t : batch) ASSERT_TRUE(engine.Inject("Stocks", t).ok());
  ASSERT_TRUE(engine.InjectBatch("Stocks", batch).ok());
  EXPECT_EQ(engine.eddy().visits(), 2 * batch.size());
  EXPECT_EQ(hits, 2 * 3);  // (45: q0) and (55: q0, q1), twice.
}

TEST(CacqEngineTest, SharedJoinAcrossQueries) {
  // Two join queries with different selections share the SteM pair.
  CacqEngine engine;
  SchemaPtr ab =
      Schema::Make({{"k", ValueType::kInt64, ""}, {"v", ValueType::kInt64, ""}});
  ASSERT_TRUE(engine.AddStream("A", ab).ok());
  ASSERT_TRUE(engine.AddStream("B", ab).ok());

  std::map<QueryId, int> hits;
  engine.SetSink([&](QueryId q, const Tuple&) { ++hits[q]; });

  auto join = Expr::Binary(BinaryOp::kEq, Expr::Column("A.k"),
                           Expr::Column("B.k"));
  CacqQuerySpec q0;  // All joins.
  q0.sources = {"A", "B"};
  q0.where = join;
  CacqQuerySpec q1;  // Joins with A.v > 10.
  q1.sources = {"A", "B"};
  q1.where = Expr::Binary(
      BinaryOp::kAnd, join,
      Expr::Binary(BinaryOp::kGt, Expr::Column("A.v"),
                   Expr::Literal(Value::Int64(10))));
  ASSERT_TRUE(engine.AddQuery(q0).ok());
  ASSERT_TRUE(engine.AddQuery(q1).ok());

  auto row = [](int64_t k, int64_t v, Timestamp ts) {
    return Tuple::Make({Value::Int64(k), Value::Int64(v)}, ts);
  };
  ASSERT_TRUE(engine.Inject("A", row(1, 5, 1)).ok());
  ASSERT_TRUE(engine.Inject("B", row(1, 0, 2)).ok());   // Join: q0 only.
  ASSERT_TRUE(engine.Inject("A", row(2, 50, 3)).ok());
  ASSERT_TRUE(engine.Inject("B", row(2, 0, 4)).ok());   // Join: q0 and q1.

  EXPECT_EQ(hits[0], 2);
  EXPECT_EQ(hits[1], 1);
}

TEST(CacqEngineTest, SingleStreamQueriesAlongsideJoinQueries) {
  CacqEngine engine;
  SchemaPtr ab =
      Schema::Make({{"k", ValueType::kInt64, ""}, {"v", ValueType::kInt64, ""}});
  ASSERT_TRUE(engine.AddStream("A", ab).ok());
  ASSERT_TRUE(engine.AddStream("B", ab).ok());

  std::map<QueryId, int> hits;
  engine.SetSink([&](QueryId q, const Tuple&) { ++hits[q]; });

  CacqQuerySpec sel;  // Selection on A only.
  sel.sources = {"A"};
  sel.where = Expr::Binary(BinaryOp::kGt, Expr::Column("A.v"),
                           Expr::Literal(Value::Int64(10)));
  CacqQuerySpec join;
  join.sources = {"A", "B"};
  join.where = Expr::Binary(BinaryOp::kEq, Expr::Column("A.k"),
                            Expr::Column("B.k"));
  auto sq = engine.AddQuery(sel);
  auto jq = engine.AddQuery(join);
  ASSERT_TRUE(sq.ok() && jq.ok());

  auto row = [](int64_t k, int64_t v, Timestamp ts) {
    return Tuple::Make({Value::Int64(k), Value::Int64(v)}, ts);
  };
  ASSERT_TRUE(engine.Inject("A", row(1, 20, 1)).ok());  // sel hit.
  ASSERT_TRUE(engine.Inject("B", row(1, 0, 2)).ok());   // join hit.
  ASSERT_TRUE(engine.Inject("A", row(2, 5, 3)).ok());   // Neither (v<=10)...
  ASSERT_TRUE(engine.Inject("B", row(2, 0, 4)).ok());   // ...but join hits.

  EXPECT_EQ(hits[*sq], 1);
  EXPECT_EQ(hits[*jq], 2);
}

TEST(CacqEngineTest, EvictBeforeLimitsJoinState) {
  CacqEngine engine;
  SchemaPtr ab =
      Schema::Make({{"k", ValueType::kInt64, ""}, {"v", ValueType::kInt64, ""}});
  ASSERT_TRUE(engine.AddStream("A", ab).ok());
  ASSERT_TRUE(engine.AddStream("B", ab).ok());
  int hits = 0;
  engine.SetSink([&](QueryId, const Tuple&) { ++hits; });
  CacqQuerySpec join;
  join.sources = {"A", "B"};
  join.where = Expr::Binary(BinaryOp::kEq, Expr::Column("A.k"),
                            Expr::Column("B.k"));
  ASSERT_TRUE(engine.AddQuery(join).ok());

  auto row = [](int64_t k, Timestamp ts) {
    return Tuple::Make({Value::Int64(k), Value::Int64(0)}, ts);
  };
  ASSERT_TRUE(engine.Inject("A", row(1, 1)).ok());
  engine.EvictBefore(10);  // A's tuple leaves the window.
  ASSERT_TRUE(engine.Inject("B", row(1, 11)).ok());
  EXPECT_EQ(hits, 0);
  ASSERT_TRUE(engine.Inject("A", row(1, 12)).ok());
  ASSERT_TRUE(engine.Inject("B", row(1, 13)).ok());
  EXPECT_EQ(hits, 2);  // B(11)⋈A(12)? No: A(12) probes B-stem -> B(11),
                       // and B(13) probes A-stem -> A(12).
}

// Stable symbol names for the property test.
std::string StockTickerSourceSymbolForTest(uint64_t i) {
  const char* symbols[] = {"MSFT", "IBM", "ORCL", "AAPL"};
  return symbols[i % 4];
}

// Property: shared execution of N random selection queries produces
// exactly what N independent evaluations produce.
class CacqSharingPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CacqSharingPropertyTest, MatchesIndependentEvaluation) {
  Rng rng(GetParam());
  CacqEngine engine;
  ASSERT_TRUE(engine.AddStream("Stocks", StockSchema()).ok());

  const size_t num_queries = 1 + rng.NextBounded(40);
  std::vector<ExprPtr> predicates;
  std::map<QueryId, int> hits;
  engine.SetSink([&](QueryId q, const Tuple&) { ++hits[q]; });

  SchemaPtr schema = StockSchema();
  for (size_t i = 0; i < num_queries; ++i) {
    // Random conjunction of a symbol equality and/or price range.
    std::vector<ExprPtr> conj;
    if (rng.NextBool(0.6)) {
      conj.push_back(
          SymEq(StockTickerSourceSymbolForTest(rng.NextBounded(4))));
    }
    if (rng.NextBool(0.7)) {
      conj.push_back(PriceGt(static_cast<double>(rng.NextInt(20, 80))));
    }
    if (rng.NextBool(0.3)) {
      conj.push_back(Expr::Binary(BinaryOp::kLt, Expr::Column("closingPrice"),
                                  Expr::Literal(Value::Double(
                                      static_cast<double>(rng.NextInt(40, 120))))));
    }
    ExprPtr where = conj.empty() ? nullptr : MakeConjunction(conj);
    predicates.push_back(where);
    CacqQuerySpec spec;
    spec.sources = {"Stocks"};
    spec.where = where;
    ASSERT_TRUE(engine.AddQuery(spec).ok());
  }

  std::vector<int> expected(num_queries, 0);
  std::vector<ExprPtr> bound(num_queries);
  for (size_t i = 0; i < num_queries; ++i) {
    if (predicates[i] != nullptr) bound[i] = *predicates[i]->Bind(*schema);
  }

  const char* symbols[] = {"MSFT", "IBM", "ORCL", "AAPL"};
  for (int i = 0; i < 500; ++i) {
    Tuple t = Stock(i + 1, symbols[rng.NextBounded(4)],
                    static_cast<double>(rng.NextInt(0, 130)));
    for (size_t q = 0; q < num_queries; ++q) {
      if (bound[q] == nullptr) {
        ++expected[q];
        continue;
      }
      const Value keep = bound[q]->Eval(t);
      if (!keep.is_null() && keep.bool_value()) ++expected[q];
    }
    ASSERT_TRUE(engine.Inject("Stocks", t).ok());
  }
  for (size_t q = 0; q < num_queries; ++q) {
    ASSERT_EQ(hits[static_cast<QueryId>(q)], expected[q]) << "query " << q;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CacqSharingPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

// ---- ShardedEngine ---------------------------------------------------------

TEST(ShardedEngineTest, RejectsJoinOffThePartitionColumns) {
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

TEST(ShardedEngineTest, ShardStatsAccountForEveryTuple) {
  ShardedEngine::Options opts;
  opts.num_shards = 4;
  ShardedEngine engine(opts);
  ASSERT_TRUE(engine.AddStream("S", KV(), /*partition col=*/0).ok());
  engine.Start();
  CacqQuerySpec q;
  q.sources = {"S"};
  q.where = Expr::Binary(BinaryOp::kGt, Expr::Column("k"),
                         Expr::Literal(Value::Int64(10)));
  ASSERT_TRUE(engine.AddQuery(q).ok());
  std::vector<Tuple> batch;
  for (int64_t k = 0; k < 60; ++k) {
    batch.push_back(Tuple::Make({Value::Int64(k), Value::Int64(k * 7)}, k + 1));
  }
  const size_t total = batch.size();
  ASSERT_TRUE(engine.PushBatch("S", std::move(batch)).ok());
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

}  // namespace
}  // namespace tcq
