#include "cacq/engine.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <tuple>

#include "cacq/sharded_engine.h"
#include "common/rng.h"
#include "kv.h"
#include "telemetry/trace.h"

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

// ---- The fixed route ------------------------------------------------------
//
// A stream no SteM reads skips the eddy's routing (its tuples have one
// eligible operator); a tuple the tracer samples takes the eddy. These
// cases run the same traffic both ways and demand identical results and
// books. ctest runs them again as route_equivalence_test (equivalence).

/// One emission as the sink saw it: payload, sign and arrival seq.
using Emitted = std::tuple<std::string, bool, int64_t>;

/// What a run leaves behind, compared whole between routes.
struct RouteRun {
  std::map<QueryId, std::vector<Emitted>> rows;
  int64_t next_seq = 0;
  uint64_t visits = 0;
  uint64_t emitted = 0;
  /// Per operator: (name, routed, passed).
  std::vector<std::tuple<std::string, uint64_t, uint64_t>> ops;

  bool operator==(const RouteRun&) const = default;
};

void Collect(CacqEngine& engine, RouteRun* run) {
  engine.SetSink([run](QueryId q, const Tuple& t) {
    run->rows[q].emplace_back(t.ToString(), t.retraction(), t.seq());
  });
}

void ReadBooks(const CacqEngine& engine, RouteRun* run) {
  const Eddy& eddy = engine.eddy();
  run->next_seq = eddy.next_seq();
  run->visits = eddy.visits();
  run->emitted = eddy.emitted();
  for (size_t i = 0; i < eddy.num_operators(); ++i) {
    run->ops.emplace_back(eddy.op(i)->name(), eddy.op_stats()[i].routed,
                          eddy.op_stats()[i].passed);
  }
}

/// Samples 1 in `sample_every` arrivals while alive (0 = tracer off), so
/// sampled tuples take the eddy route.
class ScopedTracing {
 public:
  explicit ScopedTracing(uint64_t sample_every) {
    Tracer::Global().ResetForTest();
    if (sample_every != 0) Tracer::Global().Enable(sample_every);
  }
  ~ScopedTracing() {
    Tracer::Global().Disable();
    Tracer::Global().ResetForTest();
  }
};

/// Two streams (so widening builds real blocks), filters and residuals on
/// both lanes, a query with no predicate, single and batched injection,
/// and retractions of earlier assertions.
RouteRun RunFilters(uint64_t sample_every, uint64_t* decisions) {
  ScopedTracing tracing(sample_every);
  CacqEngine engine;
  EXPECT_TRUE(engine.AddStream("Stocks", StockSchema()).ok());
  EXPECT_TRUE(engine.AddStream("Quotes", KV()).ok());
  RouteRun run;
  Collect(engine, &run);
  Rng rng(11);
  const char* symbols[] = {"MSFT", "IBM", "ORCL", "AAPL"};
  for (int i = 0; i < 12; ++i) {
    CacqQuerySpec spec;
    spec.sources = {"Stocks"};
    spec.speculative = i % 3 == 0;
    std::vector<ExprPtr> conj;
    if (i % 2 == 0) conj.push_back(SymEq(symbols[i % 4]));
    conj.push_back(PriceGt(static_cast<double>(rng.NextInt(10, 90))));
    if (i % 5 == 0) {  // A residual: price > timestamp.
      conj.push_back(Expr::Binary(BinaryOp::kGt,
                                  Expr::Column("closingPrice"),
                                  Expr::Column("timestamp")));
    }
    spec.where = MakeConjunction(conj);
    EXPECT_TRUE(engine.AddQuery(spec).ok());
  }
  CacqQuerySpec all;  // No predicate: sees every delayed tuple.
  all.sources = {"Stocks"};
  EXPECT_TRUE(engine.AddQuery(all).ok());
  CacqQuerySpec quotes;  // The only query on Quotes: no operator at all.
  quotes.sources = {"Quotes"};
  EXPECT_TRUE(engine.AddQuery(quotes).ok());
  // Both streams but no join: its Stocks filter narrows Stocks tuples,
  // which never span its footprint, so it receives nothing.
  CacqQuerySpec both;
  both.sources = {"Stocks", "Quotes"};
  both.where = PriceGt(30);
  const QueryId q_both = *engine.AddQuery(both);

  std::vector<Tuple> sent;
  int64_t ts = 0;
  for (int round = 0; round < 30; ++round) {
    std::vector<Tuple> batch;
    const size_t n = 1 + rng.NextBounded(40);
    for (size_t i = 0; i < n; ++i) {
      if (!sent.empty() && rng.NextBool(0.1)) {
        Tuple r = sent[rng.NextBounded(sent.size())];
        r.set_retraction(true);
        batch.push_back(std::move(r));
        continue;
      }
      batch.push_back(Stock(++ts, symbols[rng.NextBounded(4)],
                            static_cast<double>(rng.NextInt(0, 100))));
      sent.push_back(batch.back());
    }
    const IngressLane lane = round % 3 == 0   ? IngressLane::kAll
                             : round % 3 == 1 ? IngressLane::kDelayed
                                              : IngressLane::kSpeculative;
    if (round % 4 == 3) {
      for (const Tuple& t : batch) {
        EXPECT_TRUE(engine.Inject("Stocks", t, lane).ok());
      }
    } else {
      EXPECT_TRUE(engine.InjectBatch("Stocks", batch, lane).ok());
    }
    EXPECT_TRUE(
        engine.InjectBatch("Quotes", {KVTuple(round, round, ts)}).ok());
  }
  ReadBooks(engine, &run);
  *decisions = engine.eddy().decisions();
  EXPECT_EQ(run.rows.count(q_both), 0u);
  return run;
}

TEST(CacqRouteTest, FixedRouteMatchesTheEddyRoute) {
  uint64_t fixed_decisions = 0, eddy_decisions = 0, mixed_decisions = 0;
  const RouteRun fixed = RunFilters(/*sample_every=*/0, &fixed_decisions);
  const RouteRun eddy = RunFilters(/*sample_every=*/1, &eddy_decisions);
  const RouteRun mixed = RunFilters(/*sample_every=*/3, &mixed_decisions);
  ASSERT_FALSE(fixed.rows.empty());
  EXPECT_GT(fixed.visits, 0u);
  // Only sampled tuples pay for routing decisions.
  EXPECT_EQ(fixed_decisions, 0u);
#ifndef TCQ_METRICS_DISABLED
  EXPECT_GT(eddy_decisions, mixed_decisions);
  EXPECT_GT(mixed_decisions, 0u);
#endif
  EXPECT_TRUE(fixed == eddy);
  EXPECT_TRUE(fixed == mixed);
  for (const auto& [q, rows] : fixed.rows) {
    ASSERT_EQ(rows, eddy.rows.at(q)) << "query " << q;
  }
  EXPECT_EQ(fixed.ops, eddy.ops);
}

TEST(CacqRouteTest, FixedRouteMakesNoRoutingDecisions) {
  ScopedTracing off(0);
  CacqEngine engine;
  ASSERT_TRUE(engine.AddStream("Stocks", StockSchema()).ok());
  CacqQuerySpec spec;
  spec.sources = {"Stocks"};
  spec.where = PriceGt(50);
  ASSERT_TRUE(engine.AddQuery(spec).ok());
  ASSERT_TRUE(engine
                  .InjectBatch("Stocks", {Stock(1, "A", 10), Stock(2, "A", 60),
                                          Stock(3, "A", 70)})
                  .ok());
  EXPECT_EQ(engine.eddy().decisions(), 0u);
  EXPECT_EQ(engine.eddy().visits(), 3u);
  EXPECT_EQ(engine.eddy().emitted(), 2u);
  EXPECT_EQ(engine.eddy().next_seq(), 4);
}

TEST(CacqRouteTest, AJoinMovesTheStreamToTheEddy) {
  ScopedTracing off(0);
  CacqEngine engine;
  ASSERT_TRUE(engine.AddStream("A", KV()).ok());
  ASSERT_TRUE(engine.AddStream("B", KV()).ok());
  std::map<QueryId, std::multiset<std::string>> got;
  engine.SetSink(
      [&](QueryId q, const Tuple& t) { got[q].insert(t.ToString()); });
  CacqQuerySpec filter;  // A.v > 3, from the start.
  filter.sources = {"A"};
  filter.where = Expr::Binary(BinaryOp::kGt, Expr::Column("A.v"),
                              Expr::Literal(Value::Int64(3)));
  const QueryId qf = *engine.AddQuery(filter);

  std::map<QueryId, std::multiset<std::string>> want;
  std::vector<Tuple> a_after, b_after;  // Arrivals the join sees.
  auto feed = [&](int64_t from, bool joined) {
    std::vector<Tuple> as, bs;
    for (int64_t i = from; i < from + 10; ++i) {
      as.push_back(KVTuple(i % 4, i, i));
      bs.push_back(KVTuple(i % 3, 100 + i, i));
    }
    ASSERT_TRUE(engine.InjectBatch("A", as).ok());
    ASSERT_TRUE(engine.InjectBatch("B", bs).ok());
    for (const Tuple& a : as) {
      const Tuple wide = engine.layout().Widen(0, a);
      if (a.cell(1).int64_value() > 3) want[qf].insert(wide.ToString());
    }
    if (!joined) return;
    a_after.insert(a_after.end(), as.begin(), as.end());
    b_after.insert(b_after.end(), bs.begin(), bs.end());
  };
  feed(0, /*joined=*/false);
  EXPECT_EQ(engine.eddy().decisions(), 0u);  // Fixed route only.

  CacqQuerySpec join;
  join.sources = {"A", "B"};
  join.where =
      Expr::Binary(BinaryOp::kEq, Expr::Column("A.k"), Expr::Column("B.k"));
  const QueryId qj = *engine.AddQuery(join);
  feed(10, /*joined=*/true);
  feed(20, /*joined=*/true);
  EXPECT_GT(engine.eddy().decisions(), 0u);  // Both streams route now.
  // Every key-matching pair of arrivals after the join, exactly once.
  for (const Tuple& a : a_after) {
    for (const Tuple& b : b_after) {
      if (a.cell(0) != b.cell(0)) continue;
      want[qj].insert(engine.layout()
                          .MergeSparse(engine.layout().Widen(0, a),
                                       engine.layout().Widen(1, b))
                          .ToString());
    }
  }
  EXPECT_EQ(got[qf], want[qf]);
  EXPECT_EQ(got[qj], want[qj]);
  EXPECT_FALSE(got[qj].empty());
}

TEST(CacqRouteTest, RestoredStandbyStampsThePrimarysSeqs) {
  ScopedTracing off(0);
  auto build = [](CacqEngine& engine) {
    ASSERT_TRUE(engine.AddStream("Stocks", StockSchema()).ok());
    for (double p : {20.0, 50.0, 80.0}) {
      CacqQuerySpec spec;
      spec.sources = {"Stocks"};
      spec.where = PriceGt(p);
      ASSERT_TRUE(engine.AddQuery(spec).ok());
    }
  };
  CacqEngine primary;
  build(primary);
  RouteRun p_run;
  Collect(primary, &p_run);
  Rng rng(5);
  auto batch = [&](int64_t from) {
    std::vector<Tuple> out;
    for (int64_t i = from; i < from + 25; ++i) {
      out.push_back(
          Stock(i, "MSFT", static_cast<double>(rng.NextInt(0, 100))));
    }
    return out;
  };
  for (int64_t r = 0; r < 4; ++r) {
    ASSERT_TRUE(primary.InjectBatch("Stocks", batch(r * 25)).ok());
  }
  const EngineCheckpoint ckpt = primary.CheckpointState();
  EXPECT_EQ(ckpt.next_seq, 101);

  CacqEngine standby;
  build(standby);
  ASSERT_TRUE(standby.RestoreCheckpoint(ckpt).ok());
  RouteRun s_run;
  Collect(standby, &s_run);
  p_run.rows.clear();
  for (int64_t r = 4; r < 8; ++r) {
    const std::vector<Tuple> b = batch(r * 25);
    ASSERT_TRUE(primary.InjectBatch("Stocks", b).ok());
    ASSERT_TRUE(standby.InjectBatch("Stocks", b).ok());
  }
  ASSERT_FALSE(p_run.rows.empty());
  EXPECT_EQ(s_run.rows, p_run.rows);
  EXPECT_EQ(standby.eddy().next_seq(), primary.eddy().next_seq());
  EXPECT_GT(std::get<2>(p_run.rows.begin()->second.front()), 100);
}

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
