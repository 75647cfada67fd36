// E5 — CACQ shared processing (§3.1, [MSHR02]).
//
// Workload: N standing selection queries over one stock stream, with
// overlapping predicates (symbol equality over a small symbol pool plus a
// price range). Execution strategies:
//
//   shared      — one CacqEngine: a single Eddy, grouped filters indexing
//                 all N predicates, tuple lineage fan-out;
//   independent — N separate single-query Eddies, each evaluating its own
//                 predicate on every tuple (the query-per-plan baseline).
//
// Reported: wall time for a fixed stream as N grows (N = 1..256), plus
// deliveries (identical for both strategies — checked).
// Expected shape: independent cost grows ~linearly with N; shared grows
// sub-linearly (index probe + bitmap ops per tuple), with the gap widening
// to an order of magnitude by N in the hundreds — CACQ's headline result.
//
// BM_SharedJoin: N standing `A.k = B.k AND A.v > c_i` queries on one
// CacqEngine. All N share one SteM pair; lineage intersection at the probe
// decides which queries each pair reaches.

#include <benchmark/benchmark.h>

#include "cacq/engine.h"
#include "common/rng.h"
#include "eddy/operators.h"
#include "ingress/sources.h"

namespace tcq {
namespace {

constexpr int64_t kDays = 400;
constexpr size_t kSymbols = 16;

TupleVector MakeStream() {
  StockTickerSource::Options opts;
  opts.num_symbols = kSymbols;
  opts.num_days = kDays;
  opts.seed = 2003;
  StockTickerSource src(opts);
  TupleVector out;
  while (auto t = src.Next()) out.push_back(std::move(*t));
  return out;
}

/// Query i: stockSymbol = S_i AND closingPrice > c_i (overlapping pool).
ExprPtr QueryPredicate(size_t i, Rng* rng) {
  ExprPtr sym = Expr::Binary(
      BinaryOp::kEq, Expr::Column("stockSymbol"),
      Expr::Literal(
          Value::String(StockTickerSource::SymbolName(i % kSymbols))));
  ExprPtr price = Expr::Binary(
      BinaryOp::kGt, Expr::Column("closingPrice"),
      Expr::Literal(Value::Double(30.0 + static_cast<double>(
                                             rng->NextBounded(40)))));
  return Expr::Binary(BinaryOp::kAnd, sym, price);
}

void BM_SharedCacq(benchmark::State& state) {
  const size_t num_queries = static_cast<size_t>(state.range(0));
  const TupleVector stream = MakeStream();
  uint64_t deliveries = 0;
  for (auto _ : state) {
    Rng rng(7);
    CacqEngine engine;
    benchmark::DoNotOptimize(
        engine.AddStream("Stocks", StockTickerSource::MakeSchema()));
    engine.SetSink([&](QueryId, const Tuple&) { ++deliveries; });
    for (size_t i = 0; i < num_queries; ++i) {
      CacqQuerySpec spec;
      spec.sources = {"Stocks"};
      spec.where = QueryPredicate(i, &rng);
      benchmark::DoNotOptimize(engine.AddQuery(spec));
    }
    for (const Tuple& t : stream) {
      benchmark::DoNotOptimize(engine.Inject("Stocks", t));
    }
  }
  state.counters["deliveries"] = static_cast<double>(deliveries) /
                                 static_cast<double>(state.iterations());
  state.counters["tuples_per_sec"] = benchmark::Counter(
      static_cast<double>(stream.size()) *
          static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SharedCacq)
    ->Arg(1)
    ->Arg(4)
    ->Arg(16)
    ->Arg(64)
    ->Arg(256)
    ->Unit(benchmark::kMillisecond);

void BM_IndependentQueries(benchmark::State& state) {
  const size_t num_queries = static_cast<size_t>(state.range(0));
  const TupleVector stream = MakeStream();
  uint64_t deliveries = 0;
  for (auto _ : state) {
    Rng rng(7);
    // One Eddy per query, each with a single FilterOp.
    SchemaPtr schema = StockTickerSource::MakeSchema();
    std::vector<std::unique_ptr<SourceLayout>> layouts;
    std::vector<std::unique_ptr<Eddy>> eddies;
    for (size_t i = 0; i < num_queries; ++i) {
      auto layout = std::make_unique<SourceLayout>();
      const size_t s = layout->AddSource("Stocks", schema);
      auto eddy = std::make_unique<Eddy>(
          layout.get(), std::make_unique<LotteryPolicy>(7));
      auto bound = QueryPredicate(i, &rng)->Bind(*layout->full_schema());
      SmallBitset req(1);
      req.Set(s);
      eddy->AddOperator(
          std::make_shared<FilterOp>("pred", *bound, req));
      eddy->SetSink([&](RoutedTuple&&) { ++deliveries; });
      layouts.push_back(std::move(layout));
      eddies.push_back(std::move(eddy));
    }
    for (const Tuple& t : stream) {
      for (auto& eddy : eddies) {
        eddy->Inject(0, t);
        eddy->Drain();
      }
    }
  }
  state.counters["deliveries"] = static_cast<double>(deliveries) /
                                 static_cast<double>(state.iterations());
  state.counters["tuples_per_sec"] = benchmark::Counter(
      static_cast<double>(stream.size()) *
          static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_IndependentQueries)
    ->Arg(1)
    ->Arg(4)
    ->Arg(16)
    ->Arg(64)
    ->Arg(256)
    ->Unit(benchmark::kMillisecond);

constexpr int64_t kJoinTuples = 20000;  // Per stream.
constexpr int64_t kJoinKeys = 1000;
constexpr int64_t kJoinWindow = 2000;   // Timestamps of join state kept.
constexpr size_t kJoinBatch = 64;

/// Stream rows (k, v) at timestamps 0, 2, 4, ... (A) or 1, 3, 5, ... (B).
std::vector<TupleVector> MakeJoinBatches(uint64_t seed, int64_t ts0) {
  Rng rng(seed);
  std::vector<TupleVector> batches;
  for (int64_t i = 0; i < kJoinTuples; ++i) {
    if (static_cast<size_t>(i) % kJoinBatch == 0) batches.emplace_back();
    batches.back().push_back(Tuple::Make(
        {Value::Int64(static_cast<int64_t>(rng.NextBounded(kJoinKeys))),
         Value::Int64(static_cast<int64_t>(rng.NextBounded(100)))},
        ts0 + 2 * i));
  }
  return batches;
}

void BM_SharedJoin(benchmark::State& state) {
  const size_t num_queries = static_cast<size_t>(state.range(0));
  const std::vector<TupleVector> a = MakeJoinBatches(11, 0);
  const std::vector<TupleVector> b = MakeJoinBatches(12, 1);
  SchemaPtr kv = Schema::Make(
      {{"k", ValueType::kInt64, ""}, {"v", ValueType::kInt64, ""}});
  uint64_t deliveries = 0;
  for (auto _ : state) {
    CacqEngine engine;
    benchmark::DoNotOptimize(engine.AddStream("A", kv));
    benchmark::DoNotOptimize(engine.AddStream("B", kv));
    engine.SetSink([&](QueryId, const Tuple&) { ++deliveries; });
    for (size_t i = 0; i < num_queries; ++i) {
      CacqQuerySpec spec;
      spec.sources = {"A", "B"};
      spec.where = Expr::Binary(
          BinaryOp::kAnd,
          Expr::Binary(BinaryOp::kEq, Expr::Column("A.k"),
                       Expr::Column("B.k")),
          Expr::Binary(BinaryOp::kGt, Expr::Column("A.v"),
                       Expr::Literal(Value::Int64(
                           static_cast<int64_t>(i * 7 % 90)))));
      benchmark::DoNotOptimize(engine.AddQuery(spec));
    }
    for (size_t i = 0; i < a.size(); ++i) {
      benchmark::DoNotOptimize(engine.InjectBatch("A", a[i]));
      benchmark::DoNotOptimize(engine.InjectBatch("B", b[i]));
      engine.EvictBefore(b[i].back().timestamp() - kJoinWindow);
    }
  }
  state.counters["deliveries"] = static_cast<double>(deliveries) /
                                 static_cast<double>(state.iterations());
  state.counters["tuples_per_sec"] = benchmark::Counter(
      static_cast<double>(2 * kJoinTuples) *
          static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SharedJoin)
    ->Arg(1)
    ->Arg(8)
    ->Arg(32)
    ->Unit(benchmark::kMillisecond);

// Query churn: fold-in/remove latency on a live shared engine (§4.2.2's
// dynamic query add/remove without stalling the dataflow).
void BM_SharedQueryChurn(benchmark::State& state) {
  const TupleVector stream = MakeStream();
  Rng rng(7);
  CacqEngine engine;
  benchmark::DoNotOptimize(
      engine.AddStream("Stocks", StockTickerSource::MakeSchema()));
  engine.SetSink([](QueryId, const Tuple&) {});
  // Warm engine with 64 standing queries and some data.
  std::vector<QueryId> ids;
  for (size_t i = 0; i < 64; ++i) {
    CacqQuerySpec spec;
    spec.sources = {"Stocks"};
    spec.where = QueryPredicate(i, &rng);
    ids.push_back(*engine.AddQuery(spec));
  }
  size_t pos = 0;
  for (auto _ : state) {
    CacqQuerySpec spec;
    spec.sources = {"Stocks"};
    spec.where = QueryPredicate(pos, &rng);
    QueryId q = *engine.AddQuery(spec);
    benchmark::DoNotOptimize(engine.Inject("Stocks", stream[pos]));
    benchmark::DoNotOptimize(engine.RemoveQuery(q));
    pos = (pos + 1) % stream.size();
  }
}
BENCHMARK(BM_SharedQueryChurn)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace tcq
