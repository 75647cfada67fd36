// E6 — Grouped filter vs. per-query predicate evaluation (§3.1).
//
// Workload: N single-column boolean factors over one attribute (a mix of
// equality over a 64-value pool and range bounds). For each probe value:
//
//   grouped — one GroupedFilter::Apply (one search, one hash lookup and
//             one word loop over the query bits);
//   naive   — evaluate each of the N predicates individually.
//
// Reported: time per probe as N grows. Expected shape: naive is O(N) per
// tuple; grouped is O(log N + N/64) — the curves cross immediately and
// diverge by orders of magnitude at N in the thousands. This is the
// index the paper's Query SteM generalizes.
//
// BM_QueryIndexFanout is the repository benchmark's filters_fanout shape
// through the QueryIndex that holds both of its grouped columns: a STRING
// `=` over 16 symbols plus INT64 ranges on price, one trade per probe.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "modules/grouped_filter.h"
#include "modules/query_index.h"

namespace tcq {
namespace {

struct Pred {
  BinaryOp op;
  int64_t constant;
};

std::vector<Pred> MakePredicates(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Pred> preds;
  preds.reserve(n);
  const BinaryOp ops[] = {BinaryOp::kEq, BinaryOp::kEq, BinaryOp::kEq,
                          BinaryOp::kGt, BinaryOp::kLt};
  for (size_t i = 0; i < n; ++i) {
    preds.push_back(
        {ops[rng.NextBounded(5)], rng.NextInt(0, 63)});
  }
  return preds;
}

void BM_GroupedFilterProbe(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto preds = MakePredicates(n, 5);
  GroupedFilter gf(ValueType::kInt64);
  for (size_t i = 0; i < n; ++i) {
    gf.AddPredicate(static_cast<QueryId>(i), preds[i].op,
                    Value::Int64(preds[i].constant));
  }
  Rng rng(9);
  SmallBitset candidates(n);
  uint64_t matches = 0;
  for (auto _ : state) {
    candidates.SetAll();
    gf.Apply(Value::Int64(rng.NextInt(0, 63)), &candidates);
    matches += candidates.Count();
    benchmark::DoNotOptimize(candidates);
  }
  state.counters["avg_matches"] = static_cast<double>(matches) /
                                  static_cast<double>(state.iterations());
  state.counters["probes_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GroupedFilterProbe)
    ->Arg(16)
    ->Arg(64)
    ->Arg(256)
    ->Arg(1024)
    ->Arg(4096)
    ->Unit(benchmark::kNanosecond);

void BM_NaivePredicateScan(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto preds = MakePredicates(n, 5);
  Rng rng(9);
  SmallBitset candidates(n);
  uint64_t matches = 0;
  for (auto _ : state) {
    const int64_t v = rng.NextInt(0, 63);
    candidates.SetAll();
    for (size_t i = 0; i < n; ++i) {
      bool pass = false;
      switch (preds[i].op) {
        case BinaryOp::kEq:
          pass = v == preds[i].constant;
          break;
        case BinaryOp::kGt:
          pass = v > preds[i].constant;
          break;
        default:
          pass = v < preds[i].constant;
          break;
      }
      if (!pass) candidates.Clear(i);
    }
    matches += candidates.Count();
    benchmark::DoNotOptimize(candidates);
  }
  state.counters["avg_matches"] = static_cast<double>(matches) /
                                  static_cast<double>(state.iterations());
  state.counters["probes_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_NaivePredicateScan)
    ->Arg(16)
    ->Arg(64)
    ->Arg(256)
    ->Arg(1024)
    ->Arg(4096)
    ->Unit(benchmark::kNanosecond);

// Equality-only workload: the grouped filter's best case (pure hash).
void BM_GroupedFilterEqualityOnly(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  GroupedFilter gf(ValueType::kInt64);
  Rng rng(5);
  for (size_t i = 0; i < n; ++i) {
    gf.AddPredicate(static_cast<QueryId>(i), BinaryOp::kEq,
                    Value::Int64(rng.NextInt(0, 1023)));
  }
  Rng probe_rng(9);
  SmallBitset candidates(n);
  for (auto _ : state) {
    candidates.SetAll();
    gf.Apply(Value::Int64(probe_rng.NextInt(0, 1023)), &candidates);
    benchmark::DoNotOptimize(candidates);
  }
}
BENCHMARK(BM_GroupedFilterEqualityOnly)
    ->Arg(256)
    ->Arg(4096)
    ->Unit(benchmark::kNanosecond);

std::string Symbol(size_t s) { return "K" + std::to_string(s); }

FactorPlan Grouped(size_t column, BinaryOp op, Value constant) {
  FactorPlan f;
  f.kind = FactorPlan::Kind::kGrouped;
  f.column = column;
  f.op = op;
  f.constant = std::move(constant);
  return f;
}

// Trades(ts, sym, price, id). Per symbol, as filters_fanout registers
// them: six `price >` bounds stratified over [8, 92), one equality-only
// query and one two-sided range 41 wide; queries cycle through 16
// symbols, and prices are uniform in [0, 100).
void BM_QueryIndexFanout(benchmark::State& state) {
  constexpr size_t kSymbols = 16;
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(5);
  QueryIndex index;
  for (size_t q = 0; q < n; ++q) {
    std::vector<FactorPlan> factors;
    factors.push_back(
        Grouped(1, BinaryOp::kEq, Value::String(Symbol(q % kSymbols))));
    const int64_t k = static_cast<int64_t>((q / kSymbols) % 8);
    if (k < 6) {
      factors.push_back(Grouped(
          2, BinaryOp::kGt,
          Value::Int64(8 + 14 * k + static_cast<int64_t>(rng.NextBounded(14)))));
    } else if (k == 7) {
      const int64_t lo = 15 + static_cast<int64_t>(rng.NextBounded(30));
      factors.push_back(Grouped(2, BinaryOp::kGt, Value::Int64(lo)));
      factors.push_back(Grouped(2, BinaryOp::kLt, Value::Int64(lo + 41)));
    }
    index.Add(q, factors);
  }
  std::vector<Tuple> trades;
  for (int64_t i = 0; i < 1024; ++i) {
    trades.push_back(Tuple::Make(
        {Value::Int64(i), Value::String(Symbol(rng.NextBounded(kSymbols))),
         Value::Int64(rng.NextInt(0, 99)), Value::Int64(i)},
        i));
  }
  SmallBitset candidates(n);
  uint64_t matches = 0;
  size_t next = 0;
  for (auto _ : state) {
    candidates.SetAll();
    index.Narrow(trades[next++ % trades.size()], &candidates);
    matches += candidates.Count();
    benchmark::DoNotOptimize(candidates);
  }
  state.counters["avg_matches"] = static_cast<double>(matches) /
                                  static_cast<double>(state.iterations());
}
BENCHMARK(BM_QueryIndexFanout)
    ->Arg(128)
    ->Arg(10000)
    ->Unit(benchmark::kNanosecond);

}  // namespace
}  // namespace tcq
