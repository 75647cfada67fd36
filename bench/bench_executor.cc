// E10 — Shared executor behaviour (§4.2.2): scaling with concurrent
// queries of mixed footprints, and dynamic query fold-in on a live system.
//
// Experiments:
//
//  1. push_throughput — ingest rate of the server as the number of
//     concurrent queries grows, for two populations:
//       filters  — standing CACQ filters (shared eddy; sub-linear cost),
//       windowed — sliding-window aggregates (per-query runners; linear).
//
//  2. submit_latency — time to parse/analyze/fold in a new query while
//     data flows (the paper's dynamic query addition — no stalls).
//
//  3. sharded_push — the filters workload with the CACQ engine sharded
//     across N worker threads behind the Flux exchange
//     (Server::Options::cacq_shards), swept over 1/2/4/8 shards.
//
//  4. sharded_skewed — zipfian partition keys against 4 shards, with the
//     online rebalance controller off (Arg 0) vs on (Arg 1): Flux §2.4's
//     claim that moving hot buckets recovers throughput a static hash
//     mapping loses to skew (DESIGN.md §12).
//
//  5. sharded_failover — the process-pair HA tax and recovery speed
//     (DESIGN.md §13): replication off (Arg 0) vs changelog+checkpoints
//     on (Arg 1) vs on with kill/promote cycles mid-run (Arg 2) vs on
//     under query churn (Arg 3).
//
//  6. standby_add_query — one AddQuery + RemoveQuery pair on a 2-shard
//     engine with standbys over 50k join tuples per stream (E21).

#include <benchmark/benchmark.h>

#include <chrono>
#include <deque>
#include <thread>

#include "cacq/sharded_engine.h"
#include "common/rng.h"
#include "core/server.h"
#include "ingress/sources.h"
#include "telemetry/metrics.h"

namespace tcq {
namespace {

Tuple Stock(int64_t day, const std::string& sym, double price) {
  return Tuple::Make(
      {Value::Int64(day), Value::String(sym), Value::Double(price)}, day);
}

/// Snapshots one registry counter so a benchmark can report the delta it
/// caused — routing telemetry rides along in BENCH_<sha>.json baselines.
class CounterDelta {
 public:
  explicit CounterDelta(const char* name)
#ifndef TCQ_METRICS_DISABLED
      : counter_(MetricRegistry::Global().GetCounter(name)),
        start_(counter_->value())
#endif
  {
    (void)name;
  }
  double value() const {
#ifndef TCQ_METRICS_DISABLED
    return static_cast<double>(counter_->value() - start_);
#else
    return 0.0;
#endif
  }

 private:
#ifndef TCQ_METRICS_DISABLED
  Counter* counter_;
  uint64_t start_;
#endif
};

void BM_PushThroughputFilters(benchmark::State& state) {
  const size_t num_queries = static_cast<size_t>(state.range(0));
  Server server;
  benchmark::DoNotOptimize(server.DefineStream(
      "ClosingStockPrices", StockTickerSource::MakeSchema(), 0));
  for (size_t i = 0; i < num_queries; ++i) {
    auto q = server.Submit(
        "SELECT closingPrice FROM ClosingStockPrices WHERE stockSymbol = '" +
        StockTickerSource::SymbolName(i % 16) + "' AND closingPrice > " +
        std::to_string(30 + (i % 40)));
    benchmark::DoNotOptimize(q);
    // Drop results as they appear so memory stays flat.
    benchmark::DoNotOptimize(
        server.SetCallback(*q, [](const ResultSet&) {}));
  }
  // Ingest through the batch fast path: one lock acquisition, one shared
  // eddy drain and one windowed advance per kIngestBatch tuples.
  constexpr size_t kIngestBatch = 64;
  int64_t day = 1;
  size_t sym = 0;
  std::vector<Tuple> batch;
  CounterDelta decisions("tcq.eddy.decisions");
  CounterDelta cache_hits("tcq.eddy.cache_hits");
  while (state.KeepRunningBatch(kIngestBatch)) {
    batch.reserve(kIngestBatch);
    for (size_t i = 0; i < kIngestBatch; ++i) {
      batch.push_back(Stock(day, StockTickerSource::SymbolName(sym), 50.0));
      if (++sym == 16) {
        sym = 0;
        ++day;
      }
    }
    benchmark::DoNotOptimize(
        server.PushBatch("ClosingStockPrices", std::move(batch)));
    batch.clear();
  }
  state.counters["tuples_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
  // Batch-amortized routing: decisions-per-tuple well below 1 is the
  // decision cache working (tcq.* registry deltas over the timed region).
  state.counters["eddy_decisions_per_tuple"] =
      decisions.value() / static_cast<double>(state.iterations());
  state.counters["eddy_cache_hits_per_tuple"] =
      cache_hits.value() / static_cast<double>(state.iterations());
}
BENCHMARK(BM_PushThroughputFilters)
    ->Arg(1)
    ->Arg(8)
    ->Arg(64)
    ->Arg(256)
    ->Unit(benchmark::kMicrosecond);

void BM_PushThroughputWindowed(benchmark::State& state) {
  const size_t num_queries = static_cast<size_t>(state.range(0));
  Server server;
  benchmark::DoNotOptimize(server.DefineStream(
      "ClosingStockPrices", StockTickerSource::MakeSchema(), 0));
  for (size_t i = 0; i < num_queries; ++i) {
    auto q = server.Submit(
        "SELECT AVG(closingPrice) FROM ClosingStockPrices "
        "WHERE stockSymbol = '" +
        StockTickerSource::SymbolName(i % 16) +
        "' for (t = ST; true; t += 10) { "
        "WindowIs(ClosingStockPrices, t - 9, t); }");
    benchmark::DoNotOptimize(q);
    benchmark::DoNotOptimize(
        server.SetCallback(*q, [](const ResultSet&) {}));
  }
  constexpr size_t kIngestBatch = 64;
  int64_t day = 1;
  size_t sym = 0;
  std::vector<Tuple> batch;
  while (state.KeepRunningBatch(kIngestBatch)) {
    batch.reserve(kIngestBatch);
    for (size_t i = 0; i < kIngestBatch; ++i) {
      batch.push_back(Stock(day, StockTickerSource::SymbolName(sym), 50.0));
      if (++sym == 16) {
        sym = 0;
        ++day;
      }
    }
    benchmark::DoNotOptimize(
        server.PushBatch("ClosingStockPrices", std::move(batch)));
    batch.clear();
  }
  state.counters["tuples_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_PushThroughputWindowed)
    ->Arg(1)
    ->Arg(8)
    ->Arg(64)
    ->Unit(benchmark::kMicrosecond);

// Sharded ingest sweep. Arg(1) is the inline single-threaded
// configuration (what cacq_shards=1 runs today: the whole eddy executes
// on the pushing thread); Arg(2..8) hash-partition on stockSymbol into
// per-shard engines on their own threads. tuples_per_sec keeps the repo
// convention (a rate counter: iterations per CPU-second of the pushing
// thread), which prices exactly what sharding offloads — with shards the
// producer pays hash+scatter instead of eddy execution, and blocking on
// exchange backpressure burns no CPU. The real_time column shows the
// end-to-end drain rate and only beats Arg(1) when the host actually has
// spare cores; the bounded exchange keeps the producer from outrunning
// the shards indefinitely either way.
void BM_ShardedPushThroughput(benchmark::State& state) {
  Server::Options opts;
  opts.cacq_shards = static_cast<size_t>(state.range(0));
  Server server(opts);
  // timestamp_field=0, so the partition column defaults to stockSymbol.
  benchmark::DoNotOptimize(server.DefineStream(
      "ClosingStockPrices", StockTickerSource::MakeSchema(), 0));
  constexpr size_t kQueries = 64;
  for (size_t i = 0; i < kQueries; ++i) {
    auto q = server.Submit(
        "SELECT closingPrice FROM ClosingStockPrices WHERE stockSymbol = '" +
        StockTickerSource::SymbolName(i % 16) + "' AND closingPrice > " +
        std::to_string(30 + (i % 40)));
    benchmark::DoNotOptimize(q);
    benchmark::DoNotOptimize(
        server.SetCallback(*q, [](const ResultSet&) {}));
  }
  constexpr size_t kIngestBatch = 64;
  int64_t day = 1;
  size_t sym = 0;
  std::vector<Tuple> batch;
  CounterDelta decisions("tcq.eddy.decisions");
  while (state.KeepRunningBatch(kIngestBatch)) {
    batch.reserve(kIngestBatch);
    for (size_t i = 0; i < kIngestBatch; ++i) {
      batch.push_back(Stock(day, StockTickerSource::SymbolName(sym), 50.0));
      if (++sym == 16) {
        sym = 0;
        ++day;
      }
    }
    benchmark::DoNotOptimize(
        server.PushBatch("ClosingStockPrices", std::move(batch)));
    batch.clear();
  }
  // Outside the timed region: drain in-flight shard work so every pushed
  // tuple was genuinely executed, not parked in an exchange queue.
  server.Quiesce();
  state.counters["tuples_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
  state.counters["eddy_decisions_per_tuple"] =
      decisions.value() / static_cast<double>(state.iterations());
}
BENCHMARK(BM_ShardedPushThroughput)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMicrosecond);

// Skewed sharded ingest: zipfian partition keys (s=1.2 over 512 keys)
// pile most tuples onto a handful of hash buckets, so a static
// round-robin bucket->shard mapping leaves one shard the bottleneck
// while the others idle. Arg(0) runs that static mapping; Arg(1) turns
// on the RebalanceController, which migrates hot buckets off the loaded
// shard mid-run. tuples_per_sec keeps the repo convention (producer CPU
// rate); the end-to-end effect shows in wall_tuples_per_sec, measured by
// hand around the full run *including* the final drain, so it prices
// every pushed tuple's execution — the number rebalancing improves.
void BM_ShardedSkewedThroughput(benchmark::State& state) {
  Server::Options opts;
  opts.cacq_shards = 4;
  opts.auto_rebalance = state.range(0) == 1;
  opts.rebalance.poll_interval_ms = 1;
  opts.rebalance.imbalance_threshold = 1.5;
  opts.rebalance.min_backlog = 64;
  Server server(opts);
  benchmark::DoNotOptimize(server.DefineStream(
      "S",
      Schema::Make(
          {{"k", ValueType::kInt64, ""}, {"v", ValueType::kInt64, ""}}),
      /*timestamp_field=*/-1, /*partition_field=*/0));
  constexpr size_t kQueries = 48;
  for (size_t i = 0; i < kQueries; ++i) {
    auto q = server.Submit("SELECT k FROM S WHERE v = " + std::to_string(i));
    benchmark::DoNotOptimize(q);
    benchmark::DoNotOptimize(server.SetCallback(*q, [](const ResultSet&) {}));
  }
  constexpr size_t kIngestBatch = 64;
  Rng rng(1234);
  std::vector<Tuple> batch;
  CounterDelta migrations("tcq.rebalance.migrations");
  const auto wall_start = std::chrono::steady_clock::now();
  while (state.KeepRunningBatch(kIngestBatch)) {
    batch.reserve(kIngestBatch);
    for (size_t i = 0; i < kIngestBatch; ++i) {
      batch.push_back(Tuple::Make(
          {Value::Int64(static_cast<int64_t>(rng.NextZipf(512, 1.2))),
           Value::Int64(static_cast<int64_t>(rng.NextBounded(1 << 20)))},
          0));
    }
    benchmark::DoNotOptimize(server.PushBatch("S", std::move(batch)));
    batch.clear();
  }
  server.Quiesce();  // Inside the wall clock: count real execution.
  const double wall_secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  state.counters["tuples_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
  state.counters["wall_tuples_per_sec"] =
      static_cast<double>(state.iterations()) / wall_secs;
  state.counters["migrations"] = migrations.value();
}
BENCHMARK(BM_ShardedSkewedThroughput)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMicrosecond);

// Process-pair HA: what replication costs when nothing fails, and what a
// failure costs when it does. Arg(0) is the bare 4-shard exchange,
// Arg(1) adds the standby path (every batch tees into the changelog;
// cadence checkpoints copy SteM state), Arg(2) additionally kills and
// promotes a rotating shard every 256 batches, Arg(3) is Arg(1) under
// query churn: every 16 batches the oldest filter leaves and a new one
// joins (churn_us_mean is one remove-plus-add pair on the caller's thread;
// the shards apply both at their place in the queue). Uses the ShardedEngine
// directly — kill/promote is not a Server API. tuples_per_sec keeps the
// producer-rate convention; wall_tuples_per_sec includes the final drain
// and (for Arg 2) every recovery stall; recovery_ms_mean is the
// kill-to-promoted latency of one cycle.
void BM_ShardedFailover(benchmark::State& state) {
  const int mode = static_cast<int>(state.range(0));
  ShardedEngine::Options opts;
  opts.num_shards = 4;
  opts.num_replicas = mode == 0 ? 0 : 1;
  ShardedEngine engine(opts);
  benchmark::DoNotOptimize(engine.AddStream(
      "S",
      Schema::Make(
          {{"k", ValueType::kInt64, ""}, {"v", ValueType::kInt64, ""}}),
      /*partition_column=*/0));
  engine.SetSink([](std::vector<ShardedEngine::Emission>&& batch) {
    benchmark::DoNotOptimize(batch.size());
  });
  engine.Start();
  constexpr size_t kQueries = 48;
  std::deque<QueryId> live;
  auto add_filter = [&](size_t i) {
    CacqQuerySpec spec;
    spec.sources = {"S"};
    spec.where = Expr::Binary(BinaryOp::kEq, Expr::Column("v"),
                              Expr::Literal(Value::Int64(static_cast<int64_t>(i))));
    auto q = engine.AddQuery(spec);
    if (q.ok()) live.push_back(*q);
  };
  for (size_t i = 0; i < kQueries; ++i) add_filter(i);
  constexpr size_t kIngestBatch = 64;
  constexpr size_t kKillEvery = 256;  // Batches between kill/promote cycles.
  constexpr size_t kChurnEvery = 16;  // Batches between churn pairs.
  Rng rng(1234);
  std::vector<Tuple> batch;
  size_t batches = 0;
  size_t failovers = 0;
  double recovery_secs = 0;
  size_t churns = 0;
  double churn_secs = 0;
  const auto wall_start = std::chrono::steady_clock::now();
  while (state.KeepRunningBatch(kIngestBatch)) {
    batch.reserve(kIngestBatch);
    for (size_t i = 0; i < kIngestBatch; ++i) {
      batch.push_back(Tuple::Make(
          {Value::Int64(static_cast<int64_t>(rng.NextBounded(512))),
           Value::Int64(static_cast<int64_t>(rng.NextBounded(1 << 20)))},
          0));
    }
    benchmark::DoNotOptimize(engine.PushBatch("S", std::move(batch)));
    batch.clear();
    ++batches;
    if (mode == 3 && batches % kChurnEvery == 0) {
      const auto t0 = std::chrono::steady_clock::now();
      benchmark::DoNotOptimize(engine.RemoveQuery(live.front()));
      live.pop_front();
      add_filter(kQueries + churns++);
      churn_secs +=
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
    }
    if (mode == 2 && batches % kKillEvery == 0) {
      const size_t victim = failovers % opts.num_shards;
      const auto t0 = std::chrono::steady_clock::now();
      benchmark::DoNotOptimize(engine.KillShard(victim));
      while (engine.shard_alive(victim)) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
      benchmark::DoNotOptimize(engine.FailoverShard(victim));
      recovery_secs +=
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
      ++failovers;
    }
  }
  benchmark::DoNotOptimize(engine.Quiesce());  // Inside the wall clock.
  const double wall_secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  engine.Stop();
  state.counters["tuples_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
  state.counters["wall_tuples_per_sec"] =
      static_cast<double>(state.iterations()) / wall_secs;
  state.counters["failovers"] = static_cast<double>(failovers);
  state.counters["recovery_ms_mean"] =
      failovers == 0 ? 0.0
                     : 1e3 * recovery_secs / static_cast<double>(failovers);
  state.counters["churn_us_mean"] =
      churns == 0 ? 0.0 : 1e6 * churn_secs / static_cast<double>(churns);
}
BENCHMARK(BM_ShardedFailover)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Arg(3)
    ->Unit(benchmark::kMicrosecond);

// A registration on a sharded engine with standbys, over large join
// state: 2 shards with one standby each, 50k tuples per stream stored in
// the SteMs of a standing join, then one AddQuery + RemoveQuery of a
// second join per iteration. pair_ms is wall time per pair up to a final
// Quiesce, so it includes the shards applying every pair (the lineage
// scrub of each removal), not only the calls.
void BM_StandbyAddQuery(benchmark::State& state) {
  ShardedEngine::Options opts;
  opts.num_shards = 2;
  opts.num_replicas = 1;
  ShardedEngine engine(opts);
  const SchemaPtr schema = Schema::Make(
      {{"k", ValueType::kInt64, ""}, {"v", ValueType::kInt64, ""}});
  benchmark::DoNotOptimize(engine.AddStream("A", schema, 0));
  benchmark::DoNotOptimize(engine.AddStream("B", schema, 0));
  engine.SetSink([](std::vector<ShardedEngine::Emission>&& batch) {
    benchmark::DoNotOptimize(batch.size());
  });
  engine.Start();
  CacqQuerySpec join;
  join.sources = {"A", "B"};
  join.where = Expr::Binary(BinaryOp::kEq, Expr::Column("A.k"),
                            Expr::Column("B.k"));
  benchmark::DoNotOptimize(engine.AddQuery(join));
  constexpr int64_t kTuplesPerStream = 50000;
  constexpr int64_t kBatch = 1000;
  for (const char* stream : {"A", "B"}) {
    for (int64_t base = 0; base < kTuplesPerStream; base += kBatch) {
      std::vector<Tuple> batch;
      batch.reserve(kBatch);
      for (int64_t i = base; i < base + kBatch; ++i) {
        batch.push_back(Tuple::Make({Value::Int64(i), Value::Int64(i)}, i + 1));
      }
      benchmark::DoNotOptimize(engine.PushBatch(stream, std::move(batch)));
    }
  }
  benchmark::DoNotOptimize(engine.Quiesce());
  const auto wall_start = std::chrono::steady_clock::now();
  for (auto _ : state) {
    auto q = engine.AddQuery(join);
    benchmark::DoNotOptimize(engine.RemoveQuery(*q));
  }
  benchmark::DoNotOptimize(engine.Quiesce());  // Inside the wall clock.
  const double wall_secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  engine.Stop();
  state.counters["pair_ms"] =
      1e3 * wall_secs / static_cast<double>(state.iterations());
}
BENCHMARK(BM_StandbyAddQuery)->Unit(benchmark::kMillisecond);

void BM_SubmitAndCancelLatency(benchmark::State& state) {
  Server server;
  benchmark::DoNotOptimize(server.DefineStream(
      "ClosingStockPrices", StockTickerSource::MakeSchema(), 0));
  // A live background population.
  for (int i = 0; i < 64; ++i) {
    auto q = server.Submit(
        "SELECT closingPrice FROM ClosingStockPrices WHERE closingPrice > " +
        std::to_string(i));
    benchmark::DoNotOptimize(
        server.SetCallback(*q, [](const ResultSet&) {}));
  }
  int64_t day = 1;
  for (auto _ : state) {
    auto q = server.Submit(
        "SELECT closingPrice, timestamp FROM ClosingStockPrices "
        "WHERE stockSymbol = 'MSFT' AND closingPrice > 42");
    benchmark::DoNotOptimize(
        server.Push("ClosingStockPrices", Stock(day++, "MSFT", 50.0)));
    benchmark::DoNotOptimize(server.Cancel(*q));
  }
  state.counters["submit_push_cancel_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SubmitAndCancelLatency)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace tcq
