// E8 — Window semantics and their state/recompute costs (§4.1).
//
// Experiments on the ClosingStockPrices stream, end to end through the
// Server (its standing window plan, DESIGN.md §17):
//
//  1. landmark_max vs sliding_max — §4.1.2's observation made concrete:
//     a landmark MAX keeps one running state fed once from its left end;
//     a sliding MAX keeps the panes its windows cover and merges them.
//     Reported: archive reads and panes built per input tuple.
//
//  2. sliding_sum_double — a double SUM depends on its accumulation
//     order, so its windows cannot merge panes: each is scanned whole
//     when it fires, and the reads per tuple grow with width / hop.
//
//  3. hop_size sweep — end-to-end cost of the paper's sliding AVG
//     (example 3) as the hop grows: larger hops execute fewer windows
//     over the same stream (and when hop > width, skip data entirely).
//
//  4. reverse_over_history, snapshot_over_history — §4.1.1's windows
//     that browse history backwards, and the snapshot idiom, Submitted
//     over 40,001 archived days. Neither loop is linear, so each runs on
//     its own QueryRunner, which reads every window in place.

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "core/server.h"
#include "ingress/sources.h"

namespace tcq {
namespace {

Tuple Stock(int64_t day, double price) {
  return Tuple::Make(
      {Value::Int64(day), Value::String("MSFT"), Value::Double(price)}, day);
}

/// One field of SnapshotMetrics' "windows" object.
double WindowsField(const Server& server, const std::string& field) {
  const std::string snap = server.SnapshotMetrics();
  const size_t at = snap.find("\"" + field + "\":", snap.find("\"windows\":{"));
  if (at == std::string::npos) std::abort();
  return std::strtod(snap.c_str() + at + field.size() + 3, nullptr);
}

constexpr int64_t kDays = 20000;

/// Feeds kDays days, 100 per batch, through one windowed query with
/// `select` over `window` (a WindowIs clause over t, firing every 100
/// days), and reports archive reads and panes per input tuple.
void RunWindowQuery(benchmark::State& state, const std::string& select,
                    const std::string& window) {
  double reads = 0, panes = 0;
  for (auto _ : state) {
    Server server;
    if (!server
             .DefineStream("ClosingStockPrices",
                           StockTickerSource::MakeSchema(), 0)
             .ok()) {
      std::abort();
    }
    auto q = server.Submit("SELECT " + select +
                           " FROM ClosingStockPrices "
                           "for (t = 100; true; t += 100) { " +
                           window + " }");
    if (!q.ok()) std::abort();
    benchmark::DoNotOptimize(server.SetCallback(*q, [](const ResultSet&) {}));
    std::vector<Tuple> batch;
    for (int64_t d = 1; d <= kDays; ++d) {
      batch.push_back(Stock(d, 50.0 + static_cast<double>(d % 100)));
      if (batch.size() == 100) {
        benchmark::DoNotOptimize(
            server.PushBatch("ClosingStockPrices", std::move(batch)));
        batch.clear();
      }
    }
    reads = WindowsField(server, "scanned");
    panes = WindowsField(server, "panes");
  }
  state.counters["reads_per_tuple"] = reads / kDays;
  state.counters["panes_per_tuple"] = panes / kDays;
  state.counters["tuples_per_sec"] = benchmark::Counter(
      static_cast<double>(kDays) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}

void BM_LandmarkMax(benchmark::State& state) {
  RunWindowQuery(state, "MAX(closingPrice)",
                 "WindowIs(ClosingStockPrices, 1, t);");
}
BENCHMARK(BM_LandmarkMax)->Unit(benchmark::kMillisecond);

void BM_SlidingMax(benchmark::State& state) {
  RunWindowQuery(state, "MAX(closingPrice)",
                 "WindowIs(ClosingStockPrices, t - " +
                     std::to_string(state.range(0) - 1) + ", t);");
}
BENCHMARK(BM_SlidingMax)
    ->Arg(100)
    ->Arg(1000)
    ->Arg(10000)
    ->Unit(benchmark::kMillisecond);

void BM_SlidingSumDouble(benchmark::State& state) {
  RunWindowQuery(state, "SUM(closingPrice)",
                 "WindowIs(ClosingStockPrices, t - " +
                     std::to_string(state.range(0) - 1) + ", t);");
}
BENCHMARK(BM_SlidingSumDouble)
    ->Arg(1000)
    ->Arg(10000)
    ->Unit(benchmark::kMillisecond);

// End-to-end: the paper's example-3 sliding AVG through the full server,
// sweeping the hop. Stream length fixed; the number of fired windows is
// inversely proportional to the hop.
void BM_ServerSlidingAvgHop(benchmark::State& state) {
  const int64_t hop = state.range(0);
  constexpr int64_t kStreamDays = 2000;
  uint64_t windows_fired = 0;
  for (auto _ : state) {
    Server server;
    benchmark::DoNotOptimize(server.DefineStream(
        "ClosingStockPrices", StockTickerSource::MakeSchema(), 0));
    auto q = server.Submit(
        "Select AVG(closingPrice) From ClosingStockPrices "
        "Where stockSymbol = 'MSFT' "
        "for (t = ST; true; t += " + std::to_string(hop) + ") { "
        "WindowIs(ClosingStockPrices, t - 9, t); }");
    for (int64_t d = 1; d <= kStreamDays; ++d) {
      benchmark::DoNotOptimize(
          server.Push("ClosingStockPrices", Stock(d, 50.0 + (d % 10))));
    }
    windows_fired += server.PollAll(*q).size();
  }
  state.counters["windows_fired"] =
      static_cast<double>(windows_fired) /
      static_cast<double>(state.iterations());
  state.counters["days_per_sec"] = benchmark::Counter(
      2000.0 * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ServerSlidingAvgHop)
    ->Arg(1)
    ->Arg(5)
    ->Arg(20)
    ->Arg(100)
    ->Unit(benchmark::kMillisecond);

// A query Submitted over history: 40,001 days pushed in batches of 64,
// then each iteration Submits `COUNT(*), MAX(closingPrice)` over `loop`
// (every window fires at Submit), polls its result sets and cancels it.
void RunOverHistory(benchmark::State& state, const std::string& loop) {
  constexpr int64_t kHistoryDays = 40001;
  Server server;
  if (!server
           .DefineStream("ClosingStockPrices",
                         StockTickerSource::MakeSchema(), 0)
           .ok()) {
    std::abort();
  }
  std::vector<Tuple> batch;
  for (int64_t d = 1; d <= kHistoryDays; ++d) {
    batch.push_back(Stock(d, 50.0 + static_cast<double>(d % 100)));
    if (batch.size() == 64 || d == kHistoryDays) {
      if (!server.PushBatch("ClosingStockPrices", std::move(batch)).ok()) {
        std::abort();
      }
      batch.clear();
    }
  }
  const double scanned_before = WindowsField(server, "scanned");
  uint64_t windows = 0;
  for (auto _ : state) {
    auto q = server.Submit(
        "SELECT COUNT(*), MAX(closingPrice) FROM ClosingStockPrices " + loop);
    if (!q.ok()) std::abort();
    windows += server.PollAll(*q).size();
    if (!server.Cancel(*q).ok()) std::abort();
  }
  const double iterations = static_cast<double>(state.iterations());
  state.counters["windows"] = static_cast<double>(windows) / iterations;
  state.counters["reads"] =
      (WindowsField(server, "scanned") - scanned_before) / iterations;
}

void BM_ReverseOverHistory(benchmark::State& state) {
  RunOverHistory(state,
                 "for (t = 40000; t > 10; t -= 2) { "
                 "WindowIs(ClosingStockPrices, t - 9, t); }");
}
BENCHMARK(BM_ReverseOverHistory)->Unit(benchmark::kMillisecond);

void BM_SnapshotOverHistory(benchmark::State& state) {
  RunOverHistory(state,
                 "for (; t == 0; t = -1) { "
                 "WindowIs(ClosingStockPrices, 1, 40000); }");
}
BENCHMARK(BM_SnapshotOverHistory)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace tcq
