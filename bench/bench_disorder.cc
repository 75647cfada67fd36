// Disorder-tolerant ingress (DESIGN.md §15): what bounded-disorder
// buffering costs on the server ingest path, swept over disorder rate ×
// reorder bound, plus the two expensive relatives — speculative delivery
// that must revise fired windows, and the kIngestLate backfill path for
// beyond-bound stragglers.
//
// Experiments:
//
//  1. delayed_ingest — a disordered feed (jitter_rate% of tuples
//     displaced up to `bound`) through a server with the matching reorder
//     bound, driving one CACQ filter and one sliding-window aggregate in
//     delayed-but-correct mode. {0,0} is the classic in-order ingress the
//     reorder buffer must not tax.
//
//  2. speculative_ingest — the same feed and window, but the aggregate is
//     submitted speculative: windows fire at the raw watermark and every
//     in-bound late arrival re-executes the touched fired windows,
//     emitting retraction-signed diffs. The gap to delayed_ingest at the
//     same {bound, rate} is the price of early answers.
//
//  3. ingest_late_backfill — violation_rate% of the feed arrives beyond
//     the bound; LatePolicy::kIngestLate routes the stragglers through
//     the archive-backfill path instead of rejecting them.
//
//  4. ingest_late_landmark — the same stragglers under a landmark SUM
//     (one window from ts 1, firing every 4 ticks, so most stragglers
//     land in history the landmark's running state already holds). The
//     window plan rewinds the state to the newest copy it took before the
//     straggler and refeeds from there, not from the landmark.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "core/server.h"
#include "telemetry/metrics.h"
#include "testing/disorder.h"

namespace tcq {
namespace {

SchemaPtr KV() {
  return Schema::Make(
      {{"ts", ValueType::kInt64, ""}, {"v", ValueType::kInt64, ""}});
}

/// Snapshots one registry counter so a benchmark can report the delta it
/// caused — disorder telemetry rides along in BENCH_<sha>.json baselines.
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

/// Rolling disordered feed: regenerates a pre-disordered chunk whenever
/// the replay cursor drains, with timestamps continuing monotonically so
/// disorder crosses PushBatch boundaries the way a real feed's does (the
/// interesting path — batch-local reordering alone never exercises the
/// buffer across the batch frontier).
class DisorderedFeed {
 public:
  explicit DisorderedFeed(const DisorderOptions& options)
      : options_(options) {}

  void Refill() {
    constexpr size_t kChunk = 4096;
    std::vector<Tuple> in_order;
    in_order.reserve(kChunk);
    for (size_t i = 0; i < kChunk; ++i) {
      ++ts_;
      in_order.push_back(
          Tuple::Make({Value::Int64(ts_), Value::Int64(ts_ % 97)}, ts_));
    }
    DisorderOptions o = options_;
    o.seed = options_.seed + static_cast<uint64_t>(ts_);
    chunk_ = InjectDisorder(std::move(in_order), o);
    at_ = 0;
  }

  void Fill(std::vector<Tuple>* batch, size_t n) {
    for (size_t i = 0; i < n; ++i) {
      if (at_ == chunk_.size()) Refill();
      batch->push_back(chunk_[at_++]);
    }
  }

  Timestamp max_ts() const { return ts_; }

 private:
  DisorderOptions options_;
  Timestamp ts_ = 0;
  std::vector<Tuple> chunk_;
  size_t at_ = 0;
};

void RunIngest(benchmark::State& state, const DisorderOptions& dopts,
               LatePolicy policy, Consistency consistency,
               const std::string& loop =
                   "for (t = ST; true; t += 16) { WindowIs(S, t - 15, t); }") {
  Server::Options o;
  o.max_disorder = dopts.max_disorder;
  o.late_policy = policy;
  Server server(o);
  benchmark::DoNotOptimize(
      server.DefineStream("S", KV(), /*timestamp_field=*/0));
  Server::SubmitOptions sopts;
  sopts.consistency = consistency;
  auto filter = server.Submit("SELECT v FROM S WHERE v > 48", sopts);
  benchmark::DoNotOptimize(
      server.SetCallback(*filter, [](const ResultSet&) {}));
  auto window = server.Submit("SELECT SUM(v) FROM S " + loop, sopts);
  benchmark::DoNotOptimize(
      server.SetCallback(*window, [](const ResultSet&) {}));

  constexpr size_t kIngestBatch = 64;
  DisorderedFeed feed(dopts);
  std::vector<Tuple> batch;
  CounterDelta late("tcq.disorder.late_within_bound");
  CounterDelta beyond("tcq.disorder.beyond_bound");
  CounterDelta delivered("tcq.server.delivered_rows");
  while (state.KeepRunningBatch(kIngestBatch)) {
    batch.reserve(kIngestBatch);
    feed.Fill(&batch, kIngestBatch);
    benchmark::DoNotOptimize(server.PushBatch("S", std::move(batch)));
    batch.clear();
  }
  // Outside the timed region: closing punctuation flushes the reorder
  // buffer so every pushed tuple was genuinely released and executed.
  benchmark::DoNotOptimize(
      server.Heartbeat("S", feed.max_ts() + dopts.max_disorder + 1));
  state.counters["tuples_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
  const double per_tuple = 1.0 / static_cast<double>(state.iterations());
  state.counters["late_within_bound_per_tuple"] = late.value() * per_tuple;
  state.counters["beyond_bound_per_tuple"] = beyond.value() * per_tuple;
  // Delivered rows per tuple: for speculative runs the excess over the
  // delayed run at the same args is the retraction/revision traffic.
  state.counters["delivered_rows_per_tuple"] = delivered.value() * per_tuple;
}

void BM_DelayedIngest(benchmark::State& state) {
  DisorderOptions dopts;
  dopts.max_disorder = state.range(0);
  dopts.jitter_rate = static_cast<double>(state.range(1)) / 100.0;
  RunIngest(state, dopts, LatePolicy::kReject, Consistency::kDelayed);
}
BENCHMARK(BM_DelayedIngest)
    ->Args({0, 0})     // Classic in-order ingress: the no-tax baseline.
    ->Args({4, 25})
    ->Args({4, 100})
    ->Args({16, 100})
    ->Args({64, 100})
    ->Unit(benchmark::kMicrosecond);

void BM_SpeculativeIngest(benchmark::State& state) {
  DisorderOptions dopts;
  dopts.max_disorder = state.range(0);
  dopts.jitter_rate = static_cast<double>(state.range(1)) / 100.0;
  RunIngest(state, dopts, LatePolicy::kReject, Consistency::kSpeculative);
}
BENCHMARK(BM_SpeculativeIngest)
    ->Args({4, 25})
    ->Args({4, 100})
    ->Args({16, 100})
    ->Args({64, 100})
    ->Unit(benchmark::kMicrosecond);

void BM_IngestLateBackfill(benchmark::State& state) {
  DisorderOptions dopts;
  dopts.max_disorder = 8;
  dopts.jitter_rate = 1.0;
  dopts.violation_rate = static_cast<double>(state.range(0)) / 100.0;
  dopts.violation_extra = 8;
  RunIngest(state, dopts, LatePolicy::kIngestLate, Consistency::kDelayed);
}
BENCHMARK(BM_IngestLateBackfill)
    ->Arg(1)
    ->Arg(5)
    ->Arg(20)
    ->Unit(benchmark::kMicrosecond);

void BM_IngestLateLandmark(benchmark::State& state) {
  DisorderOptions dopts;
  dopts.max_disorder = 8;
  dopts.jitter_rate = 1.0;
  dopts.violation_rate = static_cast<double>(state.range(0)) / 100.0;
  dopts.violation_extra = 8;
  RunIngest(state, dopts, LatePolicy::kIngestLate, Consistency::kDelayed,
            "for (t = ST; true; t += 4) { WindowIs(S, 1, t); }");
}
// A fixed feed length: a refeed from the landmark costs the whole
// history, so a time-bounded run would compare different histories.
BENCHMARK(BM_IngestLateLandmark)
    ->Arg(0)
    ->Arg(1)
    ->Arg(5)
    ->Iterations(1 << 17)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace tcq
