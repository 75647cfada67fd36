// E3 — SteMs and hybrid joins (§2.2, [RDH02], [HN96]).
//
// Workload: stream S (Zipf-skewed keys) joins source T. T is available
// two ways: as a stream feeding a SteM (symmetric hash) and as an
// expensive remote index (each Lookup costs `kRemoteCost` abstract units;
// a hash probe costs ~1).
//
// Plans compared:
//   sym_hash     — SteM build/probe both sides (needs T streamed);
//   index_only   — every S tuple pays a remote lookup;
//   index_cached — remote index behind a cache SteM [HN96];
//   hybrid       — SteM probe AND cached index probe into T registered as
//                  one operator group: the Eddy runs both plans at once,
//                  sharing fetched state, with no duplicate results (§2.2).
//
// Reported: remote_cost_per_tuple and wall time, across key skews.
// Expected shape: index_only pays kRemoteCost per tuple regardless of
// skew; the cache collapses that once keys repeat (more with skew);
// hybrid matches sym_hash when T data is present and cached-index
// otherwise.

#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "eddy/eddy.h"
#include "eddy/operators.h"

namespace tcq {
namespace {

constexpr int64_t kStreamTuples = 8000;
constexpr uint64_t kKeySpace = 512;
constexpr uint64_t kRemoteCost = 200;

SchemaPtr KV() {
  return Schema::Make(
      {{"k", ValueType::kInt64, ""}, {"v", ValueType::kInt64, ""}});
}

TupleVector MakeTRows() {
  TupleVector rows;
  for (uint64_t k = 0; k < kKeySpace; ++k) {
    rows.push_back(Tuple::Make({Value::Int64(static_cast<int64_t>(k)),
                                Value::Int64(static_cast<int64_t>(k * 10))},
                               0));
  }
  return rows;
}

struct Fixture {
  SourceLayout layout;
  size_t s, t;
  Fixture() {
    s = layout.AddSource("S", KV());
    t = layout.AddSource("T", KV());
  }
  SmallBitset Only(size_t src) {
    SmallBitset b(layout.num_sources());
    b.Set(src);
    return b;
  }
};

enum class Plan { kSymHash, kIndexOnly, kIndexCached, kHybrid };

void RunJoin(benchmark::State& state, Plan plan, double skew) {
  uint64_t remote_cost = 0;
  uint64_t emitted = 0;
  uint64_t tuples = 0;
  for (auto _ : state) {
    Fixture fx;
    Eddy eddy(&fx.layout, std::make_unique<LotteryPolicy>(11));

    auto index = std::make_shared<RemoteIndex>(
        "T_idx", KV(), 0, MakeTRows(),
        RemoteIndex::Options{kRemoteCost, std::chrono::microseconds(0)});

    const int s_key = static_cast<int>(fx.layout.offset(fx.s));
    const int t_key = static_cast<int>(fx.layout.offset(fx.t));
    auto stem_t =
        std::make_shared<SteM>("SteM_T", fx.layout.full_schema(), t_key);
    auto stem_s =
        std::make_shared<SteM>("SteM_S", fx.layout.full_schema(), s_key);
    auto cache =
        std::make_shared<SteM>("T_cache", fx.layout.full_schema(), t_key);

    const bool use_stems = plan == Plan::kSymHash || plan == Plan::kHybrid;
    if (use_stems) {
      eddy.AddOperator(
          std::make_shared<StemBuildOp>("build_S", fx.s, stem_s));
      eddy.AddOperator(
          std::make_shared<StemBuildOp>("build_T", fx.t, stem_t));
      eddy.AddOperator(std::make_shared<StemProbeOp>(
                           "probe_T", &fx.layout, fx.t, stem_t,
                           fx.Only(fx.s), s_key),
                       /*group=*/1);
      eddy.AddOperator(std::make_shared<StemProbeOp>(
                           "probe_S", &fx.layout, fx.s, stem_s,
                           fx.Only(fx.t), t_key),
                       /*group=*/0);
    }
    if (plan != Plan::kSymHash) {
      eddy.AddOperator(
          std::make_shared<RemoteIndexProbeOp>(
              "idx_T", &fx.layout, fx.t, index, fx.Only(fx.s), s_key,
              plan == Plan::kIndexOnly ? nullptr : cache),
          /*group=*/1);
    }
    eddy.SetSink([&](RoutedTuple&&) { ++emitted; });

    // Stream S with skewed keys; in plans with T streamed, T rows arrive
    // interleaved up-front (so the SteM path has data to hit).
    Rng rng(99);
    if (use_stems) {
      for (const Tuple& row : MakeTRows()) eddy.Inject(fx.t, row);
      eddy.Drain();
    }
    for (int64_t i = 0; i < kStreamTuples; ++i) {
      const int64_t k =
          static_cast<int64_t>(rng.NextZipf(kKeySpace, skew));
      eddy.Inject(fx.s, Tuple::Make({Value::Int64(k), Value::Int64(i)}, i));
      if (i % 128 == 0) eddy.Drain();
    }
    eddy.Drain();
    remote_cost += index->total_cost();
    tuples += kStreamTuples;
  }
  state.counters["remote_cost_per_tuple"] =
      static_cast<double>(remote_cost) / static_cast<double>(tuples);
  state.counters["results_per_run"] =
      static_cast<double>(emitted) /
      static_cast<double>(state.iterations());
  state.counters["tuples_per_sec"] = benchmark::Counter(
      static_cast<double>(tuples), benchmark::Counter::kIsRate);
}

void BM_SymHash(benchmark::State& state) {
  RunJoin(state, Plan::kSymHash, static_cast<double>(state.range(0)) / 10);
}
void BM_IndexOnly(benchmark::State& state) {
  RunJoin(state, Plan::kIndexOnly, static_cast<double>(state.range(0)) / 10);
}
void BM_IndexCached(benchmark::State& state) {
  RunJoin(state, Plan::kIndexCached,
          static_cast<double>(state.range(0)) / 10);
}
void BM_Hybrid(benchmark::State& state) {
  RunJoin(state, Plan::kHybrid, static_cast<double>(state.range(0)) / 10);
}

// Arg = skew * 10 (0 = uniform, 12 = strong zipf).
BENCHMARK(BM_SymHash)->Arg(0)->Arg(12)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_IndexOnly)->Arg(0)->Arg(12)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_IndexCached)->Arg(0)->Arg(12)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Hybrid)->Arg(0)->Arg(12)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace tcq
