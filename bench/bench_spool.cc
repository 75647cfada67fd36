// Disk-backed history spool (DESIGN.md §16): what demoting aged state to
// disk costs, and what reading it back costs under a bounded page cache.
//
// Experiments:
//
//  1. demotion_throughput — straight-line Append of in-order records,
//     swept over segment size. This is the archive's steady-state
//     overflow path: every tuple beyond the resident tail pays one
//     record encode plus an occasional rotation.
//
//  2. probe_cold / probe_warm — range scans over a fixed on-disk history
//     with a cache far smaller than the data (cold: every scan faults
//     pages in and evicts others) versus a cache that fits it all (warm:
//     faults only on the first pass). The spread is the page cache's
//     contribution — the knob Server::Options::spool_cache_pages turns.
//
//  3. replay_rate — chunked ScanChunk walks over the full history (the
//     Server::ReplayStream access pattern), swept over segment size.
//
//  4. server_landmark_spooled — end-to-end: a landmark SUM over all
//     archived history, with the archive bounded to a 256-tuple resident
//     tail (spool on) versus unbounded RAM (spool off). The window plan
//     feeds the landmark's running state each tuple once, as the
//     watermark passes it, so the gap is the end-to-end price of
//     demoting history to disk, not of reading it back.

#include <benchmark/benchmark.h>

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "core/server.h"
#include "spool/spool.h"
#include "tuple/tuple.h"

namespace tcq {
namespace {

struct TempDir {
  TempDir() {
    std::string tmpl = (std::filesystem::temp_directory_path() /
                        "tcq-spool-bench-XXXXXX")
                           .string();
    char* made = mkdtemp(tmpl.data());
    if (made == nullptr) std::abort();
    path = tmpl;
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  std::string path;
};

Tuple Row(int64_t ts) {
  return Tuple::Make({Value::Int64(ts), Value::Int64(ts % 97)}, ts);
}

void BM_SpoolDemotionThroughput(benchmark::State& state) {
  const uint64_t segment_bytes = static_cast<uint64_t>(state.range(0));
  TempDir dir;
  Spool::Options o;
  o.dir = dir.path;
  o.cache_pages = 64;
  o.segment_bytes = segment_bytes;
  auto spool = Spool::Open(std::move(o));
  if (!spool.ok()) std::abort();
  int64_t ts = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize((*spool)->Append("s", Row(++ts)));
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["disk_bytes"] =
      static_cast<double>((*spool)->bytes());
}
BENCHMARK(BM_SpoolDemotionThroughput)
    ->Arg(64 << 10)
    ->Arg(1 << 20)
    ->Arg(4 << 20);

/// One on-disk history, scanned repeatedly. cache_pages decides cold vs
/// warm: the history below is ~90 pages of records.
void RunProbe(benchmark::State& state, size_t cache_pages) {
  constexpr int64_t kRecords = 10000;
  TempDir dir;
  Spool::Options o;
  o.dir = dir.path;
  o.cache_pages = cache_pages;
  o.segment_bytes = 64 << 10;
  auto spool = Spool::Open(std::move(o));
  if (!spool.ok()) std::abort();
  for (int64_t ts = 1; ts <= kRecords; ++ts) {
    if (!(*spool)->Append("s", Row(ts)).ok()) std::abort();
  }
  // Probe a sliding 1000-record range so successive iterations touch
  // different pages (a warm cache still serves them; a cold one churns).
  int64_t lo = 1;
  size_t total = 0;
  for (auto _ : state) {
    size_t n = 0;
    const Status st = (*spool)->Scan(
        "s", lo, lo + 999, [&](const Tuple& t) {
          benchmark::DoNotOptimize(t.timestamp());
          ++n;
          return true;
        });
    if (!st.ok()) std::abort();
    total += n;
    lo = (lo + 1000 > kRecords) ? 1 : lo + 1000;
  }
  state.SetItemsProcessed(static_cast<int64_t>(total));
  const auto cs = (*spool)->cache_stats();
  state.counters["hit_rate"] =
      cs.hits + cs.misses == 0
          ? 0.0
          : static_cast<double>(cs.hits) /
                static_cast<double>(cs.hits + cs.misses);
}

void BM_SpoolProbeCold(benchmark::State& state) { RunProbe(state, 8); }
BENCHMARK(BM_SpoolProbeCold);

void BM_SpoolProbeWarm(benchmark::State& state) { RunProbe(state, 256); }
BENCHMARK(BM_SpoolProbeWarm);

void BM_SpoolReplayRate(benchmark::State& state) {
  const uint64_t segment_bytes = static_cast<uint64_t>(state.range(0));
  constexpr int64_t kRecords = 20000;
  TempDir dir;
  Spool::Options o;
  o.dir = dir.path;
  o.cache_pages = 64;
  o.segment_bytes = segment_bytes;
  auto spool = Spool::Open(std::move(o));
  if (!spool.ok()) std::abort();
  for (int64_t ts = 1; ts <= kRecords; ++ts) {
    if (!(*spool)->Append("s", Row(ts)).ok()) std::abort();
  }
  size_t total = 0;
  for (auto _ : state) {
    Timestamp lo = kMinTimestamp;
    while (lo != kMaxTimestamp) {
      TupleVector chunk;
      auto next = (*spool)->ScanChunk("s", lo, kMaxTimestamp, 1024, &chunk);
      if (!next.ok()) std::abort();
      total += chunk.size();
      lo = *next;
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(total));
}
BENCHMARK(BM_SpoolReplayRate)->Arg(64 << 10)->Arg(4 << 20);

void RunServerLandmark(benchmark::State& state, bool spooled) {
  TempDir dir;
  Server::Options o;
  if (spooled) {
    o.spool_dir = dir.path;
    o.spool_cache_pages = 64;
    o.spool_resident_tuples = 256;
    o.spool_segment_bytes = 256 << 10;
  }
  Server server(std::move(o));
  SchemaPtr schema = Schema::Make(
      {{"ts", ValueType::kInt64, ""}, {"v", ValueType::kInt64, ""}});
  benchmark::DoNotOptimize(server.DefineStream("S", schema, 0, 1));
  auto q = server.Submit(
      "SELECT SUM(v) FROM S "
      "for (t = 256; true; t += 256) { WindowIs(S, 1, t); }");
  if (!q.ok()) std::abort();
  benchmark::DoNotOptimize(server.SetCallback(*q, [](const ResultSet&) {}));

  constexpr size_t kBatch = 64;
  int64_t ts = 0;
  std::vector<Tuple> batch;
  while (state.KeepRunningBatch(kBatch)) {
    batch.reserve(kBatch);
    for (size_t i = 0; i < kBatch; ++i) batch.push_back(Row(++ts));
    benchmark::DoNotOptimize(server.PushBatch("S", std::move(batch)));
    batch.clear();
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_ServerLandmarkSpooled(benchmark::State& state) {
  RunServerLandmark(state, true);
}
BENCHMARK(BM_ServerLandmarkSpooled);

void BM_ServerLandmarkResident(benchmark::State& state) {
  RunServerLandmark(state, false);
}
BENCHMARK(BM_ServerLandmarkResident);

}  // namespace
}  // namespace tcq
