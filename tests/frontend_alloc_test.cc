// Heap-allocation budget of the query front end: ParseQuery, AnalyzeSql
// and Server::Submit on the two query shapes the repository benchmark
// folds in, and a warm WindowSequence::Next. A counting global operator
// new sees every allocation of this process, so this test is its own
// binary and does not run under the sanitizers (they replace operator
// new themselves).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "core/analyzer.h"
#include "core/server.h"
#include "parser/parser.h"
#include "window/window.h"

namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

void* operator new(size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](size_t size) { return operator new(size); }
// GCC cannot see that the operator new above allocates with malloc.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace tcq {
namespace {

constexpr const char* kFilterSql =
    "SELECT id, price FROM Trades WHERE sym = 'K03' AND price > 42";
constexpr const char* kWindowSql =
    "SELECT COUNT(*), SUM(price), MAX(price) FROM Trades WHERE sym = 'K03' "
    "for (t = ST; true; t += 5) { WindowIs(Trades, t - 9, t); }";

// Ceilings, in allocations per call. Each test prints its counts; with
// GCC 12's libstdc++ they read 12 and 21 (parse), 32 and 40 (analyze),
// 41 and 48 (submit) for the filter and the windowed query. A ceiling
// leaves a little room for another standard library.
constexpr uint64_t kFilterParseMax = 14;
constexpr uint64_t kWindowParseMax = 24;
constexpr uint64_t kFilterAnalyzeMax = 36;
constexpr uint64_t kWindowAnalyzeMax = 45;
constexpr uint64_t kFilterSubmitMax = 47;
constexpr uint64_t kWindowSubmitMax = 55;

SchemaPtr TradesSchema() {
  return Schema::Make({{"ts", ValueType::kInt64, ""},
                       {"sym", ValueType::kString, ""},
                       {"price", ValueType::kInt64, ""},
                       {"id", ValueType::kInt64, ""}});
}

/// Allocations made by `fn`, the fewest over `reps` calls (the first
/// calls may fill lazily built caches).
template <typename Fn>
uint64_t CountAllocations(Fn&& fn, int reps = 4) {
  uint64_t fewest = UINT64_MAX;
  for (int i = 0; i < reps; ++i) {
    const uint64_t before = g_allocations.load();
    fn();
    fewest = std::min(fewest, g_allocations.load() - before);
  }
  return fewest;
}

void RegisterTrades(Catalog* catalog) {
  StreamDef def;
  def.name = "Trades";
  def.schema = TradesSchema();
  def.timestamp_field = 0;
  EXPECT_TRUE(catalog->RegisterStream(std::move(def)).ok());
}

TEST(FrontendAllocTest, CounterSeesAllocations) {
  const uint64_t n = CountAllocations([] {
    auto* v = new std::vector<int>(8);
    delete v;
  });
  EXPECT_EQ(n, 2u);
}

TEST(FrontendAllocTest, ParseQuery) {
  const std::string filter = kFilterSql;
  const std::string window = kWindowSql;
  const uint64_t f = CountAllocations(
      [&] { ASSERT_TRUE(ParseQuery(filter).ok()); });
  const uint64_t w = CountAllocations(
      [&] { ASSERT_TRUE(ParseQuery(window).ok()); });
  std::printf("ParseQuery allocations: filter %llu, windowed %llu\n",
              static_cast<unsigned long long>(f),
              static_cast<unsigned long long>(w));
  EXPECT_LE(f, kFilterParseMax);
  EXPECT_LE(w, kWindowParseMax);
}

TEST(FrontendAllocTest, AnalyzeSql) {
  Catalog catalog;
  RegisterTrades(&catalog);
  const std::string filter = kFilterSql;
  const std::string window = kWindowSql;
  const uint64_t f = CountAllocations(
      [&] { ASSERT_TRUE(AnalyzeSql(filter, catalog).ok()); });
  const uint64_t w = CountAllocations(
      [&] { ASSERT_TRUE(AnalyzeSql(window, catalog).ok()); });
  std::printf("AnalyzeSql allocations: filter %llu, windowed %llu\n",
              static_cast<unsigned long long>(f),
              static_cast<unsigned long long>(w));
  EXPECT_LE(f, kFilterAnalyzeMax);
  EXPECT_LE(w, kWindowAnalyzeMax);
}

/// The benchmark's fold-in probe on an inline server: push 2 tuples,
/// Submit + SetCallback, push 2, Cancel. Counts the Submit alone, warm.
uint64_t SubmitAllocations(const std::string& sql) {
  Server::Options opts;
  opts.max_disorder = 4;
  Server server(opts);
  EXPECT_TRUE(server.DefineStream("Trades", TradesSchema(), 0, 1).ok());
  int64_t ts = 0;
  auto push2 = [&] {
    std::vector<Tuple> batch;
    for (int i = 0; i < 2; ++i) {
      ++ts;
      batch.push_back(Tuple::Make({Value::Int64(ts), Value::String("K03"),
                                   Value::Int64(40 + ts % 7),
                                   Value::Int64(ts)},
                                  ts));
    }
    EXPECT_TRUE(server.PushBatch("Trades", std::move(batch)).ok());
  };
  uint64_t fewest = UINT64_MAX;
  for (int i = 0; i < 6; ++i) {
    push2();
    const uint64_t before = g_allocations.load();
    auto q = server.Submit(sql);
    const uint64_t made = g_allocations.load() - before;
    EXPECT_TRUE(q.ok()) << q.status();
    if (!q.ok()) return made;
    EXPECT_TRUE(server.SetCallback(*q, [](const ResultSet&) {}).ok());
    push2();
    EXPECT_TRUE(server.Cancel(*q).ok());
    if (i >= 2) fewest = std::min(fewest, made);  // Warm submits only.
  }
  return fewest;
}

TEST(FrontendAllocTest, ServerSubmit) {
  const uint64_t f = SubmitAllocations(kFilterSql);
  const uint64_t w = SubmitAllocations(kWindowSql);
  std::printf("Server::Submit allocations: filter %llu, windowed %llu\n",
              static_cast<unsigned long long>(f),
              static_cast<unsigned long long>(w));
  EXPECT_LE(f, kFilterSubmitMax);
  EXPECT_LE(w, kWindowSubmitMax);
}

TEST(FrontendAllocTest, WarmWindowStepAllocatesNothing) {
  const ForLoopSpec spec = MakeSlidingWindow("S", 10, 5, 100, std::nullopt);
  WindowSequence seq(&spec, 100);
  ASSERT_TRUE(seq.Next().has_value());
  const uint64_t n = CountAllocations([&] {
    auto step = seq.Next();
    ASSERT_TRUE(step.has_value());
    ASSERT_EQ(step->bounds[0].right, step->t);
  });
  EXPECT_EQ(n, 0u);
}

}  // namespace
}  // namespace tcq
