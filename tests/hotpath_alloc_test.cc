// Heap-allocation budget of the ingest hot path in steady state:
// Server::PushBatch plus result delivery (a callback, or Poll until the
// queue is empty) on three inline servers — standing filters, sliding
// windows through the window plan's panes, and a landmark aggregate fed
// from its running state — each with and without a callback. A counting
// global operator new sees every allocation of this process, so this
// test is its own binary and does not run under the sanitizers (they
// replace operator new themselves).
//
// Counts with GCC 12's libstdc++, 64-tuple batches, drain included, as
// poll / callback. "Per window" is per fired window, beyond what the same
// feed costs a server without queries (0.12 per tuple: the archive's
// deque blocks and one vector per batch; the reorder buffer's deque made
// 0.22 before it became a Fifo).
//
//                        per tuple                  per window
//                        before        after        before       after
//   32 filters           0.66 / 0.82   0.53 / 0.53
//   32 sliding windows   6.06 / 6.21   1.94 / 1.94  3.21 / 3.30  1.00 / 1.00
//   landmark             0.44 / 0.44   0.19 / 0.19
//
// "Before" is the tree before typed aggregate state, in-place result
// rows and reused result vectors (the window's one allocation left is
// its rows vector, which the client receives). "After" also reuses the
// emission batches of sets bound for callbacks (0.77 with a callback
// before) and orders the reorder buffer in a Fifo. A ceiling leaves a
// little room for another standard library.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "core/server.h"

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

constexpr size_t kBatch = 64;
constexpr size_t kWarmBatches = 40;
constexpr size_t kMeasuredBatches = 160;
constexpr size_t kSymbols = 8;

// Ceilings, in allocations per pushed tuple (and per fired window).
constexpr double kFiltersPerTupleMax = 0.7;
constexpr double kWindowsPerTupleMax = 2.1;
constexpr double kWindowsPerWindowMax = 1.0;
constexpr double kLandmarkPerTupleMax = 0.25;

SchemaPtr TradesSchema() {
  return Schema::Make({{"ts", ValueType::kInt64, ""},
                       {"sym", ValueType::kString, ""},
                       {"price", ValueType::kInt64, ""},
                       {"id", ValueType::kInt64, ""}});
}

std::string Symbol(size_t s) { return "K0" + std::to_string(s); }

/// Tuple i of a feed four tuples per tick, one in ten displaced by up to
/// four ticks (the servers' disorder bound), symbols and prices cycling.
Tuple FeedTuple(size_t i) {
  Timestamp ts = 5 + static_cast<Timestamp>(i / 4);
  if (i % 10 == 3) ts -= 1 + static_cast<Timestamp>(i % 4);
  return Tuple::Make({Value::Int64(ts), Value::String(Symbol(i % kSymbols)),
                      Value::Int64(static_cast<int64_t>((i * 37) % 100)),
                      Value::Int64(static_cast<int64_t>(i))},
                     ts);
}

struct Count {
  uint64_t allocations = 0;
  uint64_t sets = 0;  ///< Result sets delivered.
  double per_tuple() const {
    return static_cast<double>(allocations) / (kBatch * kMeasuredBatches);
  }
};

/// Allocations of kMeasuredBatches pushes and their delivery on a fresh
/// server with `sqls`, after kWarmBatches warm-up batches. The tuples
/// are built before counting starts.
Count Measure(const std::vector<std::string>& sqls, bool callback) {
  Server::Options opts;
  opts.max_disorder = 4;
  Server server(opts);
  EXPECT_TRUE(server.DefineStream("Trades", TradesSchema(), 0, 1).ok());
  std::vector<QueryId> ids;
  uint64_t sets = 0;
  for (const std::string& sql : sqls) {
    auto q = server.Submit(sql);
    EXPECT_TRUE(q.ok()) << q.status() << "\n" << sql;
    if (!q.ok()) return {};
    ids.push_back(*q);
    if (callback) {
      EXPECT_TRUE(
          server.SetCallback(*q, [&sets](const ResultSet&) { ++sets; }).ok());
    }
  }
  size_t next = 0;
  auto push = [&](std::vector<Tuple> batch) {
    EXPECT_TRUE(server.PushBatch("Trades", std::move(batch)).ok());
    if (callback) return;
    for (const QueryId q : ids) {
      while (server.Poll(q).has_value()) ++sets;
    }
  };
  auto make_batch = [&] {
    std::vector<Tuple> batch;
    batch.reserve(kBatch);
    for (size_t i = 0; i < kBatch; ++i) batch.push_back(FeedTuple(next++));
    return batch;
  };
  for (size_t b = 0; b < kWarmBatches; ++b) push(make_batch());
  std::vector<std::vector<Tuple>> batches;
  for (size_t b = 0; b < kMeasuredBatches; ++b) batches.push_back(make_batch());
  sets = 0;
  const uint64_t before = g_allocations.load();
  for (std::vector<Tuple>& batch : batches) push(std::move(batch));
  const uint64_t made = g_allocations.load() - before;
  return Count{made, sets};
}

void Print(const char* name, bool callback, const Count& c) {
  std::printf("%s, %s: %.3f allocations per tuple (%llu sets)\n", name,
              callback ? "callback" : "poll", c.per_tuple(),
              static_cast<unsigned long long>(c.sets));
}

TEST(HotpathAllocTest, CounterSeesAllocations) {
  const uint64_t before = g_allocations.load();
  auto* v = new std::vector<int>(8);
  delete v;
  EXPECT_EQ(g_allocations.load() - before, 2u);
}

TEST(HotpathAllocTest, StandingFilters) {
  std::vector<std::string> sqls;
  for (size_t s = 0; s < kSymbols; ++s) {
    for (int gt : {10, 30, 50, 70}) {
      sqls.push_back("SELECT id, price FROM Trades WHERE sym = '" +
                     Symbol(s) + "' AND price > " + std::to_string(gt));
    }
  }
  for (const bool callback : {false, true}) {
    const Count c = Measure(sqls, callback);
    Print("32 filters", callback, c);
    EXPECT_GT(c.sets, 0u);
    EXPECT_LE(c.per_tuple(), kFiltersPerTupleMax);
  }
}

TEST(HotpathAllocTest, SlidingWindows) {
  constexpr int64_t kShapes[][2] = {{10, 5}, {10, 3}, {12, 4}, {16, 8}};
  std::vector<std::string> sqls;
  for (size_t s = 0; s < kSymbols; ++s) {
    for (const auto& [width, hop] : kShapes) {
      sqls.push_back(
          "SELECT COUNT(*), SUM(price), MAX(price) FROM Trades WHERE sym = '" +
          Symbol(s) + "' for (t = ST; true; t += " + std::to_string(hop) +
          ") { WindowIs(Trades, t - " + std::to_string(width - 1) + ", t); }");
    }
  }
  // The same feed into a server without queries: stamping, reordering
  // and the archive, which every fired window below shares.
  const Count ingest = Measure({}, false);
  Print("no query", false, ingest);
  for (const bool callback : {false, true}) {
    const Count c = Measure(sqls, callback);
    Print("32 sliding windows", callback, c);
    // One set per fired window: about 1.8 windows per tuple.
    ASSERT_GT(c.sets, kMeasuredBatches * kBatch);
    const double per_window =
        static_cast<double>(c.allocations - ingest.allocations) /
        static_cast<double>(c.sets);
    std::printf("  %.4f allocations per fired window beyond ingest\n",
                per_window);
    EXPECT_LE(c.per_tuple(), kWindowsPerTupleMax);
    EXPECT_LE(per_window, kWindowsPerWindowMax);
  }
}

TEST(HotpathAllocTest, LandmarkAggregate) {
  const std::vector<std::string> sqls = {
      "SELECT COUNT(*), SUM(price), MIN(price), MAX(price) FROM Trades "
      "for (t = ST; true; t += 4) { WindowIs(Trades, ST, t); }"};
  for (const bool callback : {false, true}) {
    const Count c = Measure(sqls, callback);
    Print("landmark", callback, c);
    EXPECT_GT(c.sets, 0u);
    EXPECT_LE(c.per_tuple(), kLandmarkPerTupleMax);
  }
}

}  // namespace
}  // namespace tcq
