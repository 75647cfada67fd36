// Many-query concurrency stress: ~1k standing CQs per run with a churn
// thread racing AddQuery/RemoveQuery (grouped-filter index recompiles,
// query-slot reuse) against multi-producer sharded ingest. Run under
// -DTCQ_SANITIZE=thread in CI via the stress label; the oracles are the
// shared conservation laws (tests/conservation.h) plus exact counts for
// the stable query population — both hold whatever the interleaving,
// because control ops ride the shard task queues (actor model) and each
// shard's filter index is only ever touched from its own thread.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "cacq/sharded_engine.h"
#include "common/object_pool.h"
#include "conservation.h"
#include "kv.h"

namespace tcq {
namespace {

TEST(StressManyQueriesTest, ThousandQueriesRacingChurnAndIngest) {
  constexpr size_t kShards = 4;
  constexpr size_t kStableQueries = 1000;
  constexpr size_t kProducers = 3;
  constexpr size_t kBatches = 40;
  constexpr size_t kBatchSize = 32;
  constexpr int kChurnRounds = 30;

  ShardedEngine::Options opts;
  opts.num_shards = kShards;
  opts.input_capacity = 16;  // Small: force backpressure interleavings.
  ShardedEngine engine(opts);
  ASSERT_TRUE(engine.AddStream("S", KV(), 0).ok());

  EmissionLedger ledger;
  engine.SetSink(ledger.MakeSink());

  // A stable population of 1k range CQs over overlapping windows of v
  // (v in [0,100): query i wants lo <= v < lo+10, lo = i % 91), plus one
  // see-all query as the conservation witness. All registered before any
  // data, so their counts are exact.
  CacqQuerySpec see_all;
  see_all.sources = {"S"};
  auto all_q = engine.AddQuery(see_all);
  ASSERT_TRUE(all_q.ok());
  for (size_t i = 0; i < kStableQueries; ++i) {
    const auto lo = static_cast<int64_t>(i % 91);
    CacqQuerySpec spec;
    spec.sources = {"S"};
    spec.where = Expr::Binary(
        BinaryOp::kAnd,
        Expr::Binary(BinaryOp::kGe, Expr::Column("v"),
                     Expr::Literal(Value::Int64(lo))),
        Expr::Binary(BinaryOp::kLt, Expr::Column("v"),
                     Expr::Literal(Value::Int64(lo + 10))));
    ASSERT_TRUE(engine.AddQuery(spec).ok());
  }
  engine.Start();

  std::vector<std::thread> producers;
  for (size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&engine, p] {
      for (size_t b = 0; b < kBatches; ++b) {
        std::vector<Tuple> batch;
        batch.reserve(kBatchSize);
        for (size_t i = 0; i < kBatchSize; ++i) {
          const auto n = static_cast<int64_t>(b * kBatchSize + i);
          batch.push_back(Tuple::Make(
              {Value::Int64(n % 23), Value::Int64((n * 7 + p) % 100)},
              n + 1));
        }
        ASSERT_TRUE(engine.PushBatch("S", std::move(batch)).ok());
      }
    });
  }

  // Churn thread, serialized per the AddQuery/RemoveQuery contract: each
  // round registers a burst of short-lived range CQs (every filter
  // recompiles on next tuple), quiesces occasionally, then removes them —
  // freeing slots the next round's AddQuery re-registers.
  std::thread churner([&engine] {
    for (int round = 0; round < kChurnRounds; ++round) {
      std::vector<QueryId> burst;
      for (int j = 0; j < 8; ++j) {
        const auto lo = static_cast<int64_t>((round * 13 + j * 5) % 90);
        CacqQuerySpec spec;
        spec.sources = {"S"};
        spec.where = Expr::Binary(
            BinaryOp::kAnd,
            Expr::Binary(BinaryOp::kGt, Expr::Column("v"),
                         Expr::Literal(Value::Int64(lo))),
            Expr::Binary(BinaryOp::kLe, Expr::Column("v"),
                         Expr::Literal(Value::Int64(lo + 5))));
        auto cq = engine.AddQuery(spec);
        ASSERT_TRUE(cq.ok());
        burst.push_back(*cq);
      }
      if (round % 7 == 0) engine.Quiesce();
      for (QueryId cq : burst) {
        ASSERT_TRUE(engine.RemoveQuery(cq).ok());
      }
    }
  });

  for (auto& t : producers) t.join();
  churner.join();
  engine.Quiesce();

  const uint64_t total = kProducers * kBatches * kBatchSize;
  // See-all query saw every tuple exactly once despite 1k+ live CQs and
  // index recompiles racing ingest.
  EXPECT_EQ(ledger.hits(*all_q), total);
  ExpectExchangeConservation(engine, total);

  // Stable range CQs: each tuple lands in exactly 10 of the 91 distinct
  // lo-windows, and each window is owned by ceil/floor(1000/91) queries.
  // Cheaper and interleaving-proof: recompute the expected count per
  // query from the deterministic feed.
  uint64_t expected_range_hits = 0;
  for (size_t p = 0; p < kProducers; ++p) {
    for (size_t n = 0; n < kBatches * kBatchSize; ++n) {
      const int64_t v = static_cast<int64_t>((n * 7 + p) % 100);
      // Query i passes iff lo <= v < lo+10 with lo = i % 91.
      for (int64_t lo = std::max<int64_t>(0, v - 9);
           lo <= std::min<int64_t>(90, v); ++lo) {
        expected_range_hits += 1000 / 91 + (static_cast<size_t>(lo) <
                                                    1000 % 91
                                                ? 1
                                                : 0);
      }
    }
  }
  uint64_t actual_range_hits = 0;
  for (QueryId q = *all_q + 1;
       q <= *all_q + static_cast<QueryId>(kStableQueries); ++q) {
    actual_range_hits += ledger.hits(q);
  }
  EXPECT_EQ(actual_range_hits, expected_range_hits);

  engine.Stop();

  // The pools did real work across the shard threads; global totals are
  // flushed as those threads exit in Stop().
  const BlockPool::Stats pool = BlockPool::GlobalStats();
  EXPECT_GT(pool.hits + pool.misses, 0u);
}

}  // namespace
}  // namespace tcq
