// Concurrency stress for online bucket migration: real producer threads
// pushing through the exchange while a controller thread migrates buckets
// back and forth, with quiesce barriers and eviction mixed in. Run under
// -DTCQ_SANITIZE=thread in CI; the assertions are conservation laws that
// hold whatever the interleaving — a migration must never lose, duplicate
// or strand a tuple, whether it was in a queue, in stored SteM state, or
// parked in the pause buffer mid-move.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "cacq/sharded_engine.h"
#include "conservation.h"
#include "core/server.h"
#include "kv.h"

namespace tcq {
namespace {

TEST(StressRebalanceTest, MigrationsUnderConcurrentProducers) {
  constexpr size_t kShards = 4;
  constexpr size_t kBuckets = 8;
  constexpr size_t kProducers = 3;
  constexpr size_t kBatches = 40;
  constexpr size_t kBatchSize = 32;

  ShardedEngine::Options opts;
  opts.num_shards = kShards;
  opts.num_buckets = kBuckets;
  opts.input_capacity = 16;  // Small: migrations race backpressured pushes.
  ShardedEngine engine(opts);
  ASSERT_TRUE(engine.AddStream("A", KV(), 0).ok());
  ASSERT_TRUE(engine.AddStream("B", KV(), 0).ok());

  std::atomic<uint64_t> a_hits{0};
  QueryId see_all_a = 0;
  engine.SetSink([&](std::vector<ShardedEngine::Emission>&& batch) {
    for (const auto& [q, t] : batch) {
      if (q == see_all_a) a_hits.fetch_add(1, std::memory_order_relaxed);
    }
  });
  engine.Start();

  // Registered before any data: must see every A tuple exactly once, no
  // matter how many migrations its bucket rode through.
  CacqQuerySpec see_all;
  see_all.sources = {"A"};
  auto q = engine.AddQuery(see_all);
  ASSERT_TRUE(q.ok());
  see_all_a = *q;
  // A stateful join, so migrations move live SteM entries while both
  // sides keep arriving (its emission count is order-dependent across
  // evictions; the race coverage is what matters here).
  CacqQuerySpec join;
  join.sources = {"A", "B"};
  join.where = Expr::Binary(BinaryOp::kEq, Expr::Column("A.k"),
                            Expr::Column("B.k"));
  ASSERT_TRUE(engine.AddQuery(join).ok());

  std::vector<std::thread> producers;
  for (size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&engine, p] {
      const std::string stream = p == 0 ? "B" : "A";
      for (size_t b = 0; b < kBatches; ++b) {
        std::vector<Tuple> batch;
        batch.reserve(kBatchSize);
        for (size_t i = 0; i < kBatchSize; ++i) {
          const auto n = static_cast<int64_t>(b * kBatchSize + i);
          batch.push_back(KVTuple(n % 23, static_cast<int64_t>(p), n + 1));
        }
        ASSERT_TRUE(engine.PushBatch(stream, std::move(batch)).ok());
      }
    });
  }

  // The "controller": migrate every bucket round-robin across the shards
  // while data flows, with barriers and eviction interleaved.
  std::thread migrator([&] {
    for (int round = 0; round < 60; ++round) {
      const size_t bucket = static_cast<size_t>(round) % kBuckets;
      const size_t to =
          (engine.partition_map().ShardOf(bucket) + 1) % kShards;
      ASSERT_TRUE(engine.MigrateBucket(bucket, to).ok());
      if (round % 7 == 3) engine.EvictBefore(static_cast<Timestamp>(round));
      if (round % 10 == 5) engine.Quiesce();
    }
  });

  for (auto& t : producers) t.join();
  migrator.join();
  engine.Quiesce();

  const uint64_t per_stream = kBatches * kBatchSize;
  const uint64_t total = kProducers * per_stream;
  EXPECT_EQ(a_hits.load(), (kProducers - 1) * per_stream);

  // Conservation across the exchange: every routed tuple was processed
  // somewhere — including tuples parked in a pause buffer and replayed to
  // the bucket's new owner — and nothing is left queued after the barrier.
  ExpectExchangeConservation(engine, total);
  engine.Stop();
  EXPECT_EQ(a_hits.load(), (kProducers - 1) * per_stream);
}

TEST(StressRebalanceTest, AutoControllerAgainstConcurrentClients) {
  // The live controller thread at a hot cadence, racing server clients:
  // producers, query churn, snapshots and manual Rebalance calls (which
  // contend for the same migration lock the controller uses).
  Server::Options opts;
  opts.cacq_shards = 4;
  opts.cacq_buckets = 8;
  opts.auto_rebalance = true;
  opts.rebalance.poll_interval_ms = 1;
  opts.rebalance.min_backlog = 8;
  opts.rebalance.cooldown_polls = 0;
  Server server(opts);
  ASSERT_TRUE(server
                  .DefineStream("S", KV(), /*timestamp_field=*/-1,
                                /*partition_field=*/0)
                  .ok());

  std::atomic<uint64_t> delivered{0};
  auto q = server.Submit("SELECT v FROM S WHERE k >= 0");
  ASSERT_TRUE(q.ok()) << q.status();
  ASSERT_TRUE(server
                  .SetCallback(*q,
                               [&](const ResultSet& rs) {
                                 delivered.fetch_add(
                                     rs.rows.size(),
                                     std::memory_order_relaxed);
                               })
                  .ok());

  constexpr size_t kProducers = 3;
  constexpr size_t kBatches = 40;
  constexpr size_t kBatchSize = 25;
  std::vector<std::thread> threads;
  for (size_t p = 0; p < kProducers; ++p) {
    threads.emplace_back([&server, p] {
      for (size_t b = 0; b < kBatches; ++b) {
        std::vector<Tuple> batch;
        for (size_t i = 0; i < kBatchSize; ++i) {
          // Skewed keys, so the controller has something real to chase.
          batch.push_back(KVTuple(static_cast<int64_t>(i % 3),
                                  static_cast<int64_t>(p), 0));
        }
        ASSERT_TRUE(server.PushBatch("S", std::move(batch)).ok());
      }
    });
  }
  threads.emplace_back([&server] {
    for (int round = 0; round < 12; ++round) {
      const Status s =
          server.Rebalance("S", static_cast<size_t>(round) % 8,
                           static_cast<size_t>(round) % 4);
      ASSERT_TRUE(s.ok()) << s;
      const std::string snap = server.SnapshotMetrics();
      EXPECT_NE(snap.find("\"shards\""), std::string::npos);
      server.Quiesce();
    }
  });
  for (auto& t : threads) t.join();

  server.Quiesce();
  EXPECT_EQ(delivered.load(), kProducers * kBatches * kBatchSize);
}

}  // namespace
}  // namespace tcq
