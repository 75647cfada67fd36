// Concurrency stress for the sharded CACQ exchange: real producer threads
// against 4+ shard threads plus the egress thread, with control traffic
// (query churn, eviction, quiesce barriers) riding the same queues. Run
// under -DTCQ_SANITIZE=thread in CI; the assertions here are conservation
// laws that hold whatever the interleaving.

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

TEST(StressShardedTest, ConcurrentProducersAgainstControlTraffic) {
  constexpr size_t kShards = 4;
  constexpr size_t kProducers = 3;
  constexpr size_t kBatches = 60;
  constexpr size_t kBatchSize = 32;

  ShardedEngine::Options opts;
  opts.num_shards = kShards;
  opts.input_capacity = 16;  // Small: force backpressure interleavings.
  ShardedEngine engine(opts);
  ASSERT_TRUE(engine.AddStream("S", KV(), 0).ok());

  std::atomic<uint64_t> all_hits{0};
  std::atomic<uint64_t> churn_hits{0};
  QueryId all_query = 0;
  std::atomic<QueryId> churn_query{0};
  engine.SetSink([&](std::vector<ShardedEngine::Emission>&& batch) {
    for (const auto& [q, t] : batch) {
      if (q == all_query) {
        all_hits.fetch_add(1, std::memory_order_relaxed);
      } else if (q == churn_query.load(std::memory_order_relaxed)) {
        churn_hits.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  engine.Start();

  // Registered before any data: must see every tuple exactly once.
  CacqQuerySpec see_all;
  see_all.sources = {"S"};
  auto q = engine.AddQuery(see_all);
  ASSERT_TRUE(q.ok());
  all_query = *q;

  std::vector<std::thread> producers;
  for (size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&engine, p] {
      for (size_t b = 0; b < kBatches; ++b) {
        std::vector<Tuple> batch;
        batch.reserve(kBatchSize);
        for (size_t i = 0; i < kBatchSize; ++i) {
          const auto n = static_cast<int64_t>(b * kBatchSize + i);
          batch.push_back(
              KVTuple(n % 23, static_cast<int64_t>(p), n + 1));
        }
        ASSERT_TRUE(engine.PushBatch("S", std::move(batch)).ok());
      }
    });
  }

  // Control churn, serialized on this one thread (the AddQuery contract):
  // register/unregister a filter, evict, quiesce — all while data flows.
  std::thread controller([&] {
    CacqQuerySpec filter;
    filter.sources = {"S"};
    filter.where = Expr::Binary(BinaryOp::kGt, Expr::Column("k"),
                                Expr::Literal(Value::Int64(11)));
    for (int round = 0; round < 20; ++round) {
      auto cq = engine.AddQuery(filter);
      ASSERT_TRUE(cq.ok());
      churn_query.store(*cq, std::memory_order_relaxed);
      engine.EvictBefore(static_cast<Timestamp>(round));
      if (round % 5 == 0) engine.Quiesce();
      ASSERT_TRUE(engine.RemoveQuery(*cq).ok());
    }
  });

  for (auto& t : producers) t.join();
  controller.join();
  engine.Quiesce();

  const uint64_t total = kProducers * kBatches * kBatchSize;
  EXPECT_EQ(all_hits.load(), total);

  ExpectExchangeConservation(engine, total);
  engine.Stop();
  // Stop after a full drain is idempotent and loses nothing.
  engine.Stop();
  EXPECT_EQ(all_hits.load(), total);
}

TEST(StressShardedTest, ServerShardedUnderConcurrentClients) {
  Server::Options opts;
  opts.cacq_shards = 4;
  Server server(opts);
  // Arrival-order timestamps: concurrent producers cannot reject each
  // other with out-of-order stamps. Partitioned on k.
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
          batch.push_back(KVTuple(static_cast<int64_t>(i % 13),
                                  static_cast<int64_t>(p), 0));
        }
        ASSERT_TRUE(server.PushBatch("S", std::move(batch)).ok());
      }
    });
  }
  // Query churn + introspection race the producers and the egress thread.
  threads.emplace_back([&server] {
    for (int round = 0; round < 15; ++round) {
      auto extra = server.Submit("SELECT k FROM S WHERE v = 1");
      ASSERT_TRUE(extra.ok()) << extra.status();
      (void)server.PollAll(*extra);
      ASSERT_TRUE(server.Cancel(*extra).ok());
    }
  });
  threads.emplace_back([&server] {
    for (int round = 0; round < 15; ++round) {
      const std::string snap = server.SnapshotMetrics();
      EXPECT_NE(snap.find("\"shards\""), std::string::npos);
      server.PumpMetrics();
      server.Quiesce();
    }
  });
  for (auto& t : threads) t.join();

  server.Quiesce();
  EXPECT_EQ(delivered.load(), kProducers * kBatches * kBatchSize);
}

}  // namespace
}  // namespace tcq
