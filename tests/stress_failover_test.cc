// Concurrency stress for process-pair failover: real producer threads
// pushing through the exchange while one thread repeatedly kills and
// promotes shards, another migrates buckets, with quiesce barriers and
// eviction mixed in, and a third adds and removes queries. Run under
// -DTCQ_SANITIZE=thread and address in CI; the assertions are the shared
// conservation laws (tests/conservation.h) that hold whatever the
// interleaving — a failover must never lose, duplicate or strand a tuple,
// whether it was queued on the dead primary, parked in a migration pause
// buffer, or only present in the changelog — plus the lineage scrub of
// every removed query.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "cacq/sharded_engine.h"
#include "conservation.h"
#include "core/server.h"
#include "kv.h"
#include "testing/crash_injector.h"

namespace tcq {
namespace {

TEST(StressFailoverTest, FailoversAgainstProducersAndMigrations) {
  constexpr size_t kShards = 4;
  constexpr size_t kBuckets = 8;
  constexpr size_t kProducers = 3;
  constexpr size_t kBatches = 40;
  constexpr size_t kBatchSize = 32;
  constexpr size_t kFailovers = 12;

  ShardedEngine::Options opts;
  opts.num_shards = kShards;
  opts.num_buckets = kBuckets;
  opts.num_replicas = 1;
  opts.checkpoint_interval = 8;  // Recoveries mix snapshots + log tails.
  opts.input_capacity = 16;      // Small: kills race backpressured pushes.
  ShardedEngine engine(opts);
  ASSERT_TRUE(engine.AddStream("A", KV(), 0).ok());
  ASSERT_TRUE(engine.AddStream("B", KV(), 0).ok());

  EmissionLedger ledger;
  engine.SetSink(ledger.MakeSink());
  engine.Start();
  // tcq.ha.* counters are process-global; assert on the delta.
  const uint64_t failovers_before = engine.ha_stats().failovers;

  // The two queries whose results are counted stand from the start; the
  // churner below adds and removes others while shards die.
  CacqQuerySpec see_all;
  see_all.sources = {"A"};
  auto q = engine.AddQuery(see_all);
  ASSERT_TRUE(q.ok());
  const QueryId see_all_a = *q;
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

  // The killer: sequential kill/promote cycles over every shard, racing
  // the producers (who block on the dead primary's backpressure until the
  // promotion drains it) and the migrator (who contends for the same
  // migration lock).
  std::thread killer([&engine] {
    for (size_t round = 0; round < kFailovers; ++round) {
      CrashAndRecover(&engine, round % kShards);
    }
  });

  // The migrator: rotating bucket moves. A move whose barrier lands on a
  // freshly-killed primary fails Unavailable and rolls back — that path
  // (pause-buffer replay onto a dead shard) is exactly what we want to
  // race here, so tolerate the status and keep going.
  std::thread migrator([&engine] {
    for (int round = 0; round < 40; ++round) {
      const size_t bucket = static_cast<size_t>(round) % kBuckets;
      const size_t to =
          (engine.partition_map().ShardOf(bucket) + 1) % kShards;
      const Status moved = engine.MigrateBucket(bucket, to);
      EXPECT_TRUE(moved.ok() || moved.code() == StatusCode::kUnavailable)
          << moved.ToString();
      if (round % 7 == 3) engine.EvictBefore(static_cast<Timestamp>(round));
      if (round % 10 == 5) {
        const Status st = engine.Quiesce();
        EXPECT_TRUE(st.ok() || st.code() == StatusCode::kUnavailable)
            << st.ToString();
      }
    }
  });

  // The churner: registrations and removals racing the kills. A change
  // enqueued on a dead primary waits in its queue (or for room in it)
  // until the promotion, which replays it at its changelog LSN.
  std::vector<QueryId> churned;
  std::thread churner([&engine, &churned] {
    for (int round = 0; round < 60; ++round) {
      CacqQuerySpec filter;
      filter.sources = {"A"};
      filter.where = Expr::Binary(BinaryOp::kGe, Expr::Column("A.v"),
                                  Expr::Literal(Value::Int64(round % 3)));
      auto cq = engine.AddQuery(filter);
      ASSERT_TRUE(cq.ok()) << cq.status();
      churned.push_back(*cq);
      ASSERT_TRUE(engine.RemoveQuery(*cq).ok());
    }
  });

  for (auto& t : producers) t.join();
  killer.join();
  migrator.join();
  churner.join();
  // Every shard is alive again (the killer always promotes), so the final
  // barrier must succeed outright.
  ASSERT_TRUE(engine.Quiesce().ok());

  const uint64_t per_stream = kBatches * kBatchSize;
  const uint64_t total = kProducers * per_stream;
  EXPECT_EQ(ledger.hits(see_all_a), (kProducers - 1) * per_stream);
  ExpectExchangeConservation(engine, total);

  const auto ha = engine.ha_stats();
  EXPECT_EQ(ha.failovers - failovers_before, kFailovers);
  for (const auto& r : engine.replica_stats()) {
    EXPECT_TRUE(r.alive);
    EXPECT_GE(r.logged_lsn, r.applied_lsn);
  }
  // QueryIds stay registration indices, and every removal scrubbed its
  // lineage bit on every shard, promoted ones included.
  for (size_t i = 0; i < churned.size(); ++i) EXPECT_EQ(churned[i], i + 2);
  for (size_t shard = 0; shard < kShards; ++shard) {
    for (const auto& stem : engine.engine(shard).CheckpointState().stems) {
      for (const SteM::ExtractedEntry& e : stem.entries) {
        for (QueryId cq : churned) {
          EXPECT_FALSE(cq < e.lineage.size_bits() && e.lineage.Test(cq))
              << "shard " << shard << " query " << cq;
        }
      }
    }
  }
  engine.Stop();
  EXPECT_EQ(ledger.hits(see_all_a), (kProducers - 1) * per_stream);
}

TEST(StressFailoverTest, ServerWithReplicationUnderConcurrentClients) {
  // The server wiring for cacq_replicas: changelog/checkpoint overhead
  // rides every push, and SnapshotMetrics serves replica rows while
  // producers and the metrics pump race it.
  Server::Options opts;
  opts.cacq_shards = 4;
  opts.cacq_replicas = 1;
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
          batch.push_back(KVTuple(static_cast<int64_t>(i % 13),
                                  static_cast<int64_t>(p), 0));
        }
        ASSERT_TRUE(server.PushBatch("S", std::move(batch)).ok());
      }
    });
  }
  threads.emplace_back([&server] {
    for (int round = 0; round < 15; ++round) {
      const std::string snap = server.SnapshotMetrics();
      EXPECT_NE(snap.find("\"replicas\""), std::string::npos);
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
