// Process-pair HA unit suite (DESIGN.md §13): checkpoint/changelog
// round-trips at the CacqEngine level, torn-checkpoint rejection, the
// Quiesce-vs-dead-shard regression (a dead worker must surface a Status,
// not hang the barrier forever), and kill/failover exactness on a live
// sharded engine — including mid-migration checkpoints.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cacq/sharded_engine.h"
#include "conservation.h"
#include "common/rng.h"
#include "kv.h"
#include "testing/crash_injector.h"

namespace tcq {
namespace {

/// A join workload engine: streams A, B joined on k, plus a grouped
/// filter, so checkpoints carry live SteM state.
std::unique_ptr<CacqEngine> MakeJoinEngine(std::vector<std::string>* log) {
  auto engine = std::make_unique<CacqEngine>();
  EXPECT_TRUE(engine->AddStream("A", KV()).ok());
  EXPECT_TRUE(engine->AddStream("B", KV()).ok());
  if (log != nullptr) {
    engine->SetSink([log](QueryId q, const Tuple& t) {
      log->push_back("q" + std::to_string(q) + "|" + t.ToString());
    });
  }
  CacqQuerySpec join;
  join.sources = {"A", "B"};
  join.where = Expr::Binary(BinaryOp::kEq, Expr::Column("A.k"),
                            Expr::Column("B.k"));
  EXPECT_TRUE(engine->AddQuery(join).ok());
  CacqQuerySpec filter;
  filter.sources = {"A"};
  filter.where = Expr::Binary(BinaryOp::kGt, Expr::Column("A.v"),
                              Expr::Literal(Value::Int64(5)));
  EXPECT_TRUE(engine->AddQuery(filter).ok());
  return engine;
}

std::string Sorted(std::vector<std::string> rows) {
  std::sort(rows.begin(), rows.end());
  std::string out;
  for (const std::string& r : rows) out += r + "\n";
  return out;
}

TEST(CheckpointTest, EmptyEngineRoundTrips) {
  auto primary = MakeJoinEngine(nullptr);
  const EngineCheckpoint ckpt = primary->CheckpointState();
  EXPECT_EQ(ckpt.tuple_count(), 0u);
  EXPECT_TRUE(ckpt.complete);

  std::vector<std::string> standby_rows;
  auto standby = MakeJoinEngine(&standby_rows);
  ASSERT_TRUE(standby->RestoreCheckpoint(ckpt).ok());
  // The restored (empty) standby behaves like a fresh engine.
  ASSERT_TRUE(standby->InjectBatch("A", {KVTuple(1, 10, 1)}).ok());
  ASSERT_TRUE(standby->InjectBatch("B", {KVTuple(1, 2, 2)}).ok());
  EXPECT_EQ(standby_rows.size(), 2u);  // One join match + one filter hit.
}

TEST(CheckpointTest, LiveJoinStateRoundTrips) {
  // Primary builds SteM state, checkpoints, keeps running; the standby
  // restores the checkpoint. From that point, identical probe batches must
  // produce identical result multisets on both.
  std::vector<std::string> primary_rows;
  auto primary = MakeJoinEngine(&primary_rows);
  for (int64_t i = 0; i < 20; ++i) {
    ASSERT_TRUE(primary->InjectBatch("A", {KVTuple(i % 7, i, i + 1)}).ok());
  }
  const EngineCheckpoint ckpt = primary->CheckpointState();
  EXPECT_GT(ckpt.tuple_count(), 0u);
  EXPECT_GT(ckpt.approx_bytes(), 0u);

  std::vector<std::string> standby_rows;
  auto standby = MakeJoinEngine(&standby_rows);
  ASSERT_TRUE(standby->RestoreCheckpoint(ckpt).ok());

  primary_rows.clear();
  standby_rows.clear();
  for (int64_t i = 0; i < 10; ++i) {
    const Tuple probe = KVTuple(i % 7, 100 + i, 50 + i);
    ASSERT_TRUE(primary->InjectBatch("B", {probe}).ok());
    ASSERT_TRUE(standby->InjectBatch("B", {probe}).ok());
  }
  EXPECT_FALSE(primary_rows.empty());
  EXPECT_EQ(Sorted(standby_rows), Sorted(primary_rows));
}

TEST(CheckpointTest, LiveGroupedFilterStateRoundTrips) {
  // Several single-source filters on one stream share a grouped-filter
  // module. Its predicate set is registration state (rebuilt by the
  // standby from query history), not checkpointed data — the round trip
  // must preserve behaviour, including the eddy sequence floor, with live
  // SteM entries alongside.
  auto make = [](std::vector<std::string>* log) {
    auto engine = std::make_unique<CacqEngine>();
    EXPECT_TRUE(engine->AddStream("S", KV()).ok());
    if (log != nullptr) {
      engine->SetSink([log](QueryId q, const Tuple& t) {
        log->push_back("q" + std::to_string(q) + "|" + t.ToString());
      });
    }
    for (int64_t bound : {5, 20, 35}) {
      CacqQuerySpec f;
      f.sources = {"S"};
      f.where = Expr::Binary(BinaryOp::kGt, Expr::Column("k"),
                             Expr::Literal(Value::Int64(bound)));
      EXPECT_TRUE(engine->AddQuery(f).ok());
    }
    return engine;
  };
  std::vector<std::string> primary_rows;
  auto primary = make(&primary_rows);
  for (int64_t k = 0; k < 30; ++k) {
    ASSERT_TRUE(primary->InjectBatch("S", {KVTuple(k, k, k + 1)}).ok());
  }
  const EngineCheckpoint ckpt = primary->CheckpointState();

  std::vector<std::string> standby_rows;
  auto standby = make(&standby_rows);
  ASSERT_TRUE(standby->RestoreCheckpoint(ckpt).ok());
  primary_rows.clear();
  standby_rows.clear();
  for (int64_t k = 30; k < 45; ++k) {
    const Tuple probe = KVTuple(k, k, 100 + k);
    ASSERT_TRUE(primary->InjectBatch("S", {probe}).ok());
    ASSERT_TRUE(standby->InjectBatch("S", {probe}).ok());
  }
  EXPECT_FALSE(primary_rows.empty());
  EXPECT_EQ(Sorted(standby_rows), Sorted(primary_rows));
}

TEST(CheckpointTest, RestoreReplacesExistingState) {
  // Restoring is a full replacement, not a merge: a standby polluted with
  // its own state converges to the checkpoint.
  auto primary = MakeJoinEngine(nullptr);
  ASSERT_TRUE(primary->InjectBatch("A", {KVTuple(1, 1, 1)}).ok());
  const EngineCheckpoint ckpt = primary->CheckpointState();

  std::vector<std::string> rows;
  auto standby = MakeJoinEngine(&rows);
  // Pollution: key 2 entries that are NOT in the checkpoint.
  ASSERT_TRUE(standby->InjectBatch("A", {KVTuple(2, 2, 1)}).ok());
  ASSERT_TRUE(standby->RestoreCheckpoint(ckpt).ok());
  rows.clear();
  ASSERT_TRUE(standby->InjectBatch("B", {KVTuple(2, 9, 5)}).ok());
  EXPECT_TRUE(rows.empty()) << "stale pre-restore state survived: "
                            << rows[0];
  ASSERT_TRUE(standby->InjectBatch("B", {KVTuple(1, 9, 6)}).ok());
  EXPECT_EQ(rows.size(), 1u);  // The checkpointed key joins.
}

TEST(CheckpointTest, TornCheckpointIsRejected) {
  auto primary = MakeJoinEngine(nullptr);
  ASSERT_TRUE(primary->InjectBatch("A", {KVTuple(1, 1, 1)}).ok());
  EngineCheckpoint torn = primary->CheckpointState();
  torn.complete = false;
  auto standby = MakeJoinEngine(nullptr);
  EXPECT_FALSE(standby->RestoreCheckpoint(torn).ok());
}

TEST(ChangelogTest, SnapshotTruncatesAndTornSnapshotsKeepTheLog) {
  ShardReplica<EngineCheckpoint> replica;
  EXPECT_EQ(replica.Append(0, {KVTuple(1, 1, 1)}), 1u);
  EXPECT_EQ(replica.Append(0, {KVTuple(2, 2, 2)}), 2u);
  EXPECT_EQ(replica.Append(1, {KVTuple(3, 3, 3)}), 3u);

  // A torn snapshot is rejected: previous snapshot (none) and the full
  // log survive, so recovery falls back rather than losing state.
  EXPECT_FALSE(replica.StoreSnapshot(2, EngineCheckpoint{}, /*valid=*/false));
  auto plan = replica.MakeRecoveryPlan();
  EXPECT_FALSE(plan.has_snapshot);
  ASSERT_EQ(plan.tail.size(), 3u);
  EXPECT_EQ(plan.tail[0].lsn, 1u);

  // A valid snapshot at floor 2 truncates records 1-2.
  EXPECT_TRUE(replica.StoreSnapshot(2, EngineCheckpoint{}, /*valid=*/true));
  plan = replica.MakeRecoveryPlan();
  EXPECT_TRUE(plan.has_snapshot);
  EXPECT_EQ(plan.snapshot_floor, 2u);
  ASSERT_EQ(plan.tail.size(), 1u);
  EXPECT_EQ(plan.tail[0].lsn, 3u);
  EXPECT_EQ(plan.tail[0].source, 1u);

  const auto stats = replica.stats();
  EXPECT_EQ(stats.checkpoints, 1u);
  EXPECT_EQ(stats.torn_rejected, 1u);
  EXPECT_EQ(stats.next_lsn, 3u);
}

/// Satellite regression: a dead shard must turn barriers into prompt
/// Unavailable errors — before this fix, Quiesce hung forever on a latch
/// nobody would ever count down.
TEST(FailoverTest, QuiesceSurfacesDeadShardInsteadOfHanging) {
  ShardedEngine::Options opts;
  opts.num_shards = 2;  // No replicas: the kill is unrecoverable.
  ShardedEngine engine(opts);
  ASSERT_TRUE(engine.AddStream("S", KV(), 0).ok());
  engine.SetSink([](std::vector<ShardedEngine::Emission>&&) {});
  engine.Start();
  CacqQuerySpec see_all;
  see_all.sources = {"S"};
  ASSERT_TRUE(engine.AddQuery(see_all).ok());
  std::vector<Tuple> batch;
  for (int64_t i = 0; i < 16; ++i) batch.push_back(KVTuple(i, i, i + 1));
  ASSERT_TRUE(engine.PushBatch("S", std::move(batch)).ok());

  ASSERT_TRUE(engine.KillShard(0).ok());
  while (engine.shard_alive(0)) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  const Status st = engine.Quiesce();
  EXPECT_EQ(st.code(), StatusCode::kUnavailable) << st.ToString();
  // Failover is refused without replicas; the engine still shuts down
  // cleanly (Stop closes the dead shard's egress queue itself).
  EXPECT_EQ(engine.FailoverShard(0).code(), StatusCode::kFailedPrecondition);
  engine.EvictBefore(100);  // Logs and returns instead of hanging.
  engine.Stop();
}

TEST(FailoverTest, KillAndFailoverValidateTheirShard) {
  ShardedEngine::Options opts;
  opts.num_shards = 2;
  opts.num_replicas = 1;
  ShardedEngine engine(opts);
  ASSERT_TRUE(engine.AddStream("S", KV(), 0).ok());
  engine.SetSink([](std::vector<ShardedEngine::Emission>&&) {});
  engine.Start();
  EXPECT_EQ(engine.KillShard(2).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(engine.FailoverShard(99).code(), StatusCode::kOutOfRange);
  // A live primary has nothing to fail over, replicas or not.
  EXPECT_EQ(engine.FailoverShard(0).code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(engine.shard_alive(0));
  EXPECT_TRUE(engine.Quiesce().ok());
  engine.Stop();
}

TEST(FailoverTest, InlineEngineRefusesFleetOperations) {
  ShardedEngine::Options opts;
  opts.num_shards = 1;  // No replicas: inline, no threads.
  ShardedEngine engine(opts);
  ASSERT_TRUE(engine.AddStream("S", KV(), 0).ok());
  size_t delivered = 0;
  engine.SetSink([&](std::vector<ShardedEngine::Emission>&& batch) {
    delivered += batch.size();
  });
  engine.Start();
  ASSERT_TRUE(engine.is_inline());
  CacqQuerySpec see_all;
  see_all.sources = {"S"};
  ASSERT_TRUE(engine.AddQuery(see_all).ok());
  std::vector<Tuple> batch;
  for (int64_t i = 0; i < 8; ++i) batch.push_back(KVTuple(i, i, i + 1));
  ASSERT_TRUE(engine.PushBatch("S", std::move(batch)).ok());
  EXPECT_EQ(delivered, 8u);  // Synchronous: no Quiesce needed.

  EXPECT_EQ(engine.KillShard(1).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(engine.KillShard(0).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(engine.FailoverShard(0).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(engine.MigrateBucket(0, 1).code(), StatusCode::kOutOfRange);
  EXPECT_TRUE(engine.MigrateBucket(0, 0).ok());  // Already there: no-op.
  EXPECT_TRUE(engine.Quiesce().ok());
  EXPECT_EQ(engine.rebalance_stats().migrations, 0u);
  engine.Stop();
}

TEST(FailoverTest, KillAndFailoverRecoversExactly) {
  ShardedEngine::Options opts;
  opts.num_shards = 2;
  opts.num_replicas = 1;
  opts.checkpoint_interval = 4;  // Exercise snapshot + changelog tail.
  ShardedEngine engine(opts);
  ASSERT_TRUE(engine.AddStream("S", KV(), 0).ok());
  EmissionLedger ledger;
  engine.SetSink(ledger.MakeSink());
  engine.Start();
  CacqQuerySpec see_all;
  see_all.sources = {"S"};
  auto q = engine.AddQuery(see_all);
  ASSERT_TRUE(q.ok());
  // tcq.ha.* counters are process-global; assert on the delta.
  const uint64_t failovers_before = engine.ha_stats().failovers;

  size_t total = 0;
  auto push = [&](int64_t base, size_t n) {
    std::vector<Tuple> batch;
    for (size_t i = 0; i < n; ++i) {
      batch.push_back(KVTuple(base + static_cast<int64_t>(i),
                              static_cast<int64_t>(i), total + i + 1));
    }
    total += n;
    ASSERT_TRUE(engine.PushBatch("S", std::move(batch)).ok());
  };

  push(0, 40);
  CrashAndRecover(&engine, 0);
  push(100, 40);
  CrashAndRecover(&engine, 1);
  push(200, 40);
  ASSERT_TRUE(engine.Quiesce().ok());

  EXPECT_EQ(ledger.hits(*q), total);
  ExpectExchangeConservation(engine, total);

  const auto ha = engine.ha_stats();
  EXPECT_EQ(ha.failovers - failovers_before, 2u);
  const auto reps = engine.replica_stats();
  ASSERT_EQ(reps.size(), 2u);
  for (const auto& r : reps) {
    EXPECT_TRUE(r.alive);
    EXPECT_GE(r.logged_lsn, r.applied_lsn);
    EXPECT_GT(r.checkpoints, 0u);
  }
  engine.Stop();
}

TEST(FailoverTest, FailedOverWorkerParksOnTheShardWaker) {
  // The waker belongs to the shard, not to its EO: the fresh worker that
  // FailoverShard starts parks on the waker the input partition wakes, so
  // barriers after a failover end its parks by a wake (and stay prompt)
  // instead of waiting out the fallback timer.
  ShardedEngine::Options opts;
  opts.num_shards = 2;
  opts.num_replicas = 1;
  ShardedEngine engine(opts);
  ASSERT_TRUE(engine.AddStream("S", KV(), 0).ok());
  engine.SetSink([](std::vector<ShardedEngine::Emission>&&) {});
  engine.Start();
  CacqQuerySpec see_all;
  see_all.sources = {"S"};
  ASSERT_TRUE(engine.AddQuery(see_all).ok());
  std::vector<Tuple> batch;
  for (int64_t i = 0; i < 16; ++i) batch.push_back(KVTuple(i, i, i + 1));
  ASSERT_TRUE(engine.PushBatch("S", std::move(batch)).ok());
  CrashAndRecover(&engine, 0);

  const ShardedEngine::ShardStats before = engine.shard_stats()[0];
  for (int round = 0; round < 20; ++round) {
    // Idle long enough for the worker to be parked when the barrier lands.
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    const auto t0 = std::chrono::steady_clock::now();
    ASSERT_TRUE(engine.Quiesce().ok());
    EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(1));
  }
  const ShardedEngine::ShardStats after = engine.shard_stats()[0];
  EXPECT_GT(after.parks, before.parks);
  EXPECT_GT(after.woken_parks, before.woken_parks);
  EXPECT_TRUE(engine.Quiesce().ok());
  engine.Stop();
}

TEST(FailoverTest, TornCheckpointsFallBackToChangelogReplay) {
  // Every cadence checkpoint is torn by fault injection, so the failover
  // must recover from the previous (absent) snapshot plus the FULL
  // changelog — the hydra fallback rule — and still lose nothing.
  ShardedEngine::Options opts;
  opts.num_shards = 2;
  opts.num_replicas = 1;
  opts.checkpoint_interval = 2;  // Many (rejected) checkpoint attempts.
  ShardedEngine engine(opts);
  ASSERT_TRUE(engine.AddStream("S", KV(), 0).ok());
  EmissionLedger ledger;
  engine.SetSink(ledger.MakeSink());
  engine.Start();
  engine.replication()->SetSnapshotFault(
      [](size_t, const EngineCheckpoint&) { return false; });
  CacqQuerySpec see_all;
  see_all.sources = {"S"};
  auto q = engine.AddQuery(see_all);
  ASSERT_TRUE(q.ok());

  size_t total = 0;
  for (int round = 0; round < 6; ++round) {
    std::vector<Tuple> batch;
    for (int64_t i = 0; i < 20; ++i) {
      batch.push_back(KVTuple(i, round, total + static_cast<size_t>(i) + 1));
    }
    total += 20;
    ASSERT_TRUE(engine.PushBatch("S", std::move(batch)).ok());
    if (round == 3) CrashAndRecover(&engine, 0);
  }
  ASSERT_TRUE(engine.Quiesce().ok());
  EXPECT_EQ(ledger.hits(*q), total);
  ExpectExchangeConservation(engine, total);

  uint64_t torn = 0;
  for (const auto& r : engine.replica_stats()) torn += r.torn_rejected;
  EXPECT_GT(torn, 0u);
  engine.Stop();
}

TEST(FailoverTest, MidMigrationShardFailsOverConsistently) {
  // Move a bucket off shard 0, then kill shard 0: the donor's forced
  // post-extract checkpoint must keep the moved bucket out of its
  // recovery, and the recipient's post-install checkpoint must keep it in
  // — no resurrection, no loss.
  ShardedEngine::Options opts;
  opts.num_shards = 2;
  opts.num_replicas = 1;
  opts.num_buckets = 8;
  opts.checkpoint_interval = 1000;  // Force reliance on the migration
                                    // checkpoints, not the cadence.
  ShardedEngine engine(opts);
  ASSERT_TRUE(engine.AddStream("A", KV(), 0).ok());
  ASSERT_TRUE(engine.AddStream("B", KV(), 0).ok());
  EmissionLedger ledger;
  engine.SetSink(ledger.MakeSink());
  engine.Start();
  CacqQuerySpec join;
  join.sources = {"A", "B"};
  join.where = Expr::Binary(BinaryOp::kEq, Expr::Column("A.k"),
                            Expr::Column("B.k"));
  auto q = engine.AddQuery(join);
  ASSERT_TRUE(q.ok());

  // Build SteM state on every bucket.
  std::vector<Tuple> build;
  for (int64_t k = 0; k < 32; ++k) build.push_back(KVTuple(k, k, k + 1));
  ASSERT_TRUE(engine.PushBatch("A", std::move(build)).ok());
  ASSERT_TRUE(engine.Quiesce().ok());

  // Migrate every bucket shard 0 owns to shard 1, then crash shard 0.
  const auto owned = engine.partition_map().BucketsOwnedBy(0);
  ASSERT_FALSE(owned.empty());
  for (size_t bucket : owned) {
    ASSERT_TRUE(engine.MigrateBucket(bucket, 1).ok());
  }
  CrashAndRecover(&engine, 0);

  // Probe every key: each must join exactly once — a resurrected bucket
  // on shard 0 would double keys, a lost one would drop them.
  std::vector<Tuple> probe;
  for (int64_t k = 0; k < 32; ++k) probe.push_back(KVTuple(k, 100, 100 + k));
  ASSERT_TRUE(engine.PushBatch("B", std::move(probe)).ok());
  ASSERT_TRUE(engine.Quiesce().ok());
  EXPECT_EQ(ledger.hits(*q), 32u);
  engine.Stop();
}

/// Holds the egress thread inside the sink until Open(). The shards then
/// fill their egress queues and stop in their next flush, so everything
/// pushed after that waits, unapplied, in their input queues.
class SinkGate {
 public:
  void Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return open_; });
  }
  void Open() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
};

/// Two shards with a standby each behind a closed SinkGate, the rows each
/// query received, and tuples that key onto shard 0.
struct GatedFleet {
  explicit GatedFleet(uint64_t seed) : rng(seed) {
    ShardedEngine::Options opts;
    opts.num_shards = 2;
    opts.num_replicas = 1;
    opts.num_buckets = 8;
    opts.egress_capacity = 1;
    opts.checkpoint_interval = 1 + rng.NextBounded(6);
    engine = std::make_unique<ShardedEngine>(opts);
    EXPECT_TRUE(engine->AddStream("A", KV(), 0).ok());
    EXPECT_TRUE(engine->AddStream("B", KV(), 0).ok());
    engine->SetSink([this](std::vector<ShardedEngine::Emission>&& batch) {
      gate.Wait();
      std::lock_guard<std::mutex> lock(mu);
      for (const auto& [q, t] : batch) rows[q].push_back(t.ToString());
    });
    engine->Start();
  }

  /// A batch of about `n` tuples with shard-0 keys. The default is big
  /// enough that the rows one see-all task emits pass the worker's
  /// mid-step flush threshold.
  std::vector<Tuple> Batch(size_t n = 1100) {
    std::vector<Tuple> batch;
    const size_t size = n + rng.NextBounded(n / 2 + 1);
    while (batch.size() < size) {
      const auto k = static_cast<int64_t>(rng.NextBounded(64));
      if (engine->partition_map().ShardOf(Value::Int64(k)) != 0) continue;
      const auto v = static_cast<int64_t>(++pushed);
      batch.push_back(KVTuple(k, v, v));
    }
    return batch;
  }

  /// Fills shard 0's egress queue and input backlog.
  void Backlog(const std::string& stream) {
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(engine->PushBatch(stream, Batch()).ok());
    }
  }

  /// Kills shard 0 while its worker is held in a flush, so it dies at its
  /// next task boundary with the backlog unapplied, then promotes it.
  void KillAndFailOver() {
    ASSERT_TRUE(engine->KillShard(0).ok());
    gate.Open();
    while (engine->shard_alive(0)) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    ASSERT_TRUE(engine->FailoverShard(0).ok());
    ASSERT_TRUE(engine->Quiesce().ok());
  }

  std::vector<std::string> RowsOf(QueryId q) {
    std::lock_guard<std::mutex> lock(mu);
    std::vector<std::string> out = rows[q];
    std::sort(out.begin(), out.end());
    return out;
  }

  Rng rng;
  uint64_t pushed = 0;
  SinkGate gate;
  std::mutex mu;
  std::map<QueryId, std::vector<std::string>> rows;
  std::unique_ptr<ShardedEngine> engine;
};

TEST(FailoverTest, QueryAddedBeforeAKillSeesExactlyTheLaterTuples) {
  // The start-LSN rule: a promoted standby applies an AddQuery at its
  // place in the shard's changelog, so the replayed backlog from before
  // the add never reaches the new query and everything after it does.
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    GatedFleet fleet(seed);
    ShardedEngine& engine = *fleet.engine;
    CacqQuerySpec see_all;
    see_all.sources = {"A"};
    ASSERT_TRUE(engine.AddQuery(see_all).ok());
    fleet.Backlog("A");
    CacqQuerySpec late;
    late.sources = {"A"};
    late.where = Expr::Binary(BinaryOp::kGe, Expr::Column("A.v"),
                              Expr::Literal(Value::Int64(0)));
    auto q = engine.AddQuery(late);
    ASSERT_TRUE(q.ok()) << q.status();
    std::vector<std::string> want;
    for (int i = 0; i < 1 + static_cast<int>(fleet.rng.NextBounded(3)); ++i) {
      std::vector<Tuple> batch = fleet.Batch();
      for (const Tuple& t : batch) {
        want.push_back(engine.layout().Widen(0, t).ToString());
      }
      ASSERT_TRUE(engine.PushBatch("A", std::move(batch)).ok());
    }
    fleet.KillAndFailOver();
    std::sort(want.begin(), want.end());
    EXPECT_EQ(fleet.RowsOf(*q), want);
    engine.Stop();
  }
}

TEST(FailoverTest, QueryRemovedBeforeAKillLeavesNoLineageBit) {
  // The removal sits at its LSN too: replay scrubs the join's bit from the
  // restored and replayed SteM entries there, and entries replayed after
  // it never get one.
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    GatedFleet fleet(seed);
    ShardedEngine& engine = *fleet.engine;
    CacqQuerySpec see_all;
    see_all.sources = {"A"};
    ASSERT_TRUE(engine.AddQuery(see_all).ok());
    CacqQuerySpec join;
    join.sources = {"A", "B"};
    join.where = Expr::Binary(BinaryOp::kEq, Expr::Column("A.k"),
                              Expr::Column("B.k"));
    auto q = engine.AddQuery(join);
    ASSERT_TRUE(q.ok()) << q.status();
    ASSERT_TRUE(engine.PushBatch("B", fleet.Batch(8)).ok());
    fleet.Backlog("A");
    ASSERT_TRUE(engine.RemoveQuery(*q).ok());
    ASSERT_TRUE(engine.PushBatch("B", fleet.Batch(8)).ok());
    ASSERT_TRUE(engine.PushBatch("A", fleet.Batch()).ok());
    fleet.KillAndFailOver();
    for (size_t shard = 0; shard < 2; ++shard) {
      size_t entries = 0;
      for (const auto& stem : engine.engine(shard).CheckpointState().stems) {
        for (const SteM::ExtractedEntry& e : stem.entries) {
          ++entries;
          EXPECT_FALSE(*q < e.lineage.size_bits() && e.lineage.Test(*q))
              << "shard " << shard << ": " << e.tuple.ToString();
        }
      }
      if (shard == 0) EXPECT_GT(entries, 0u);
    }
    engine.Stop();
  }
}

TEST(FailoverTest, QueryChangesTakeNoCheckpoint) {
  // A registration is a changelog position, not a snapshot: with standbys
  // an AddQuery + RemoveQuery pair copies no SteM state.
  ShardedEngine::Options opts;
  opts.num_shards = 2;
  opts.num_replicas = 1;
  opts.checkpoint_interval = 1000;  // No cadence checkpoint either.
  ShardedEngine engine(opts);
  ASSERT_TRUE(engine.AddStream("A", KV(), 0).ok());
  ASSERT_TRUE(engine.AddStream("B", KV(), 0).ok());
  EmissionLedger ledger;
  engine.SetSink(ledger.MakeSink());
  engine.Start();
  CacqQuerySpec join;
  join.sources = {"A", "B"};
  join.where = Expr::Binary(BinaryOp::kEq, Expr::Column("A.k"),
                            Expr::Column("B.k"));
  ASSERT_TRUE(engine.AddQuery(join).ok());
  for (const char* stream : {"A", "B"}) {
    std::vector<Tuple> batch;
    for (int64_t i = 0; i < 64; ++i) batch.push_back(KVTuple(i, i, i + 1));
    ASSERT_TRUE(engine.PushBatch(stream, std::move(batch)).ok());
  }
  ASSERT_TRUE(engine.Quiesce().ok());
  const uint64_t before = engine.ha_stats().checkpoints;
  auto q = engine.AddQuery(join);
  ASSERT_TRUE(q.ok()) << q.status();
  ASSERT_TRUE(engine.RemoveQuery(*q).ok());
  ASSERT_TRUE(engine.Quiesce().ok());
  EXPECT_EQ(engine.ha_stats().checkpoints, before);
  EXPECT_EQ(engine.RemoveQuery(*q).code(), StatusCode::kNotFound);
  engine.Stop();
}

}  // namespace
}  // namespace tcq
