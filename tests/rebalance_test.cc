// Online shard rebalancing (DESIGN.md §12): the RebalanceController's pure
// planning rules, the ShardedEngine's pause/drain/move/resume bucket
// migration, and the §2.2 equivalence obligation extended across
// migrations — a mid-stream move must never lose, duplicate or reorder a
// per-key result, under every schedule the explorer drives.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cacq/sharded_engine.h"
#include "common/rng.h"
#include "core/server.h"
#include "flux/rebalance.h"
#include "kv.h"
#include "telemetry/metrics.h"
#include "testing/schedule_explorer.h"

namespace tcq {
namespace {

// --- PlanMove: pure policy, no threads ------------------------------------

using Load = RebalanceController::Load;
using Plan = RebalanceController::Plan;

RebalanceController::Options PlanOptions() {
  RebalanceController::Options o;
  o.imbalance_threshold = 1.5;
  o.min_backlog = 32;
  return o;
}

TEST(PlanMoveTest, BalancedOrIdleLoadPlansNothing) {
  const std::vector<size_t> owner = {0, 1, 2, 3};
  Load prev{{0, 0, 0, 0}, {0, 0, 0, 0}};

  // Loaded but perfectly balanced: max == mean, below threshold.
  Load balanced{{100, 100, 100, 100}, {400, 400, 400, 400}};
  EXPECT_FALSE(
      RebalanceController::PlanMove(owner, balanced, prev, PlanOptions()));

  // Skewed but idle: max backlog below min_backlog.
  Load idle{{20, 0, 0, 0}, {80, 0, 0, 0}};
  EXPECT_FALSE(RebalanceController::PlanMove(owner, idle, prev, PlanOptions()));

  // One shard is degenerate: nowhere to move.
  EXPECT_FALSE(RebalanceController::PlanMove(
      {0, 0}, Load{{500}, {400, 100}}, Load{{0}, {0, 0}}, PlanOptions()));
}

TEST(PlanMoveTest, SkewMovesLargestBucketWithinHalfTheGap) {
  // Shard 0 owns buckets 0..2, shards 1..3 one bucket each. Shard 0's
  // backlog has run away; its recent routed deltas are 600/200/50.
  const std::vector<size_t> owner = {0, 0, 0, 1, 2, 3};
  Load prev{{0, 0, 0, 0}, {0, 0, 0, 0, 0, 0}};
  Load now{{1000, 10, 10, 10}, {600, 200, 50, 0, 0, 0}};
  auto plan = RebalanceController::PlanMove(owner, now, prev, PlanOptions());
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->from, 0u);
  EXPECT_EQ(plan->to, 1u);  // Min-backlog shard (first of the tie).
  // Gap target = (850 - 0) / 2 = 425: bucket 0 (600) would overshoot and
  // just relocate the hotspot; bucket 1 (200) is the largest that fits.
  EXPECT_EQ(plan->bucket, 1u);
}

TEST(PlanMoveTest, MegaHotBucketFallsBackToSmallestActive) {
  // The donor's entire recent load sits in one bucket: nothing fits half
  // the gap, so the planner sheds the smallest active bucket instead of
  // doing nothing forever.
  const std::vector<size_t> owner = {0, 0, 1, 2};
  Load prev{{0, 0, 0}, {0, 0, 0, 0}};
  Load now{{900, 5, 5}, {800, 0, 0, 0}};
  auto plan = RebalanceController::PlanMove(owner, now, prev, PlanOptions());
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->bucket, 0u);
  EXPECT_EQ(plan->from, 0u);
  // Quiet bucket 1 (delta 0) is never chosen: moving it shifts no load.
}

TEST(PlanMoveTest, StaleBacklogWithoutRateSkewPlansNothing) {
  // A backlog left over from a burst that already ended: the donor's
  // recent routed delta is no larger than the recipient's, so no bucket
  // move helps — let the backlog drain where it is.
  const std::vector<size_t> owner = {0, 1};
  Load prev{{0, 0}, {500, 500}};
  Load now{{400, 0}, {510, 530}};
  EXPECT_FALSE(RebalanceController::PlanMove(owner, now, prev, PlanOptions()));
}

TEST(PlanMoveTest, MalformedObservationIsSkipped) {
  const std::vector<size_t> owner = {0, 1};
  Load prev{{0, 0}, {0, 0}};
  Load bad_now{{400, 0}, {100}};  // bucket_routed shorter than owner map.
  EXPECT_FALSE(
      RebalanceController::PlanMove(owner, bad_now, prev, PlanOptions()));
}

// --- Migration equivalence harness ----------------------------------------

using Labelled = std::pair<size_t, std::string>;

std::string Fingerprint(std::vector<Labelled> rows) {
  std::sort(rows.begin(), rows.end());
  std::ostringstream fp;
  for (const Labelled& r : rows) fp << "q" << r.first << "|" << r.second
                                    << "\n";
  return fp.str();
}

struct Workload {
  std::vector<std::tuple<std::string, SchemaPtr, size_t>> streams;
  std::vector<CacqQuerySpec> queries;
  std::vector<std::pair<std::string, std::vector<Tuple>>> feed;
};

std::string RunInline(const Workload& w) {
  CacqEngine engine;
  for (const auto& [name, schema, col] : w.streams) {
    EXPECT_TRUE(engine.AddStream(name, schema).ok());
  }
  std::vector<Labelled> rows;
  std::map<QueryId, size_t> label;
  engine.SetSink([&](QueryId q, const Tuple& t) {
    rows.emplace_back(label.at(q), t.ToString());
  });
  for (size_t i = 0; i < w.queries.size(); ++i) {
    auto q = engine.AddQuery(w.queries[i]);
    EXPECT_TRUE(q.ok()) << q.status();
    label[*q] = i;
  }
  for (const auto& [stream, batch] : w.feed) {
    EXPECT_TRUE(engine.InjectBatch(stream, batch).ok());
  }
  return Fingerprint(std::move(rows));
}

/// The workload through a ShardedEngine with a bucket migration injected
/// between feed slices: every 3rd slice, the bucket `slice % num_buckets`
/// is moved to the next shard over, mid-stream, while SteM state from the
/// earlier slices is live. The emitted fingerprint must not notice.
std::string RunShardedMigrating(const Workload& w, size_t num_shards,
                                uint64_t seed,
                                const std::vector<size_t>& order,
                                size_t chunk, size_t num_buckets) {
  ShardedEngine::Options opts;
  opts.num_shards = num_shards;
  opts.seed = seed;
  opts.num_buckets = num_buckets;
  ShardedEngine engine(opts);
  for (const auto& [name, schema, col] : w.streams) {
    EXPECT_TRUE(engine.AddStream(name, schema, col).ok());
  }
  std::mutex mu;
  std::vector<Labelled> rows;
  std::map<QueryId, size_t> label;
  engine.SetSink([&](std::vector<ShardedEngine::Emission>&& batch) {
    std::lock_guard<std::mutex> lock(mu);
    for (const auto& [q, t] : batch) {
      rows.emplace_back(label.at(q), t.ToString());
    }
  });
  engine.Start();
  for (size_t i : order) {
    auto q = engine.AddQuery(w.queries[i]);
    EXPECT_TRUE(q.ok()) << q.status();
    std::lock_guard<std::mutex> lock(mu);
    label[*q] = i;
  }
  size_t slice = 0;
  for (const auto& [stream, batch] : w.feed) {
    for (size_t at = 0; at < batch.size(); at += chunk, ++slice) {
      const size_t n = std::min(chunk, batch.size() - at);
      std::vector<Tuple> s(batch.begin() + static_cast<ptrdiff_t>(at),
                           batch.begin() + static_cast<ptrdiff_t>(at + n));
      EXPECT_TRUE(engine.PushBatch(stream, std::move(s)).ok());
      if (slice % 3 == 2) {
        const size_t bucket = slice % engine.partition_map().num_buckets();
        const size_t to =
            (engine.partition_map().ShardOf(bucket) + 1) % num_shards;
        EXPECT_TRUE(engine.MigrateBucket(bucket, to).ok());
      }
    }
  }
  engine.Quiesce();
  engine.Stop();
  std::lock_guard<std::mutex> lock(mu);
  return Fingerprint(std::move(rows));
}

Workload JoinWorkload() {
  Workload w;
  w.streams.emplace_back("A", KV(), 0);
  w.streams.emplace_back("B", KV(), 0);
  auto join = Expr::Binary(BinaryOp::kEq, Expr::Column("A.k"),
                           Expr::Column("B.k"));
  CacqQuerySpec q0;
  q0.sources = {"A", "B"};
  q0.where = join;
  CacqQuerySpec q1;
  q1.sources = {"A", "B"};
  q1.where = Expr::Binary(
      BinaryOp::kAnd, join,
      Expr::Binary(BinaryOp::kGt, Expr::Column("A.v"),
                   Expr::Literal(Value::Int64(10))));
  w.queries.push_back(std::move(q0));
  w.queries.push_back(std::move(q1));
  Timestamp ts = 1;
  for (int round = 0; round < 8; ++round) {
    std::vector<Tuple> a, b;
    for (int i = 0; i < 10; ++i) {
      a.push_back(KVTuple((round * 3 + i) % 17, round * 10 + i, ts++));
      b.push_back(KVTuple((round * 5 + i * 2) % 17, i, ts++));
    }
    w.feed.emplace_back("A", std::move(a));
    w.feed.emplace_back("B", std::move(b));
  }
  return w;
}

TEST(RebalanceTest, MigrationUnderLoadPreservesJoinResults) {
  // The sharded-equivalence obligation, extended across migrations: the
  // same 12 explorer seeds as the batch-equivalence suite, with a bucket
  // move injected every third feed slice. Stored A-side state built before
  // a move must join B-side arrivals routed after it, on the new owner.
  const Workload w = JoinWorkload();
  const std::string expected = RunInline(w);
  EXPECT_FALSE(expected.empty());

  for (uint64_t seed = 1; seed <= 12; ++seed) {
    ScheduleExplorer explorer(seed);
    auto common = explorer.Explore(
        w.queries.size(), [&](const ScheduleExplorer::Schedule& schedule) {
          const size_t shards = 2 + schedule.trial_seed % 3;  // 2..4.
          const std::string got = RunShardedMigrating(
              w, shards, schedule.trial_seed + 1, schedule.order,
              schedule.quantum, /*num_buckets=*/8);
          EXPECT_EQ(got, expected)
              << "seed " << seed << ", shards " << shards << ", "
              << ScheduleExplorer::Describe(schedule);
          return got;
        });
    ASSERT_TRUE(common.ok()) << common.status();
  }
}

TEST(RebalanceTest, MigrateMovesStoredStateExactlyOnce) {
  // Build SteM state, move every bucket, then probe it: each stored A
  // tuple must join later B arrivals exactly once, from its new shard.
  ShardedEngine::Options opts;
  opts.num_shards = 2;
  opts.num_buckets = 4;
  ShardedEngine engine(opts);
  ASSERT_TRUE(engine.AddStream("A", KV(), 0).ok());
  ASSERT_TRUE(engine.AddStream("B", KV(), 0).ok());
  std::mutex mu;
  std::vector<std::string> rows;
  engine.SetSink([&](std::vector<ShardedEngine::Emission>&& batch) {
    std::lock_guard<std::mutex> lock(mu);
    for (const auto& [q, t] : batch) rows.push_back(t.ToString());
  });
  engine.Start();
  CacqQuerySpec join;
  join.sources = {"A", "B"};
  join.where = Expr::Binary(BinaryOp::kEq, Expr::Column("A.k"),
                            Expr::Column("B.k"));
  ASSERT_TRUE(engine.AddQuery(join).ok());

  std::vector<Tuple> a;
  for (int64_t k = 0; k < 20; ++k) a.push_back(KVTuple(k, k * 2, k + 1));
  ASSERT_TRUE(engine.PushBatch("A", std::move(a)).ok());

  const ShardedEngine::RebalanceStats base = engine.rebalance_stats();
  for (size_t b = 0; b < 4; ++b) {
    const size_t to = (engine.partition_map().ShardOf(b) + 1) % 2;
    ASSERT_TRUE(engine.MigrateBucket(b, to).ok());
  }
  const ShardedEngine::RebalanceStats after = engine.rebalance_stats();
  EXPECT_EQ(after.migrations - base.migrations, 4u);
  // All 20 stored A entries lived in those 4 buckets; every one moved.
  EXPECT_EQ(after.moved_tuples - base.moved_tuples, 20u);
  EXPECT_GT(after.moved_bytes - base.moved_bytes, 0u);

  std::vector<Tuple> b_side;
  for (int64_t k = 0; k < 20; ++k) b_side.push_back(KVTuple(k, 7, 100 + k));
  ASSERT_TRUE(engine.PushBatch("B", std::move(b_side)).ok());
  engine.Quiesce();
  engine.Stop();
  // One match per key, no key lost to the move, none duplicated.
  std::lock_guard<std::mutex> lock(mu);
  EXPECT_EQ(rows.size(), 20u);
  std::sort(rows.begin(), rows.end());
  EXPECT_EQ(std::unique(rows.begin(), rows.end()), rows.end());
}

TEST(RebalanceTest, MigrateBucketGuards) {
  ShardedEngine::Options opts;
  opts.num_shards = 2;
  opts.num_buckets = 4;
  ShardedEngine engine(opts);
  ASSERT_TRUE(engine.AddStream("S", KV(), 0).ok());
  EXPECT_EQ(engine.MigrateBucket(0, 1).code(),
            StatusCode::kFailedPrecondition);  // Not started.
  engine.Start();
  EXPECT_EQ(engine.MigrateBucket(99, 1).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(engine.MigrateBucket(0, 99).code(), StatusCode::kOutOfRange);
  // Moving a bucket to its current owner is a no-op, not a migration.
  const uint64_t migrations = engine.rebalance_stats().migrations;
  const size_t owner = engine.partition_map().ShardOf(size_t{0});
  EXPECT_TRUE(engine.MigrateBucket(0, owner).ok());
  EXPECT_EQ(engine.rebalance_stats().migrations, migrations);
  engine.Stop();
}

// --- Zipfian skew: static mapping vs a triggered rebalance -----------------

TEST(RebalanceTest, ZipfianSkewTriggersRebalanceAndSpreadsLoad) {
  constexpr size_t kShards = 4;
  constexpr size_t kBuckets = 16;
  constexpr size_t kRoundTuples = 24;

  ShardedEngine::Options opts;
  opts.num_shards = kShards;
  opts.num_buckets = kBuckets;
  opts.input_capacity = 8;  // Small: backlog (the trigger signal) builds.
  opts.auto_rebalance = true;
  // The controller thread stays dormant (one wakeup a minute); the test
  // drives PollOnce() by hand so triggering is deterministic, through
  // exactly the code path the thread runs.
  opts.rebalance.poll_interval_ms = 60000;
  opts.rebalance.imbalance_threshold = 1.5;
  opts.rebalance.min_backlog = 32;
  opts.rebalance.cooldown_polls = 0;
  ShardedEngine engine(opts);
  ASSERT_TRUE(engine.AddStream("A", KV(), 0).ok());
  ASSERT_TRUE(engine.AddStream("B", KV(), 0).ok());

  std::mutex mu;
  std::vector<Labelled> rows;
  std::map<QueryId, size_t> label;
  engine.SetSink([&](std::vector<ShardedEngine::Emission>&& batch) {
    std::lock_guard<std::mutex> lock(mu);
    for (const auto& [q, t] : batch) rows.emplace_back(label.at(q),
                                                       t.ToString());
  });
  engine.Start();

  // q0 emits (the equivalence witness); q1/q2 are joins whose residuals
  // never hold (A.v=0 vs B.v=1), so they build and probe SteM state —
  // making the hot shard measurably slow — without an emission blowup.
  std::vector<CacqQuerySpec> queries(3);
  queries[0].sources = {"A"};
  queries[0].where = Expr::Binary(
      BinaryOp::kEq,
      Expr::Binary(BinaryOp::kMod, Expr::Column("A.k"),
                   Expr::Literal(Value::Int64(5))),
      Expr::Literal(Value::Int64(0)));
  auto join = Expr::Binary(BinaryOp::kEq, Expr::Column("A.k"),
                           Expr::Column("B.k"));
  queries[1].sources = {"A", "B"};
  queries[1].where = Expr::Binary(
      BinaryOp::kAnd, join,
      Expr::Binary(BinaryOp::kGt, Expr::Column("A.v"), Expr::Column("B.v")));
  queries[2].sources = {"A", "B"};
  queries[2].where = Expr::Binary(
      BinaryOp::kAnd, join,
      Expr::Binary(BinaryOp::kLt, Expr::Column("A.v"),
                   Expr::Literal(Value::Int64(0))));
  for (size_t i = 0; i < queries.size(); ++i) {
    auto q = engine.AddQuery(queries[i]);
    ASSERT_TRUE(q.ok()) << q.status();
    std::lock_guard<std::mutex> lock(mu);
    label[*q] = i;
  }

  // Start from the worst static mapping: every bucket on shard 0 (cheap
  // while no state exists). This is the "static partitioning meets a
  // skewed workload" scenario Flux §2.4 opens with.
  for (size_t b = 0; b < kBuckets; ++b) {
    ASSERT_TRUE(engine.MigrateBucket(b, 0).ok());
  }
  ASSERT_EQ(engine.partition_map().BucketsOwnedBy(0).size(), kBuckets);
  const ShardedEngine::RebalanceStats base = engine.rebalance_stats();
  RebalanceController* ctrl = engine.rebalance_controller();
  ASSERT_NE(ctrl, nullptr);
  const uint64_t base_triggered = ctrl->triggered();

  // Zipfian feed, regenerated identically for the inline reference below.
  Workload w;
  w.streams.emplace_back("A", KV(), 0);
  w.streams.emplace_back("B", KV(), 0);
  w.queries = queries;
  Rng rng(42);
  Timestamp ts = 1;
  auto make_round = [&](int64_t v) {
    std::vector<Tuple> batch;
    for (size_t i = 0; i < kRoundTuples; ++i) {
      const auto k = static_cast<int64_t>(rng.NextZipf(120, 1.3));
      batch.push_back(KVTuple(k, v, ts++));
    }
    return batch;
  };
  for (int round = 0; round < 110; ++round) {
    w.feed.emplace_back("A", make_round(/*A.v=*/0));
    w.feed.emplace_back("B", make_round(/*B.v=*/1));
  }

  int64_t static_peak = 0;
  int64_t late_sum = 0, late_n = 0;
#ifndef TCQ_METRICS_DISABLED
  Gauge* imbalance = MetricRegistry::Global().GetGauge("tcq.shard.imbalance");
#endif
  size_t round = 0;
  for (const auto& [stream, batch] : w.feed) {
    ASSERT_TRUE(engine.PushBatch(stream, std::vector<Tuple>(batch)).ok());
#ifndef TCQ_METRICS_DISABLED
    if (round < 80) {  // Phase 1: static mapping, skew accumulates.
      static_peak = std::max(static_peak, imbalance->value());
    } else if (round >= 160) {  // Phase 3: after rebalancing.
      late_sum += imbalance->value();
      ++late_n;
    }
#endif
    // Phase 2: let the controller observe and act between rounds.
    if (round >= 80 && round < 160) ctrl->PollOnce();
    ++round;
  }
  engine.Quiesce();

  // The controller fired at least once off the imbalance signal, and the
  // moves actually changed the routing table and moved live SteM state.
  const ShardedEngine::RebalanceStats after = engine.rebalance_stats();
  EXPECT_GE(ctrl->triggered() - base_triggered, 1u);
  EXPECT_GE(after.migrations - base.migrations, 1u);
  EXPECT_GT(after.moved_tuples - base.moved_tuples, 0u);
  EXPECT_LT(engine.partition_map().BucketsOwnedBy(0).size(), kBuckets);

  // Load spread: with the static all-on-0 mapping only shard 0 processed
  // anything; after rebalancing, other shards carry real work.
  size_t busy_shards = 0;
  for (const ShardedEngine::ShardStats& s : engine.shard_stats()) {
    if (s.processed > 0) ++busy_shards;
  }
  EXPECT_GE(busy_shards, 2u);

#ifndef TCQ_METRICS_DISABLED
  // Under the static mapping the exchange reads fully skewed (all backlog
  // on one of four shards = 400); after the rebalance the time-averaged
  // reading drops below that peak.
  EXPECT_GE(static_peak, 200);
  ASSERT_GT(late_n, 0);
  EXPECT_LT(late_sum / late_n, static_peak);
#endif

  std::string got;
  {
    std::lock_guard<std::mutex> lock(mu);
    got = Fingerprint(std::move(rows));
  }
  engine.Stop();
  // Equivalence across every migration the controller performed.
  EXPECT_EQ(got, RunInline(w));
  EXPECT_FALSE(got.empty());
}

// --- Server facade ---------------------------------------------------------

TEST(RebalanceTest, ServerRebalanceApi) {
  Server::Options o;
  o.cacq_shards = 3;
  o.cacq_buckets = 12;
  Server server(o);
  ASSERT_TRUE(server
                  .DefineStream("S", KV(), /*timestamp_field=*/-1,
                                /*partition_field=*/0)
                  .ok());

  EXPECT_EQ(server.Rebalance("nope", 0, 1).code(), StatusCode::kNotFound);
  // No standing query yet: the stream has no sharded engine to rebalance.
  EXPECT_EQ(server.Rebalance("S", 0, 1).code(),
            StatusCode::kFailedPrecondition);

  auto q = server.Submit("SELECT v FROM S WHERE k >= 0");
  ASSERT_TRUE(q.ok()) << q.status();
  std::vector<Tuple> batch;
  for (int64_t i = 0; i < 30; ++i) batch.push_back(KVTuple(i % 7, i, 0));
  ASSERT_TRUE(server.PushBatch("S", std::move(batch)).ok());

  ASSERT_TRUE(server.Rebalance("S", 5, 2).ok());
  EXPECT_EQ(server.Rebalance("S", 99, 0).code(), StatusCode::kOutOfRange);

  std::vector<Tuple> more;
  for (int64_t i = 0; i < 30; ++i) more.push_back(KVTuple(i % 7, i, 0));
  ASSERT_TRUE(server.PushBatch("S", std::move(more)).ok());
  server.Quiesce();
  size_t delivered = 0;
  for (const ResultSet& rs : server.PollAll(*q)) delivered += rs.rows.size();
  EXPECT_EQ(delivered, 60u);  // Nothing lost or duplicated by the move.

  // A one-shard server has nothing to rebalance, standing query or not.
  Server::Options one;
  one.cacq_shards = 1;
  Server inline_server(one);
  ASSERT_TRUE(inline_server.DefineStream("S", KV(), -1, 0).ok());
  ASSERT_TRUE(inline_server.Submit("SELECT v FROM S WHERE k >= 0").ok());
  EXPECT_EQ(inline_server.Rebalance("S", 0, 0).code(),
            StatusCode::kFailedPrecondition);
}

TEST(RebalanceTest, ServerAutoRebalanceLifecycle) {
  // Smoke: a server running the live controller thread (real cadence)
  // starts, ingests, quiesces and tears down cleanly, results intact.
  Server::Options o;
  o.cacq_shards = 2;
  o.auto_rebalance = true;
  o.rebalance.poll_interval_ms = 1;
  o.rebalance.min_backlog = 8;
  o.rebalance.cooldown_polls = 0;
  Server server(o);
  ASSERT_TRUE(server.DefineStream("S", KV(), -1, 0).ok());
  auto q = server.Submit("SELECT v FROM S WHERE k >= 0");
  ASSERT_TRUE(q.ok()) << q.status();
  size_t total = 0;
  for (int round = 0; round < 50; ++round) {
    std::vector<Tuple> batch;
    for (int64_t i = 0; i < 20; ++i) {
      batch.push_back(KVTuple(/*k=*/round % 3, i, 0));  // Skewed keys.
    }
    total += batch.size();
    ASSERT_TRUE(server.PushBatch("S", std::move(batch)).ok());
  }
  server.Quiesce();
  size_t delivered = 0;
  for (const ResultSet& rs : server.PollAll(*q)) delivered += rs.rows.size();
  EXPECT_EQ(delivered, total);
}

}  // namespace
}  // namespace tcq
