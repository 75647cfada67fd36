// Flux (§2.4) on the sharded CACQ engine: a zipf-skewed stream runs on 4
// shard threads with process-pair standbys. Mid-stream the hottest hash
// bucket migrates off its shard, then a shard is killed and failed over.
// Neither may lose or duplicate a row: the run must deliver exactly what a
// one-shard engine delivers, or the example exits non-zero.
//
//   $ ./build/examples/cluster_flux

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>

#include "cacq/sharded_engine.h"
#include "common/rng.h"

namespace {
using tcq::ShardedEngine;

std::unique_ptr<ShardedEngine> Make(size_t shards, std::atomic<uint64_t>* rows) {
  ShardedEngine::Options o;
  o.num_shards = shards;
  o.num_replicas = shards > 1 ? 1 : 0;
  auto e = std::make_unique<ShardedEngine>(o);
  auto schema = tcq::Schema::Make({{"k", tcq::ValueType::kInt64, ""},
                                   {"v", tcq::ValueType::kInt64, ""}});
  if (!e->AddStream("S", schema, /*partition_column=*/0).ok()) return nullptr;
  e->SetSink([rows](std::vector<ShardedEngine::Emission>&& b) { *rows += b.size(); });
  e->Start();
  tcq::CacqQuerySpec q;  // Two standing queries: everything, and v > 4.
  q.sources = {"S"};
  if (!e->AddQuery(q).ok()) return nullptr;
  q.where = tcq::Expr::Binary(tcq::BinaryOp::kGt, tcq::Expr::Column("v"),
                              tcq::Expr::Literal(tcq::Value::Int64(4)));
  return e->AddQuery(q).ok() ? std::move(e) : nullptr;
}

void PrintShards(const ShardedEngine& e, const char* when) {
  std::printf("%s\n", when);
  const auto stats = e.shard_stats();
  for (size_t i = 0; i < stats.size(); ++i) {
    std::printf("  shard %zu: %s, %zu buckets, routed %llu, processed %llu\n", i,
                e.shard_alive(i) ? "alive" : "DEAD", e.partition_map().BucketsOwnedBy(i).size(),
                (unsigned long long)stats[i].routed, (unsigned long long)stats[i].processed);
  }
}
}  // namespace

int main() {
  tcq::Rng rng(42);
  std::vector<std::vector<tcq::Tuple>> feed(60);
  for (auto& batch : feed) {
    for (int64_t i = 0; i < 200; ++i) {
      const auto k = static_cast<int64_t>(rng.NextZipf(64, 1.2));
      batch.push_back(tcq::Tuple::Make({tcq::Value::Int64(k), tcq::Value::Int64(i % 10)}));
    }
  }
  std::atomic<uint64_t> expected{0}, delivered{0};
  auto reference = Make(1, &expected);
  auto fleet = Make(4, &delivered);
  if (reference == nullptr || fleet == nullptr) return 1;
  for (const auto& batch : feed) (void)reference->PushBatch("S", batch);
  PrintShards(*fleet, "initial state (64 buckets round-robin over 4 shards):");
  std::vector<uint64_t> load(fleet->partition_map().num_buckets());
  for (size_t slice = 0; slice < feed.size(); ++slice) {
    for (const auto& t : feed[slice]) ++load[fleet->partition_map().BucketOf(t, 0)];
    if (!fleet->PushBatch("S", feed[slice]).ok()) return 1;
    if (slice == 19) {  // Demo 1: move the hottest bucket off its shard.
      const size_t hot = std::max_element(load.begin(), load.end()) - load.begin();
      const size_t from = fleet->partition_map().ShardOf(hot);
      const tcq::Status st = fleet->MigrateBucket(hot, (from + 1) % 4);
      std::printf("\n*** hottest bucket %zu (%llu tuples) leaves shard %zu: %s ***\n", hot,
                  (unsigned long long)load[hot], from, st.ToString().c_str());
      PrintShards(*fleet, "after the migration:");
    } else if (slice == 39) {  // Demo 2: kill shard 1, promote its standby.
      if (!fleet->KillShard(1).ok()) return 1;
      while (fleet->shard_alive(1)) std::this_thread::sleep_for(std::chrono::milliseconds(1));
      PrintShards(*fleet, "\n*** shard 1 fails mid-stream ***");
      if (!fleet->FailoverShard(1).ok()) return 1;
      PrintShards(*fleet, "after failover to the standby:");
    }
  }
  if (!fleet->Quiesce().ok()) return 1;
  PrintShards(*fleet, "\nafter the drain:");
  std::printf("  rows delivered: %llu (one-shard engine: %llu)\n",
              (unsigned long long)delivered.load(), (unsigned long long)expected.load());
  return delivered == expected ? 0 : 1;
}
