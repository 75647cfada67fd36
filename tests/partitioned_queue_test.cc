#include "fjords/partitioned_queue.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "flux/partition.h"
#include "telemetry/metrics.h"
#include "tuple/tuple.h"

namespace tcq {
namespace {

QueueOptions NonBlocking(size_t capacity) {
  QueueOptions o;
  o.capacity = capacity;
  o.enqueue = QueueEnd::kNonBlocking;
  o.dequeue = QueueEnd::kNonBlocking;
  return o;
}

TEST(PartitionedQueueTest, ScatterPreservesPerPartitionOrder) {
  PartitionedQueue<int> pq(3, NonBlocking(64), "tcq.test.pqorder");
  std::vector<int> items;
  for (int i = 0; i < 30; ++i) items.push_back(i);
  EXPECT_EQ(pq.Scatter(std::move(items), [](int v) {
    return static_cast<size_t>(v) % 3;
  }),
            30u);
  EXPECT_EQ(pq.TotalSize(), 30u);

  for (size_t p = 0; p < 3; ++p) {
    std::vector<int> out;
    EXPECT_EQ(pq.partition(p).DequeueUpTo(64, &out), 10u);
    for (size_t i = 0; i < out.size(); ++i) {
      // Partition p receives p, p+3, p+6, ... in arrival order.
      EXPECT_EQ(out[i], static_cast<int>(p + 3 * i));
    }
  }
}

TEST(PartitionedQueueTest, HashPartitionerRoutesConsistentKeys) {
  // The Flux routing policy: equal keys always land on the same partition,
  // and numerically equal keys of different types agree (Value::Hash is
  // consistent with cross-type Compare).
  HashPartitioner part(4);
  for (int64_t k = 0; k < 100; ++k) {
    const size_t p = part.PartitionOf(Value::Int64(k));
    EXPECT_EQ(part.PartitionOf(Value::Int64(k)), p);
    EXPECT_EQ(part.PartitionOf(Value::Double(static_cast<double>(k))), p);
    EXPECT_LT(p, 4u);
  }
  // Tuple form keys off the given column.
  Tuple t = Tuple::Make({Value::String("MSFT"), Value::Int64(7)}, 0);
  EXPECT_EQ(part.PartitionOf(t, 1), part.PartitionOf(Value::Int64(7)));
  EXPECT_EQ(part.PartitionOf(t, 0), part.PartitionOf(Value::String("MSFT")));
}

TEST(PartitionedQueueTest, CloseAllExhaustsAfterDrain) {
  PartitionedQueue<int> pq(2, NonBlocking(8), "tcq.test.pqclose");
  EXPECT_TRUE(pq.EnqueuePartition(0, 42));
  EXPECT_FALSE(pq.AllExhausted());
  pq.CloseAll();
  EXPECT_FALSE(pq.AllExhausted());  // Partition 0 still holds the 42.
  EXPECT_FALSE(pq.EnqueuePartition(1, 43));  // Closed: rejected.
  std::vector<int> out;
  EXPECT_EQ(pq.partition(0).DequeueUpTo(8, &out), 1u);
  EXPECT_TRUE(pq.AllExhausted());
}

#ifndef TCQ_METRICS_DISABLED
TEST(PartitionedQueueTest, PublishesRoutedDepthAndImbalance) {
  MetricRegistry& reg = MetricRegistry::Global();
  PartitionedQueue<int> pq(2, NonBlocking(64), "tcq.test.pqstats");

  // Skewed scatter: 6 items to partition 0, 2 to partition 1.
  std::vector<int> items = {0, 0, 0, 0, 0, 0, 1, 1};
  EXPECT_EQ(pq.Scatter(std::move(items),
                       [](int v) { return static_cast<size_t>(v); }),
            8u);
  EXPECT_EQ(reg.GetCounter("tcq.test.pqstats", 0, "routed")->value(), 6u);
  EXPECT_EQ(reg.GetCounter("tcq.test.pqstats", 1, "routed")->value(), 2u);
  EXPECT_EQ(reg.GetGauge("tcq.test.pqstats", 0, "queue_depth")->value(), 6);
  EXPECT_EQ(reg.GetGauge("tcq.test.pqstats", 1, "queue_depth")->value(), 2);
  // max/mean = 6/4 = 150%.
  EXPECT_EQ(reg.GetGauge("tcq.test.pqstats.imbalance")->value(), 150);

  // EnqueuePartition books the caller-declared routed units (a task that
  // carries a batch of N tuples books N, not 1).
  EXPECT_TRUE(pq.EnqueuePartition(1, 9, /*routed_count=*/5));
  EXPECT_EQ(reg.GetCounter("tcq.test.pqstats", 1, "routed")->value(), 7u);

  // An idle exchange reads 0, not 100: "no backlog" must be
  // distinguishable from "loaded but perfectly balanced", or an idle
  // pipeline would feed the rebalance trigger a balanced-looking signal.
  std::vector<int> drain;
  pq.partition(0).DequeueUpTo(64, &drain);
  pq.partition(1).DequeueUpTo(64, &drain);
  pq.RefreshDepthStats();
  EXPECT_EQ(reg.GetGauge("tcq.test.pqstats.imbalance")->value(), 0);

  // And loading it again restores a live reading.
  EXPECT_TRUE(pq.EnqueuePartition(0, 1));
  EXPECT_TRUE(pq.EnqueuePartition(1, 2));
  pq.RefreshDepthStats();
  EXPECT_EQ(reg.GetGauge("tcq.test.pqstats.imbalance")->value(), 100);
}
#endif  // TCQ_METRICS_DISABLED

TEST(PartitionMapTest, RoundRobinDefaultAndDynamicOwnership) {
  PartitionMap map(8, 3);
  EXPECT_EQ(map.num_buckets(), 8u);
  EXPECT_EQ(map.num_shards(), 3u);
  for (size_t b = 0; b < 8; ++b) EXPECT_EQ(map.ShardOf(b), b % 3);
  EXPECT_EQ(map.BucketsOwnedBy(0).size(), 3u);  // 0, 3, 6.

  // Key -> bucket is the HashPartitioner policy and never changes; the
  // bucket -> shard half is what SetOwner flips.
  const Value key = Value::Int64(42);
  const size_t bucket = map.BucketOf(key);
  const size_t before = map.ShardOf(key);
  const size_t moved_to = (before + 1) % 3;
  map.SetOwner(bucket, moved_to);
  EXPECT_EQ(map.BucketOf(key), bucket);
  EXPECT_EQ(map.ShardOf(key), moved_to);
  EXPECT_EQ(map.Owners()[bucket], moved_to);

  // Tuple form keys off the given column, matching the Value form.
  Tuple t = Tuple::Make({Value::String("x"), Value::Int64(42)}, 0);
  EXPECT_EQ(map.ShardOf(t, 1), moved_to);
}

TEST(PartitionMapTest, BucketsOwnedByFollowsSetOwner) {
  PartitionMap map(4, 2);
  for (size_t b = 0; b < 3; ++b) map.SetOwner(b, 1);
  map.SetOwner(3, 0);
  EXPECT_EQ(map.BucketsOwnedBy(1).size(), 3u);
  EXPECT_EQ(map.ShardOf(3), 0u);
}

}  // namespace
}  // namespace tcq
