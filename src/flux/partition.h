#ifndef TCQ_FLUX_PARTITION_H_
#define TCQ_FLUX_PARTITION_H_

#include <atomic>
#include <cstddef>
#include <vector>

#include "common/logging.h"
#include "tuple/tuple.h"
#include "tuple/value.h"

namespace tcq {

/// The Flux exchange's content-sensitive routing policy ([SHCF03] §2:
/// "route each tuple by a hash of its partitioning attribute"): same key
/// -> same partition, for any consumer count.
///
/// Value::Hash() is consistent with Value::Compare across numeric types
/// (1 and 1.0 hash together because they compare equal), so an equi-join
/// whose two sides carry the same key lands both sides on the same shard
/// even when one side is int and the other double. NULL keys hash like any
/// other value — they all collapse onto one partition, which matches SQL
/// join semantics (NULL joins nothing, so colocating them is harmless).
class HashPartitioner {
 public:
  explicit HashPartitioner(size_t num_partitions)
      : num_partitions_(num_partitions) {
    TCQ_CHECK(num_partitions_ > 0);
  }

  size_t num_partitions() const { return num_partitions_; }

  size_t PartitionOf(const Value& key) const {
    return key.Hash() % num_partitions_;
  }

  /// Partition of a tuple by one of its columns.
  size_t PartitionOf(const Tuple& t, size_t key_column) const {
    return PartitionOf(t.cell(key_column));
  }

 private:
  size_t num_partitions_;
};

/// The one repartitioning abstraction (Flux §2.4): a fixed number of hash
/// buckets (key -> bucket through the HashPartitioner policy above) plus a
/// mutable bucket -> shard lookup table. Static `hash % N` pins every key
/// to a shard forever; indirecting through buckets lets a controller move
/// a bucket's state and flip one table entry while the pipeline runs —
/// keys never change *bucket*, so per-key FIFO survives any sequence of
/// ownership flips that drains in between.
///
/// The ShardedEngine exchange (cacq/sharded_engine.cc) routes through
/// this type. Concurrency: BucketOf/ShardOf are safe from any thread
/// (owner entries are atomics); SetOwner publishes with release semantics
/// so a reader that observes the flip also observes the state movement
/// the caller sequenced before it. Coordinating *when* a flip is safe
/// (pause/drain/move/resume) is the caller's protocol, not this table's.
class PartitionMap {
 public:
  /// Buckets start round-robin: bucket b owned by shard b % num_shards.
  PartitionMap(size_t num_buckets, size_t num_shards)
      : hasher_(num_buckets), num_shards_(num_shards), owner_(num_buckets) {
    TCQ_CHECK(num_shards_ > 0);
    for (size_t b = 0; b < num_buckets; ++b) {
      owner_[b].store(b % num_shards_, std::memory_order_relaxed);
    }
  }

  PartitionMap(const PartitionMap&) = delete;
  PartitionMap& operator=(const PartitionMap&) = delete;

  size_t num_buckets() const { return hasher_.num_partitions(); }
  size_t num_shards() const { return num_shards_; }

  /// Key -> bucket: pure hashing, immutable for the map's lifetime.
  size_t BucketOf(const Value& key) const { return hasher_.PartitionOf(key); }
  size_t BucketOf(const Tuple& t, size_t key_column) const {
    return hasher_.PartitionOf(t, key_column);
  }

  /// Bucket -> shard: the mutable routing table.
  size_t ShardOf(size_t bucket) const {
    TCQ_DCHECK(bucket < owner_.size());
    return owner_[bucket].load(std::memory_order_acquire);
  }
  size_t ShardOf(const Value& key) const { return ShardOf(BucketOf(key)); }
  size_t ShardOf(const Tuple& t, size_t key_column) const {
    return ShardOf(BucketOf(t, key_column));
  }

  /// Flips one bucket's ownership. The caller must have moved (or be about
  /// to rebuild) the bucket's state per the migration protocol.
  void SetOwner(size_t bucket, size_t shard) {
    TCQ_CHECK(bucket < owner_.size() && shard < num_shards_);
    owner_[bucket].store(shard, std::memory_order_release);
  }

  /// Snapshot of the full routing table (telemetry / controller planning).
  std::vector<size_t> Owners() const {
    std::vector<size_t> out(owner_.size());
    for (size_t b = 0; b < owner_.size(); ++b) out[b] = ShardOf(b);
    return out;
  }

  std::vector<size_t> BucketsOwnedBy(size_t shard) const {
    std::vector<size_t> out;
    for (size_t b = 0; b < owner_.size(); ++b) {
      if (ShardOf(b) == shard) out.push_back(b);
    }
    return out;
  }

 private:
  HashPartitioner hasher_;
  size_t num_shards_;
  std::vector<std::atomic<size_t>> owner_;  ///< bucket -> shard.
};

}  // namespace tcq

#endif  // TCQ_FLUX_PARTITION_H_
