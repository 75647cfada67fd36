#ifndef TCQ_FJORDS_PARTITIONED_QUEUE_H_
#define TCQ_FJORDS_PARTITIONED_QUEUE_H_

#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "fjords/queue.h"
#include "telemetry/metrics.h"

namespace tcq {

/// The queue side of a real-threads exchange operator (Flux, [SHCF03]):
/// one bounded FjordQueue per consumer partition, plus the routing and
/// telemetry shared by every exchange instance. Producers scatter items by
/// a caller-supplied partition function (content-sensitive routing — see
/// flux/partition.h for the hash policy); each consumer drains exactly one
/// partition, so per-partition FIFO order is preserved end to end even
/// though partitions proceed independently.
///
/// Telemetry (DESIGN.md §10/§11): per-partition counters under an indexed
/// family — `<family>.<i>.routed` and `<family>.<i>.queue_depth` — and a
/// `<family>.imbalance` gauge holding max/mean backlog as a percentage
/// (0 = idle, 100 = perfectly balanced, >100 = skewed), the statistic
/// Flux's controller watches. The default family is `tcq.shard` (the
/// sharded CACQ exchange).
template <typename T>
class PartitionedQueue {
 public:
  PartitionedQueue(size_t num_partitions, QueueOptions per_partition,
                   std::string metric_family = "tcq.shard")
      : PartitionedQueue(
            std::vector<QueueOptions>(num_partitions, per_partition),
            std::move(metric_family)) {}

  /// One partition per entry of `partitions`, each with its own options
  /// (e.g. the waker of the Execution Object that drains it).
  explicit PartitionedQueue(const std::vector<QueueOptions>& partitions,
                            std::string metric_family = "tcq.shard")
      : family_(std::move(metric_family)) {
    const size_t num_partitions = partitions.size();
    TCQ_CHECK(num_partitions > 0);
    queues_.reserve(num_partitions);
    for (const QueueOptions& options : partitions) {
      queues_.push_back(std::make_unique<FjordQueue<T>>(options));
    }
#ifndef TCQ_METRICS_DISABLED
    MetricRegistry& r = MetricRegistry::Global();
    routed_.reserve(num_partitions);
    depth_.reserve(num_partitions);
    for (size_t i = 0; i < num_partitions; ++i) {
      routed_.push_back(r.GetCounter(family_, i, "routed"));
      depth_.push_back(r.GetGauge(family_, i, "queue_depth"));
    }
    imbalance_ = r.GetGauge(family_ + ".imbalance");
#endif
  }

  size_t num_partitions() const { return queues_.size(); }
  FjordQueue<T>& partition(size_t i) { return *queues_[i]; }
  const FjordQueue<T>& partition(size_t i) const { return *queues_[i]; }

  /// Dual-routing hook (Flux process-pair HA): called with
  /// (partition, item, routed_count) for every EnqueuePartition, under a
  /// per-partition lock held across tee + enqueue — so whatever order the
  /// tee observes IS the order the partition's consumer dequeues. The tee
  /// may mutate the item (e.g. stamp a log sequence number) before it
  /// enters the queue. Set before producers start; the hook must not call
  /// back into this queue.
  using Tee = std::function<void(size_t, T&, size_t)>;
  void SetTee(Tee tee) {
    tee_ = std::move(tee);
    if (tee_mus_.empty()) {
      tee_mus_ = std::vector<std::mutex>(queues_.size());
    }
  }

  /// Enqueues one item bound for partition `p`, booking `routed_count`
  /// routed units against it (an item that is itself a batch of N tuples
  /// books N). Returns false if the partition queue rejected it (closed,
  /// or full with a non-blocking producer end).
  bool EnqueuePartition(size_t p, T item, size_t routed_count = 1) {
    bool ok;
    if (tee_) {
      // Tee + enqueue are one atom per partition: concurrent producers
      // serialize here instead of inside the queue, keeping the replica
      // changelog's record order identical to the queue's task order.
      std::lock_guard<std::mutex> lock(tee_mus_[p]);
      tee_(p, item, routed_count);
      ok = queues_[p]->Enqueue(std::move(item));
    } else {
      ok = queues_[p]->Enqueue(std::move(item));
    }
    if (ok) TCQ_METRIC(routed_[p]->Add(routed_count));
    return ok;
  }

  /// Scatters a batch: each item goes to partition `shard_of(item)`,
  /// preserving input order within each partition. Returns the number of
  /// items accepted. (With blocking producer ends the only losses are
  /// closed partitions.)
  template <typename ShardFn>
  size_t Scatter(std::vector<T>&& items, ShardFn&& shard_of) {
    std::vector<std::vector<T>> groups(queues_.size());
    for (T& item : items) {
      const size_t p = shard_of(static_cast<const T&>(item));
      TCQ_CHECK(p < queues_.size());
      groups[p].push_back(std::move(item));
    }
    items.clear();
    size_t accepted = 0;
    for (size_t p = 0; p < groups.size(); ++p) {
      if (groups[p].empty()) continue;
      const size_t n = groups[p].size();
      const size_t taken = queues_[p]->EnqueueBatch(std::move(groups[p]));
      TCQ_METRIC(routed_[p]->Add(taken));
      accepted += taken;
      (void)n;
    }
    RefreshDepthStats();
    return accepted;
  }

  /// Publishes instantaneous per-partition depths and the max/mean
  /// imbalance percentage to the registry. Called once per scatter (or
  /// per producer batch), not per item — N Size() locks per call.
  void RefreshDepthStats() {
#ifndef TCQ_METRICS_DISABLED
    size_t total = 0;
    size_t max_depth = 0;
    for (size_t p = 0; p < queues_.size(); ++p) {
      const size_t d = queues_[p]->Size();
      depth_[p]->Set(static_cast<int64_t>(d));
      total += d;
      if (d > max_depth) max_depth = d;
    }
    // An idle exchange (total backlog 0) reports 0, not 100: max/mean is
    // undefined with nothing queued, and reporting "balanced" here made an
    // idle pipeline indistinguishable from a loaded balanced one — which
    // would spuriously feed the rebalance controller's trigger statistic.
    const double mean =
        static_cast<double>(total) / static_cast<double>(queues_.size());
    imbalance_->Set(total == 0 ? 0
                               : static_cast<int64_t>(
                                     100.0 * static_cast<double>(max_depth) /
                                     mean));
#endif
  }

  /// Closes every partition (end of stream for all consumers).
  void CloseAll() {
    for (auto& q : queues_) q->Close();
  }

  /// True once every partition is closed and drained.
  bool AllExhausted() const {
    for (const auto& q : queues_) {
      if (!q->Exhausted()) return false;
    }
    return true;
  }

  size_t TotalSize() const {
    size_t total = 0;
    for (const auto& q : queues_) total += q->Size();
    return total;
  }

 private:
  const std::string family_;
  std::vector<std::unique_ptr<FjordQueue<T>>> queues_;
  Tee tee_;
  /// One lock per partition, allocated iff a tee is set (deque of mutexes
  /// is non-movable; vector is sized once in SetTee).
  std::vector<std::mutex> tee_mus_;
#ifndef TCQ_METRICS_DISABLED
  std::vector<Counter*> routed_;
  std::vector<Gauge*> depth_;
  Gauge* imbalance_ = nullptr;
#endif
};

}  // namespace tcq

#endif  // TCQ_FJORDS_PARTITIONED_QUEUE_H_
