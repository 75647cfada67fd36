#ifndef TCQ_EDDY_EDDY_H_
#define TCQ_EDDY_EDDY_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/object_pool.h"
#include "eddy/operator.h"
#include "eddy/policy.h"
#include "eddy/routed_tuple.h"

namespace tcq {

/// The Eddy (§2.2, [AH00]): an adaptive tuple router. Tuples injected from
/// sources are routed, one policy decision at a time, through the set of
/// connected operators until every applicable operator has handled them;
/// tuples that then span all of the Eddy's sources are emitted to the sink.
///
/// "Adapting adaptivity" (§4.3) is exposed through two knobs:
///  * batch_size — a routing decision is reused for the next batch_size-1
///    tuples of the same source composition, amortizing decision cost;
///  * fixed_sequence_length — each decision fixes a sequence of up to k
///    operators (ranked by the decision-time ticket snapshot) that the
///    tuple visits without further policy consultation.
class Eddy {
 public:
  struct Options {
    size_t batch_size = 1;
    size_t fixed_sequence_length = 1;
  };

  /// `layout` must outlive the Eddy and is shared with its operators.
  Eddy(const SourceLayout* layout, std::unique_ptr<RoutingPolicy> policy);
  Eddy(const SourceLayout* layout, std::unique_ptr<RoutingPolicy> policy,
       Options options);

  Eddy(const Eddy&) = delete;
  Eddy& operator=(const Eddy&) = delete;

  /// Registers an operator; returns its index. Operators may be added
  /// while the Eddy runs (new queries folding in) — in-flight tuples
  /// simply become eligible for the new operator too.
  ///
  /// `group` >= 0 marks alternative access methods for the same logical
  /// work (e.g. a SteM probe and a remote-index probe into the same
  /// source): when a tuple visits one member, every member is marked done
  /// for it, so alternatives never duplicate results. This is what lets an
  /// Eddy "run both query plans at the same time" (§2.2) without wasted
  /// or repeated matches.
  size_t AddOperator(EddyOperatorPtr op, int group = -1);

  size_t num_operators() const { return ops_.size(); }
  const EddyOperatorPtr& op(size_t i) const { return ops_[i]; }

  /// Sink for completed tuples (source set == all sources). The RoutedTuple
  /// passes through so shared-mode consumers can read its query lineage.
  void SetSink(std::function<void(RoutedTuple&&)> sink) {
    sink_ = std::move(sink);
  }

  /// Shared (CACQ) mode sink: receives EVERY tuple whose routing finished,
  /// whatever its source composition — single-stream selection queries
  /// consume base tuples while join queries consume composites. When set,
  /// this replaces the full-composition sink entirely.
  void SetPartialSink(std::function<void(RoutedTuple&&)> sink) {
    partial_sink_ = std::move(sink);
  }

  /// Injects a narrow source tuple: widened, stamped, routed on Drain().
  void Inject(size_t source, const Tuple& narrow);

  /// Injects a whole same-source batch at once (§4.3 "batching tuples to
  /// amortize per-tuple overhead"): widens and stamps each tuple, and
  /// marks the batch as ONE routing unit — tuples of the batch at the
  /// same routing stage reuse a single policy decision during the next
  /// Drain(), even when batch_size is 1, exactly as if batch_size had
  /// been raised to the batch length for this batch only. Result sets
  /// are routing-invariant (§2.2), so batch and single injection yield
  /// identical answers; only decision count and routing order differ.
  void InjectBatch(size_t source, const std::vector<Tuple>& batch);

  /// Injects a pre-built routed tuple (shared mode sets `queries` first).
  void InjectRouted(RoutedTuple rt);

  /// Batch counterpart of InjectRouted: enqueues all tuples and applies
  /// the same one-decision-per-batch amortization as InjectBatch.
  void InjectRoutedBatch(std::vector<RoutedTuple>&& batch);

  /// Routes until the internal queue is empty.
  void Drain();

  /// RecordFixedVisits' `op` for tuples that no operator is eligible for.
  static constexpr size_t kNoOperator = SIZE_MAX;

  /// The fixed route (§4.3): when the owner knows that a tuple's one
  /// eligible operator is `op`, there is no decision to make, so it may
  /// apply the operator itself instead of queueing the tuple. These two
  /// calls keep the eddy's books exactly as InjectRouted + Drain would.
  ///
  /// StampArrival stamps `t` as InjectRouted does (the arrival seq when
  /// `t` has none, one trace-sampling draw) and returns the trace id. A
  /// nonzero id means the tracer sampled the tuple: the owner injects it
  /// with that id so its hops are recorded.
  uint64_t StampArrival(Tuple* t);

  /// Accounts tuples applied directly to `op`, one pass flag each, in
  /// arrival order: a visit and the op's routed/passed counts, the
  /// policy's Observe, and an emission for each that passed. With
  /// kNoOperator no operator was eligible: each tuple is emitted without
  /// a visit. Flushes the routing telemetry as Drain does.
  void RecordFixedVisits(size_t op, std::span<const uint8_t> passed);

  /// Turns the §4.3 knobs while running (used by the KnobController).
  void set_batch_size(size_t batch) {
    options_.batch_size = batch < 1 ? 1 : batch;
    decision_cache_.clear();
  }
  void set_fixed_sequence_length(size_t len) {
    options_.fixed_sequence_length = len < 1 ? 1 : len;
  }
  size_t batch_size() const { return options_.batch_size; }
  size_t fixed_sequence_length() const {
    return options_.fixed_sequence_length;
  }

  const std::vector<EddyOpStats>& op_stats() const { return stats_; }
  uint64_t decisions() const { return decisions_; }
  uint64_t visits() const { return visits_; }
  uint64_t emitted() const { return emitted_; }
  /// Decision-cache outcomes while a reuse span (batch_size knob or an
  /// injected batch) was active: hits reused a cached choice, misses paid
  /// a policy consultation. hits / (hits + misses) is the amortization
  /// the §4.3 batching knob actually achieved.
  uint64_t decision_cache_hits() const { return cache_hits_; }
  uint64_t decision_cache_misses() const { return cache_misses_; }
  /// Times the reusable eligibility/ranking scratch buffers had to grow
  /// (heap-allocate). visits() / scratch_allocs() is the amortization
  /// factor of the per-hop buffer reuse: it climbs without bound on a
  /// steady operator set, where the old code allocated once per hop.
  uint64_t scratch_allocs() const { return scratch_allocs_; }
  const SourceLayout& layout() const { return *layout_; }

  /// Raises the arrival-order counter to at least `floor`. State migration
  /// installs foreign SteM entries carrying their donor eddy's sequence
  /// numbers; the recipient must assign strictly larger seqs to future
  /// arrivals or the probe-side `stored.seq() >= probe.seq()` dedup would
  /// silently drop matches against the installed entries. Call on the
  /// thread that owns this eddy (same discipline as Inject).
  void EnsureSeqAtLeast(int64_t floor) {
    if (next_seq_ <= floor) next_seq_ = floor + 1;
  }

  /// The seq the next arrival will receive. Checkpointing captures it so a
  /// replica restored from the checkpoint stamps replayed arrivals with
  /// seqs the dedup treats exactly like the primary would have (read on
  /// the owning thread, same discipline as EnsureSeqAtLeast).
  int64_t next_seq() const { return next_seq_; }

 private:
  /// Collects indexes of operators eligible for `rt` and not yet done.
  /// Tracks scratch growth when `out` is one of the member buffers.
  void EligibleOps(const RoutedTuple& rt, std::vector<size_t>* out);

  /// Routes one tuple one hop; re-enqueues it and its outputs as needed.
  void RouteOne(RoutedTuple rt);

  /// Emits or discards a tuple that no operator wants anymore.
  void Complete(RoutedTuple&& rt);

  /// Decision-time ranking used to fix operator sequences: ops sorted by
  /// tickets/cost descending, written into the reusable `*out` scratch.
  void SnapshotRanking(std::vector<size_t>* out) const;

  const SourceLayout* layout_;
  std::unique_ptr<RoutingPolicy> policy_;
  Options options_;

  std::vector<EddyOperatorPtr> ops_;
  std::vector<int> groups_;
  std::vector<bool> is_probe_;
  std::vector<EddyOpStats> stats_;
  std::vector<double> cost_hints_;
  int64_t next_seq_ = 1;

  /// Routing queue chunks come from the thread-local BlockPool: the queue
  /// oscillates around empty once per Drain, so deque chunk churn would
  /// otherwise hit the allocator every injection burst.
  std::deque<RoutedTuple, PoolAllocator<RoutedTuple>> queue_;
  std::function<void(RoutedTuple&&)> sink_;
  std::function<void(RoutedTuple&&)> partial_sink_;

  // Batch decision cache: source-set key -> (chosen op, uses remaining).
  struct CachedDecision {
    size_t op = 0;
    size_t remaining = 0;
  };
  std::unordered_map<uint64_t, CachedDecision> decision_cache_;
  /// When > 1, an injected batch of this many tuples is in flight: new
  /// cached decisions get at least batch_hint_ - 1 reuses, so the whole
  /// batch routes through one decision per stage. Reset when Drain()
  /// empties the queue, with cache entries clamped back to the
  /// options_.batch_size budget (cleared when that knob is 1), so batch
  /// amortization never leaks into subsequent single-tuple injections
  /// while the configured knob keeps its remaining reuses.
  size_t batch_hint_ = 0;

  /// Reusable per-hop scratch (safe: routing is single-threaded and
  /// non-reentrant). Avoids one-to-three vector allocations per hop.
  std::vector<size_t> eligible_scratch_;
  std::vector<size_t> ranking_scratch_;

  // Relaxed atomics (telemetry Counter), not plain uint64_t: under sharded
  // execution each eddy runs on its shard's thread while snapshot paths
  // (Server::SnapshotMetrics, ShardedEngine::shard_stats) read the
  // accessors from other threads. Routing itself stays single-threaded,
  // so the write side is uncontended. flushed_* below stay plain — they
  // are only touched inside Drain() on the owning thread.
  Counter decisions_;
  Counter visits_;
  Counter emitted_;
  Counter scratch_allocs_;
  Counter cache_hits_;
  Counter cache_misses_;

#ifndef TCQ_METRICS_DISABLED
  /// Records one hop of a traced tuple (rt.trace_id != 0).
  void TraceHop(const RoutedTuple& rt, size_t op, int decision_src,
                bool passed) const;
  /// Pushes counter deltas since the last flush onto the global registry.
  /// Called once per Drain() — batch-amortized, off the per-hop path.
  void FlushMetrics();
  uint64_t flushed_decisions_ = 0;
  uint64_t flushed_visits_ = 0;
  uint64_t flushed_emitted_ = 0;
  uint64_t flushed_cache_hits_ = 0;
  uint64_t flushed_cache_misses_ = 0;
#endif
};

}  // namespace tcq

#endif  // TCQ_EDDY_EDDY_H_
