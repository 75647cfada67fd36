#ifndef TCQ_CACQ_MIGRATION_H_
#define TCQ_CACQ_MIGRATION_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "stem/stem.h"
#include "tuple/tuple.h"

namespace tcq {

/// One bucket's worth of engine state, lifted out of a donor shard's
/// CacqEngine for Flux-style migration (DESIGN.md §12).
///
/// What moves: every SteM's live entries whose join key hashes into
/// the bucket — tuple, query-lineage bitmap, timestamp, and arrival seq all
/// travel (the tuple carries the latter two). What does NOT move: grouped
/// filters, residual predicates, and query registrations are replicated on
/// every shard already (query changes apply to all shards), so the
/// recipient rebuilds nothing; PSoup history and window runners live on the
/// single-shard ingress path and are not bucket-partitioned state.
///
/// The seq numbers are donor-relative: InstallBucketState raises the
/// recipient eddy's arrival counter past `max_seq` so the probe-side
/// `stored.seq() >= probe.seq()` dedup keeps treating installed entries as
/// "older than" every future recipient arrival. Between shards the per-key
/// orders never interleave (one bucket = one owner at a time), so this
/// relabeling preserves exactly the arrival-order semantics dedup needs.
struct BucketState {
  /// One SteM's extracted entries, addressed by the engine-invariant
  /// (target_source, stored key column) pair — identical across shards
  /// because every shard registers the same streams and queries.
  struct StemState {
    size_t target_source = 0;
    int stored_key = -1;
    std::vector<SteM::ExtractedEntry> entries;
  };

  size_t bucket = 0;
  std::vector<StemState> stems;
  /// Max arrival seq across all extracted tuples (0 if none).
  int64_t max_seq = 0;

  size_t tuple_count() const {
    size_t n = 0;
    for (const StemState& s : stems) n += s.entries.size();
    return n;
  }

  /// Approximate payload size for telemetry: cells are a fixed-size Value
  /// block per tuple (DESIGN.md §9), so arity * sizeof(Value) plus the
  /// tuple header is a faithful estimate without walking string cells.
  size_t approx_bytes() const {
    size_t bytes = 0;
    for (const StemState& s : stems) {
      for (const SteM::ExtractedEntry& e : s.entries) {
        bytes += sizeof(Tuple) + e.tuple.arity() * sizeof(Value);
      }
    }
    return bytes;
  }
};

/// A whole shard engine's SteM state plus its eddy arrival counter, copied
/// (not extracted) for process-pair replication (DESIGN.md §13). Unlike
/// BucketState this is non-destructive — the primary keeps executing from
/// the same state the snapshot now mirrors — and it spans every bucket the
/// shard owns, because failover promotes the whole shard, not one bucket.
///
/// `next_seq` is the primary eddy's arrival counter at the checkpoint
/// boundary. RestoreCheckpoint raises the replica's counter to it, so
/// changelog tuples replayed after the restore receive exactly the seqs
/// the primary would have assigned — the probe-side dedup then behaves
/// identically on both sides of a failover.
///
/// `complete` is the torn-checkpoint guard: a snapshot produced by a
/// crashed or fault-injected checkpointer arrives with complete == false
/// and MUST be rejected by the replica (which keeps its previous snapshot
/// and the full changelog tail instead — the hydra recovery rule).
struct EngineCheckpoint {
  std::vector<BucketState::StemState> stems;
  int64_t next_seq = 1;
  bool complete = true;

  size_t tuple_count() const {
    size_t n = 0;
    for (const BucketState::StemState& s : stems) n += s.entries.size();
    return n;
  }

  size_t approx_bytes() const {
    size_t bytes = 0;
    for (const BucketState::StemState& s : stems) {
      for (const SteM::ExtractedEntry& e : s.entries) {
        bytes += sizeof(Tuple) + e.tuple.arity() * sizeof(Value);
      }
    }
    return bytes;
  }
};

}  // namespace tcq

#endif  // TCQ_CACQ_MIGRATION_H_
