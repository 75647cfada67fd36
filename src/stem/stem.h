#ifndef TCQ_STEM_STEM_H_
#define TCQ_STEM_STEM_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/bitset.h"
#include "common/clock.h"
#include "telemetry/metrics.h"
#include "tuple/schema.h"
#include "tuple/tuple.h"
#include "tuple/value.h"

namespace tcq {

namespace stem_internal {
/// Process-wide SteM telemetry aggregated across all state modules
/// (DESIGN.md §10); per-instance detail remains on SteM::stats().
struct AggregateMetrics {
  Counter* inserts;
  Counter* probes;
  Counter* matches;
  Counter* evictions;
  Counter* scanned;
  Gauge* resident_bytes;  ///< Stored-tuple bytes in RAM.
  static AggregateMetrics& Get();
};
}  // namespace stem_internal

/// A State Module (§2.2, [RDH02]): a temporary repository of homogeneous
/// tuples — "half of a traditional join operator" that the Eddy builds
/// into and probes. With a hash index on the join attribute, an Eddy
/// routing build+probe tuples through two SteMs yields a symmetric hash
/// join, and richer routings yield hybrid join plans.
///
/// Every stored tuple carries its lineage: the set of queries it still
/// satisfied when it was built. Probes hand it back next to the tuple, so
/// one physical SteM serves the joins of many CACQ queries at once (§3.1,
/// [MSHR02]). A single-query Eddy (per-window joins) stores empty
/// lineages. Newly added queries see only tuples stored after their
/// arrival (CACQ semantics: no history; PSoup adds it).
class SteM {
 public:
  /// `key_field` = the cell (of `schema`) the hash index is built on; -1
  /// disables the index (probes scan).
  SteM(std::string name, SchemaPtr schema, int key_field);
  ~SteM();

  SteM(const SteM&) = delete;
  SteM& operator=(const SteM&) = delete;

  const std::string& name() const { return name_; }
  int key_field() const { return key_field_; }
  size_t size() const { return live_; }

  /// Stores a build tuple with its query lineage. A retraction is never
  /// stored: it cancels the matching stored assertion instead.
  void Insert(const Tuple& tuple, const SmallBitset& lineage = SmallBitset());

  /// Applies `fn(stored_tuple, stored_lineage)` to every live stored tuple
  /// matching `key` (nullptr = scan all, in arrival order) whose timestamp
  /// lies in [lo, hi]. The caller combines tuples itself — the Eddy merges
  /// sparse full-width tuples rather than concatenating narrow ones.
  template <typename Fn>
  void ProbeCollect(const Value* key, Timestamp lo, Timestamp hi,
                    Fn&& fn) const {
    uint64_t scanned = 0;
    auto consider = [&](const Entry& e) {
      ++scanned;
      const Timestamp ts = e.tuple.timestamp();
      if (ts < lo || ts > hi) return;
      fn(e.tuple, e.lineage);
    };
    if (key != nullptr && key_field_ >= 0) {
      auto [b, end] = index_.equal_range(*key);
      for (auto it = b; it != end; ++it) {
        const Entry* e = LiveAt(it->second);
        // equal_range is hash-based: confirm true key equality.
        if (e == nullptr ||
            e->tuple.cell(static_cast<size_t>(key_field_)) != *key) {
          continue;
        }
        consider(*e);
      }
    } else {
      for (const Entry& e : entries_) {
        if (!e.dead) consider(e);
      }
    }
    CountProbe(scanned);
  }

  /// Counts `n` join outputs made from this SteM's probes.
  void RecordMatches(uint64_t n) const;

  /// Evicts every stored tuple with timestamp < ts. A full sweep, so out-of-order stragglers go too.
  /// Returns the number evicted.
  size_t EvictBefore(Timestamp ts);

  /// A stored tuple lifted out for state migration or a checkpoint: the
  /// tuple (which carries its timestamp and arrival seq) plus its lineage.
  struct ExtractedEntry {
    Tuple tuple;
    SmallBitset lineage;
  };

  /// Removes every live entry whose key cell satisfies `pred` and returns
  /// them in arrival order. With key_field < 0 (scan-only SteM) `pred` sees
  /// the tuple's first cell — callers partitioning by key never build such
  /// SteMs, but the fallback keeps extraction total.
  template <typename Pred>
  std::vector<ExtractedEntry> ExtractIf(Pred&& pred) {
    std::vector<ExtractedEntry> out;
    const size_t key = key_field_ >= 0 ? static_cast<size_t>(key_field_) : 0;
    for (Entry& e : entries_) {
      if (e.dead || !pred(e.tuple.cell(key))) continue;
      out.push_back(ExtractedEntry{e.tuple, e.lineage});
      Kill(e);
    }
    CompactFront();
    return out;
  }

  /// Re-inserts an extracted entry, preserving lineage, timestamp and seq.
  void Install(const ExtractedEntry& entry) {
    Insert(entry.tuple, entry.lineage);
  }

  /// Copies every live entry in arrival order without removing it — the
  /// checkpoint flavor of ExtractIf.
  std::vector<ExtractedEntry> CopyAll() const;

  /// Drops every live entry (a replica discarding its previous snapshot).
  void ClearAll();

  /// Clears query q's bit from every stored lineage (query removed).
  void ScrubQuery(size_t q);

  // -- Statistics -------------------------------------------------------
  // Internally the SteM counts with telemetry counters (relaxed atomics,
  // also mirrored into the process-wide `tcq.stem.*` aggregates); this
  // plain struct is the snapshot view those counters are read through.
  struct Stats {
    uint64_t inserts = 0;
    uint64_t probes = 0;
    uint64_t matches = 0;
    uint64_t evictions = 0;
    uint64_t scanned = 0;  ///< Stored tuples examined across all probes.
  };
  /// Thin view over the live counters (consistent enough for monitoring;
  /// each field is read atomically).
  Stats stats() const {
    return Stats{stats_.inserts.value(), stats_.probes.value(),
                 stats_.matches.value(), stats_.evictions.value(),
                 stats_.scanned.value()};
  }

 private:
  struct Entry {
    Tuple tuple;
    SmallBitset lineage;
    bool dead = false;
  };

  /// The live entry with global id `id`, or null if compacted or dead.
  const Entry* LiveAt(uint64_t id) const {
    if (id < base_id_) return nullptr;
    const size_t pos = static_cast<size_t>(id - base_id_);
    if (pos >= entries_.size() || entries_[pos].dead) return nullptr;
    return &entries_[pos];
  }
  /// Tombstones a live entry. The tuple stays intact: CompactFront still
  /// reads a dead front entry's key to clean the index.
  void Kill(Entry& e);
  /// Kill plus the eviction count (window expiry, retraction cancel).
  void Evict(Entry& e);
  void CompactFront();
  /// Counts one probe that examined `scanned` stored tuples.
  void CountProbe(uint64_t scanned) const;

  const std::string name_;
  const SchemaPtr schema_;
  const int key_field_;

  int64_t resident_bytes_ = 0;

  // Storage: deque addressed by global id = base_id_ + offset. Dead
  // entries are tombstones; the front compacts when fully dead.
  std::deque<Entry> entries_;
  uint64_t base_id_ = 0;
  size_t live_ = 0;

  // Hash index: key value -> global ids (may contain stale/dead ids that
  // probes filter lazily).
  std::unordered_multimap<Value, uint64_t, ValueHash> index_;

  /// Live per-instance statistics (field names mirror the Stats view).
  struct StatCounters {
    Counter inserts;
    Counter probes;
    Counter matches;
    Counter evictions;
    Counter scanned;
  };
  mutable StatCounters stats_;
};

using SteMPtr = std::shared_ptr<SteM>;

}  // namespace tcq

#endif  // TCQ_STEM_STEM_H_
