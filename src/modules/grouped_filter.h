#ifndef TCQ_MODULES_GROUPED_FILTER_H_
#define TCQ_MODULES_GROUPED_FILTER_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/bitset.h"
#include "expr/ast.h"
#include "tuple/value.h"

namespace tcq {

using QueryId = uint32_t;

/// A grouped filter (CACQ, §3.1): an index over the single-variable boolean
/// factors that many continuous queries place on ONE attribute.
///
/// Registrations are held in cheap O(1)-mutation raw form (hash buckets
/// for =/!=, an unsorted range list) and compiled on demand into an
/// interval-bitmap index: the distinct range constants c_1 < ... < c_k
/// split the value domain into 2k+1 elementary regions
///   (-inf,c_1) [c_1] (c_1,c_2) [c_2] ... [c_k] (c_k,+inf)
/// and every region stores the precomputed bitset of queries whose range
/// factors all hold there. Apply is then a binary search over the k
/// bounds plus O(#queries/64) words of bitset arithmetic:
///   pass = region_pass[seg] & (no_eq | eq_full(v)) & ~ne_hit(v)
///   candidates -= has_pred - pass
/// independent of how many predicates match — the previous design walked
/// a sorted-array prefix per matching predicate (~n/2 steps per tuple at
/// n range CQs) and paid an O(n) sorted insert per registration.
///
/// The index is rebuilt lazily on the first Apply after any mutation
/// (AddPredicate / RemoveQuery), so registering n predicates costs O(n)
/// appends plus one O(k·n/64 + n log n) batch rebuild, not O(n²).
/// Region bitsets cost O(k·n/64) memory — fine for the workloads CACQ
/// shares (bound constants drawn from overlapping pools), and the
/// rebuild is where to revisit if k ever approaches n.
///
/// Thread rules: Apply is logically const but mutates the cached index
/// and scratch; a GroupedFilter must be owned by one thread at a time
/// (per-shard engines already guarantee this), same as before.
///
/// Queries may register several factors on the same attribute (e.g. the
/// range 10 < x AND x < 20); a query survives only if all of them hold.
class GroupedFilter {
 public:
  GroupedFilter() = default;

  /// Registers one boolean factor `attr op constant` for query q.
  /// Supported ops: =, !=, <, <=, >, >=. O(1) amortized; the index is
  /// marked stale and recompiled on the next Apply.
  void AddPredicate(QueryId q, BinaryOp op, Value constant);

  /// Drops every factor owned by query q (the query left the system).
  void RemoveQuery(QueryId q);

  /// Narrows `candidates` (bit per query) to those whose factors on this
  /// attribute all accept `v`. A NULL `v` accepts no factor (SQL), so it
  /// drops every query with a factor here. Queries with no factors here
  /// are untouched, as are candidate bits past num_queries() (mixed-width
  /// is fine).
  /// `candidates` must be sized to at least num_queries() bits.
  void Apply(const Value& v, SmallBitset* candidates) const;

  /// Convenience: the full pass-set for value v over all known queries.
  SmallBitset Matching(const Value& v) const;

  size_t num_queries() const { return totals_.size(); }
  size_t num_predicates() const { return num_predicates_; }
  bool empty() const { return num_predicates_ == 0; }

  /// Index introspection for tests: compilations performed so far,
  /// whether the next Apply will recompile, and the elementary-region
  /// count (2·#distinct-bounds + 1) of the current index.
  uint64_t rebuilds() const { return rebuilds_; }
  bool index_dirty() const { return dirty_; }
  size_t num_regions() const { return region_pass_.size(); }

 private:
  struct RangePred {
    Value constant;
    QueryId query;
    BinaryOp op;  ///< kGt / kGe / kLt / kLe.
  };

  void EnsureQuery(QueryId q);
  void RebuildIndex() const;
  /// Elementary region containing v: binary search over bounds_; region
  /// 2i+1 is the point [c_i], region 2i the open interval below c_i.
  size_t RegionOf(const Value& v) const;

  // --- Raw registrations: the source of truth, O(1) to mutate.
  std::vector<uint32_t> totals_;     ///< All factors of query q here.
  std::vector<uint32_t> ne_counts_;  ///< Of which != factors.
  std::vector<uint32_t> eq_counts_;  ///< Of which = factors.
  SmallBitset has_pred_;             ///< Queries with >=1 factor here.
  std::unordered_map<Value, std::vector<QueryId>, ValueHash> eq_;
  std::unordered_map<Value, std::vector<QueryId>, ValueHash> ne_;
  std::vector<RangePred> ranges_;  ///< Unsorted; compiled at rebuild.
  size_t num_predicates_ = 0;

  // --- Derived interval-bitmap index, recompiled lazily (mutable: Apply
  // is const; single-owner-thread discipline).
  mutable bool dirty_ = false;
  mutable uint64_t rebuilds_ = 0;
  mutable std::vector<Value> bounds_;  ///< Sorted distinct range constants.
  mutable std::vector<SmallBitset> region_pass_;  ///< 2k+1 pass-bitsets.
  mutable SmallBitset no_eq_;  ///< Queries with factors but no = factor.
  /// Value -> queries ALL of whose = factors hold there (bucket
  /// occurrence count equals eq_counts_ — a query with = factors on two
  /// distinct constants is contradictory and appears in neither list).
  mutable std::unordered_map<Value, std::vector<QueryId>, ValueHash> eq_full_;
  /// Value -> deduplicated queries with a != factor on that constant.
  mutable std::unordered_map<Value, std::vector<QueryId>, ValueHash> ne_hit_;

  // --- Apply scratch, sized at rebuild so the hot path never allocates.
  mutable SmallBitset pass_scratch_;
  mutable SmallBitset eq_scratch_;
  mutable SmallBitset fail_scratch_;

  // --- Rebuild scratch, retained across compiles so churn interleaved
  // with ingest (rebuild per tuple, the worst case) reuses capacity
  // instead of reallocating; cleared at the top of each RebuildIndex.
  struct QueryInterval {
    QueryId query;
    size_t lo, hi;
  };
  mutable std::vector<QueryInterval> intervals_scratch_;
  mutable SmallBitset has_range_scratch_;  ///< Queries with >=1 range factor.
  mutable SmallBitset sweep_scratch_;      ///< Running pass-set in the sweep.
  mutable std::vector<std::vector<QueryId>> enter_scratch_, exit_scratch_;
};

}  // namespace tcq

#endif  // TCQ_MODULES_GROUPED_FILTER_H_
