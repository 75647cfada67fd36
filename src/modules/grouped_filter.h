#ifndef TCQ_MODULES_GROUPED_FILTER_H_
#define TCQ_MODULES_GROUPED_FILTER_H_

#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <variant>
#include <vector>

#include "common/bitset.h"
#include "expr/ast.h"
#include "tuple/value.h"

namespace tcq {

using QueryId = uint32_t;

/// A grouped filter (CACQ, §3.1): an index over the single-variable boolean
/// factors that many continuous queries place on ONE attribute.
///
/// The index is typed by the column's declared type: constants are held
/// as `int64_t` (INT64, and BOOL as 0/1), `double` or `std::string`,
/// never as `Value`. Registrations are held in cheap
/// O(1)-mutation raw form (flat factor lists) and compiled on demand:
///  * the distinct range constants c_1 < ... < c_k, in one sorted flat
///    array, split the domain into 2k+1 elementary regions
///      (-inf,c_1) [c_1] (c_1,c_2) [c_2] ... [c_k] (c_k,+inf)
///    and every region stores the pass-set of the queries whose range
///    factors all hold there;
///  * every `=`/`!=` constant maps, in one hash keyed by the column's
///    type (a STRING cell probes with a string_view), to the queries
///    whose pass-bit it flips: those all of whose `=` factors hold there,
///    and those with a `!=` factor on it.
/// Apply is then one binary search, one hash lookup and one fused word
/// loop over the query words:
///   pass = region_pass[seg] & adj(v),  adj = no_eq with v's flips
///   candidates &= ~(has_pred & ~pass)
/// where the flips are set into a kept `adj` and restored after the loop
/// (no bitset per constant, no scratch copy).
///
/// The index is rebuilt lazily on the first Apply after any mutation
/// (AddPredicate / RemoveQuery), so registering n predicates costs O(n)
/// appends plus one O(k·n/64 + n log n) batch rebuild, not O(n²).
/// Region pass-sets cost O(k·n/64) memory — fine for the workloads CACQ
/// shares (bound constants drawn from overlapping pools), and the
/// rebuild is where to revisit if k ever approaches n.
///
/// Semantics are the factor's own `Expr::Eval` (`Value::Compare`):
///  * a NULL cell fails every factor;
///  * DOUBLE: -0.0 equals 0.0, and NaN compares equal to every number, so
///    a NaN cell passes `=`, `<=` and `>=` and fails `<`, `>` and `!=`
///    (one precomputed pass-set);
///  * an INT64 cell on a DOUBLE column reads as its double.
/// Any other cell type than the column's is a caller bug (ingest checks
/// cells against the schema).
///
/// Thread rules: Apply is logically const but mutates the cached index;
/// a GroupedFilter must be owned by one thread at a time (per-shard
/// engines already guarantee this).
///
/// Queries may register several factors on the same attribute (e.g. the
/// range 10 < x AND x < 20); a query survives only if all of them hold.
class GroupedFilter {
 public:
  /// An index over a column of `type`: kBool, kInt64, kDouble or kString.
  explicit GroupedFilter(ValueType type);

  /// Registers one boolean factor `attr op constant` for query q.
  /// Supported ops: =, !=, <, <=, >, >=. `constant` has the column's type
  /// and is not NaN (ClassifyFactor leaves every other factor residual).
  /// O(1) amortized; the index is marked stale and recompiled on the next
  /// Apply.
  void AddPredicate(QueryId q, BinaryOp op, const Value& constant);

  /// Drops every factor owned by query q (the query left the system).
  void RemoveQuery(QueryId q);

  /// Narrows `candidates` (bit per query) to those whose factors on this
  /// attribute all accept `v`, a cell of the column (NULL or its type).
  /// Queries with no factors here are untouched, as are candidate bits
  /// past num_queries() (mixed-width is fine).
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
  size_t num_regions() const { return num_regions_; }

 private:
  /// Hash of a column's constants, consistent with their `==`: +0.0 and
  /// -0.0 collide; strings hash as string_views so a cell probes without
  /// a copy.
  struct KeyHash {
    using is_transparent = void;
    size_t operator()(int64_t v) const { return Mix(static_cast<uint64_t>(v)); }
    size_t operator()(double d) const {
      if (d == 0.0) d = 0.0;
      uint64_t bits;
      std::memcpy(&bits, &d, sizeof(bits));
      return Mix(bits);
    }
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
    static size_t Mix(uint64_t x) {  // splitmix64's finalizer.
      x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
      x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
      return static_cast<size_t>(x ^ (x >> 31));
    }
  };

  /// The queries a `=`/`!=` constant flips, as runs of fixups_:
  /// [begin, mid) pass there (all their `=` factors hold, no `!=` does),
  /// [mid, end) fail there (a `!=` factor on it).
  struct PointEntry {
    uint32_t begin = 0, mid = 0, end = 0;
  };

  /// The typed half of the filter: raw factors and their compiled search
  /// structures, over constants of type K.
  template <typename K>
  struct Kernel {
    using Key = K;
    /// How a cell of the column is probed: strings by view.
    using Probe =
        std::conditional_t<std::is_same_v<K, std::string>, std::string_view, K>;
    struct Factor {
      K constant;
      QueryId query;
      BinaryOp op;
    };
    std::vector<Factor> ranges;  ///< <, <=, >, >=; unsorted.
    std::vector<Factor> points;  ///< =, !=.
    // --- Compiled (mutable through the filter's const Apply).
    std::vector<K> bounds;  ///< Sorted distinct range constants.
    std::unordered_map<K, PointEntry, KeyHash, std::equal_to<>> lookup;
  };
  using Kernels =
      std::variant<Kernel<int64_t>, Kernel<double>, Kernel<std::string>>;

  void EnsureQuery(QueryId q);
  void RebuildIndex() const;
  template <typename K>
  void Compile(Kernel<K>* k) const;
  template <typename K>
  void ApplyProbe(const Kernel<K>& k, typename Kernel<K>::Probe v,
                  SmallBitset* candidates) const;

  const ValueType type_;

  // --- Raw registrations: the source of truth, O(1) to mutate.
  mutable Kernels kernel_;
  std::vector<uint32_t> totals_;     ///< All factors of query q here.
  std::vector<uint32_t> eq_counts_;  ///< Of which = factors.
  std::vector<uint64_t> has_pred_;   ///< Words: queries with >=1 factor.
  size_t num_predicates_ = 0;

  // --- Derived index, recompiled lazily (mutable: Apply is const;
  // single-owner-thread discipline). Bitsets are flat words, `words_`
  // per set.
  mutable bool dirty_ = false;
  mutable uint64_t rebuilds_ = 0;
  mutable size_t words_ = 0;
  mutable size_t num_regions_ = 0;
  mutable std::vector<uint64_t> region_pass_;  ///< num_regions_ sets.
  mutable std::vector<uint64_t> no_eq_;  ///< Queries with no = factor here.
  /// no_eq_ between Applies; an Apply flips a constant's fixups in and
  /// back out.
  mutable std::vector<uint64_t> adj_;
  /// DOUBLE: queries with no <, > or != factor, which a NaN cell passes.
  mutable std::vector<uint64_t> nan_pass_;
  mutable std::vector<QueryId> fixups_;  ///< PointEntry runs.

  // --- Rebuild scratch, retained across compiles so churn interleaved
  // with ingest (rebuild per tuple, the worst case) reuses capacity
  // instead of reallocating; cleared at the top of each RebuildIndex.
  struct QueryInterval {
    QueryId query;
    size_t lo, hi;
  };
  mutable std::vector<QueryInterval> intervals_scratch_;
  mutable std::vector<uint64_t> sweep_scratch_;  ///< Running region set.
  mutable std::vector<std::vector<QueryId>> enter_scratch_, exit_scratch_;
  struct PointRef {
    PointEntry* entry;
    QueryId query;
    bool eq;
  };
  mutable std::vector<PointRef> points_scratch_;
};

}  // namespace tcq

#endif  // TCQ_MODULES_GROUPED_FILTER_H_
