#ifndef TCQ_EDDY_ROUTED_TUPLE_H_
#define TCQ_EDDY_ROUTED_TUPLE_H_

#include <string>
#include <vector>

#include "common/bitset.h"
#include "common/logging.h"
#include "tuple/schema.h"
#include "tuple/tuple.h"

namespace tcq {

/// Canonical cell layout for tuples routed through one Eddy. A query's
/// sources are numbered 0..N-1; every routed tuple is *full width* — the
/// concatenation of all source schemas in source order — with NULL cells
/// for absent sources. This keeps column indexes stable no matter which
/// join order the Eddy explores: every predicate binds once against the
/// full schema, and joins are cell-wise merges of sparse tuples.
class SourceLayout {
 public:
  SourceLayout() = default;

  /// Adds a source; returns its index. `alias` is the query-level name
  /// ("c1" for `ClosingStockPrices as c1`).
  size_t AddSource(std::string alias, SchemaPtr schema);

  size_t num_sources() const { return aliases_.size(); }
  const std::string& alias(size_t s) const { return aliases_[s]; }
  const SchemaPtr& source_schema(size_t s) const { return schemas_[s]; }
  /// Offset of source s's first cell within the full-width tuple.
  size_t offset(size_t s) const { return offsets_[s]; }
  size_t arity(size_t s) const { return schemas_[s]->num_fields(); }
  size_t total_arity() const { return total_arity_; }

  /// The full-width schema (fields qualified by source alias), built once
  /// after all sources are added.
  const SchemaPtr& full_schema() const;

  /// Index of the source with the given alias, or num_sources() if absent.
  size_t SourceIndexOf(const std::string& alias) const;

  /// Widens a narrow source tuple into full-width canonical form. On a
  /// one-source layout that is the narrow tuple itself: the result shares
  /// its cell block, timestamp, seq and sign.
  Tuple Widen(size_t source, const Tuple& narrow) const;

  /// Cell-wise union of two sparse full-width tuples: each cell takes the
  /// non-NULL side. The source sets must be disjoint (checked by caller).
  /// Result timestamp = max of the two.
  Tuple MergeSparse(const Tuple& a, const Tuple& b) const;

  /// Extracts source s's cells back out of a full-width tuple.
  Tuple Narrow(size_t source, const Tuple& wide) const;

 private:
  std::vector<std::string> aliases_;
  std::vector<SchemaPtr> schemas_;
  std::vector<size_t> offsets_;
  size_t total_arity_ = 0;
  mutable SchemaPtr full_schema_;  // Lazily built cache.
};

/// A tuple in flight inside an Eddy, carrying the routing state the paper
/// calls the "enhanced surrogate object" (§4.2.2): which sources compose
/// it, which operators have handled it, and — in shared (CACQ) mode —
/// which queries it still satisfies.
struct RoutedTuple {
  Tuple tuple;          ///< Full-width sparse tuple.
  SmallBitset sources;  ///< Source composition (bit per source).
  SmallBitset done;     ///< Operators that have completed on this tuple.
  /// CACQ completion lineage: bit q set = tuple still satisfies query q.
  /// Empty (size 0) in single-query mode.
  SmallBitset queries;
  /// Sampled-trace identity (telemetry/trace.h): 0 = untraced (the
  /// overwhelmingly common case); nonzero tuples record each routing hop.
  /// Join outputs inherit the id, so a traced probe's matches stay on
  /// the trace.
  uint64_t trace_id = 0;

  RoutedTuple() = default;
  RoutedTuple(Tuple t, SmallBitset src, size_t num_ops)
      : tuple(std::move(t)), sources(std::move(src)), done(num_ops) {}
};

}  // namespace tcq

#endif  // TCQ_EDDY_ROUTED_TUPLE_H_
