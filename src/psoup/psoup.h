#ifndef TCQ_PSOUP_PSOUP_H_
#define TCQ_PSOUP_PSOUP_H_

#include <deque>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "expr/ast.h"
#include "ingress/wrapper.h"
#include "modules/query_index.h"
#include "tuple/schema.h"
#include "tuple/tuple.h"

namespace tcq {

/// PSoup (§3.2, [CF02]): treats data and queries symmetrically.
///
///  * Data arrives  -> built into the Data SteM, then *probes the Query
///    SteM*: the set of standing queries it satisfies is computed (via a
///    QueryIndex over query predicates — the paper calls the
///    Query SteM "a generalization of the notion of a grouped filter"),
///    and the tuple is appended to each matching query's Results Structure.
///  * A query arrives -> built into the Query SteM, then *probes the Data
///    SteM*: previously arrived data is evaluated against it, seeding its
///    Results Structure. This is how new queries run over history.
///
/// Results are thus continuously materialized. Clients may disconnect;
/// when one returns and *invokes* a query, its time window [now-width, now]
/// is imposed on the materialized Results Structure — an O(log n + answer)
/// retrieval instead of a recomputation.
class PSoup {
 public:
  struct Options {
    /// How much stream history the Data SteM retains, as a timestamp span;
    /// bounds both history joins of new queries and memory.
    Timestamp history_span = kMaxTimestamp;
  };

  explicit PSoup(SchemaPtr schema);
  PSoup(SchemaPtr schema, Options options);

  PSoup(const PSoup&) = delete;
  PSoup& operator=(const PSoup&) = delete;
  ~PSoup();

  /// Bounds the Data SteM's resident memory (DESIGN.md §16): history
  /// beyond the newest `resident_limit` tuples demotes to `spool` under
  /// `key`, and Register keeps seeding new queries from the FULL history
  /// by reading the demoted prefix back through the spool's page cache.
  /// Forwards to Archive::AttachSpool.
  void AttachSpool(Spool* spool, std::string key, size_t resident_limit);

  /// Registers a standing query: a predicate over the stream schema plus a
  /// time-based window width imposed at invocation. The query is
  /// immediately applied to retained history.
  Result<QueryId> Register(const ExprPtr& predicate, Timestamp window_width);

  Status Unregister(QueryId q);

  /// Feeds one stream tuple: stores it, matches it against all standing
  /// queries, and materializes it into their Results Structures. Late
  /// (out-of-timestamp-order) tuples are inserted in timestamp order so
  /// Invoke stays correct; duplicated delivery materializes duplicates
  /// (PSoup is at-least-once downstream of an at-least-once source). A
  /// tuple below the history's floor (history_span, or EvictBefore
  /// without a spool) is not kept in history.
  void OnData(const Tuple& tuple);

  /// Client invocation at time `now`: the query's window [now-width+1, now]
  /// imposed on its materialized results. Clients may have been
  /// disconnected arbitrarily long; no recomputation happens here.
  Result<TupleVector> Invoke(QueryId q, Timestamp now) const;

  /// Reclaims history and per-query results older than `ts` (results older
  /// than any invocable window are dead weight). With a spool attached the
  /// history is demoted to disk instead of freed — it leaves RAM but new
  /// queries still seed from it.
  void EvictBefore(Timestamp ts);

  /// History tuples, resident and spooled.
  size_t history_size() const { return history_.size(); }
  size_t resident_history_size() const { return history_.resident_size(); }
  size_t spooled_history_size() const { return history_.spooled_size(); }
  size_t num_active_queries() const { return active_; }
  /// Total materialized result entries across queries.
  size_t materialized_results() const;

 private:
  struct QueryState {
    bool active = false;
    ExprPtr bound_predicate;  ///< Null = match everything.
    Timestamp window_width = 0;
    /// Materialized matches ordered by timestamp (stream order).
    std::deque<Tuple> results;
  };

  /// Publishes the change in the history's resident bytes to the
  /// tcq.psoup.resident_bytes gauge.
  void PublishHistoryBytes();

  const SchemaPtr schema_;

  // Data SteM: retained history in timestamp order, bounded by
  // Options::history_span (and, with a spool, by its resident limit).
  Archive history_;
  int64_t published_bytes_ = 0;

  // Query SteM: the queries' factors, indexed by registration index.
  // Data probes it by narrowing active_bits_.
  QueryIndex index_;
  std::vector<QueryState> queries_;
  SmallBitset active_bits_;
  size_t active_ = 0;
};

}  // namespace tcq

#endif  // TCQ_PSOUP_PSOUP_H_
