#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "tuple/schema.h"
#include "tuple/tuple.h"
#include "util.h"

namespace perfbench {

/// The stream every workload feeds: Trades(ts, sym, price, id). `id` is
/// the tuple's position in its feed, so a delivered row names the input
/// it came from and the benchmark can check it against the reference.
inline constexpr const char* kStream = "Trades";
tcq::SchemaPtr TradesSchema();
std::string SymbolName(size_t sym);

/// One named workload. Every field is fixed per workload; the seed only
/// picks the data values and query constants, and query constants are
/// stratified so that the amount of work barely depends on the seed.
struct Spec {
  std::string name;
  size_t shards = 1;            ///< Server::Options::cacq_shards.
  size_t batch = 256;           ///< Tuples per PushBatch.
  size_t closed_loop_tuples = 0;  ///< Input size of one closed-loop pass.
  double offered_rate = 0;      ///< Open-loop tuples per second.
  size_t num_symbols = 16;
  double zipf_s = 0;            ///< Key skew; 0 = uniform.
  int64_t max_disorder = 0;     ///< Ticks an arrival may trail the newest.
  size_t churn_every = 0;       ///< Batches per Cancel+Submit (0 = none).
  size_t churn_slots = 0;       ///< Short-lived queries live at any time.
};

const Spec* FindSpec(const std::string& name);
const std::vector<Spec>& AllSpecs();

/// A standing query the benchmark can evaluate itself.
struct QueryDef {
  enum class Kind { kFilter, kWindow };
  Kind kind = Kind::kFilter;
  size_t sym = 0;
  // Filter: sym = X [AND price > gt] [AND price < lt]; the bounds are
  // open, kNone leaves a side out.
  static constexpr int64_t kNone = INT64_MIN;
  int64_t gt = kNone;
  int64_t lt = kNone;
  // Window: COUNT/SUM/MAX over WindowIs(t - width + 1, t), t += step.
  int64_t width = 0;
  int64_t step = 0;

  std::string Sql() const;
  bool Matches(size_t s, int64_t price) const {
    return s == sym && (gt == kNone || price > gt) && (lt == kNone || price < lt);
  }
};

/// The standing population registered at set-up.
std::vector<QueryDef> Population(const Spec& spec, uint64_t seed);
/// The k-th short-lived query of a session: a churn-slot occupant or a
/// fold-in probe.
QueryDef TransientQuery(const Spec& spec, size_t k, Rng* rng);

/// Generated input, columnar. Tuple i carries id i.
struct Feed {
  std::vector<int64_t> ts;
  std::vector<uint16_t> sym;
  std::vector<int64_t> price;

  size_t size() const { return ts.size(); }
  /// Largest timestamp among the first `end` tuples (0 when none).
  int64_t max_ts(size_t end) const;
  tcq::Tuple MakeTuple(size_t i) const;
  std::vector<tcq::Tuple> MakeBatch(size_t begin, size_t end) const;
};

/// Tuples sharing one timestamp tick.
inline constexpr size_t kTuplesPerTick = 16;
/// Share of arrivals displaced when the workload has a disorder bound.
inline constexpr double kDisplacedShare = 0.1;

/// `n` tuples in arrival order. Timestamps advance one tick per
/// kTuplesPerTick arrivals; with a disorder bound D, a displaced arrival
/// trails its tick by 1..D ticks, never more, so no arrival is beyond the
/// bound.
Feed Generate(const Spec& spec, uint64_t seed, size_t n);

/// Order-independent fingerprint of a filter query's delivered rows.
struct FilterTally {
  uint64_t rows = 0;
  uint64_t hash = 0;
  void Add(int64_t id, int64_t price) {
    ++rows;
    hash += Mix64((static_cast<uint64_t>(id) << 8) ^
                  static_cast<uint64_t>(price));
  }
  bool operator==(const FilterTally& o) const {
    return rows == o.rows && hash == o.hash;
  }
};

/// Reference for filter queries: evaluates every predicate per tuple over
/// feed ids [begin, end).
std::vector<FilterTally> ReferenceFilters(const Feed& feed,
                                          const std::vector<QueryDef>& queries,
                                          size_t begin, size_t end);

/// One window result: COUNT, SUM, MAX (sum/max undefined when count = 0).
struct WindowRow {
  int64_t t = 0;
  int64_t count = 0;
  int64_t sum = 0;
  int64_t max = 0;
  bool operator==(const WindowRow& o) const {
    return t == o.t && count == o.count &&
           (count == 0 || (sum == o.sum && max == o.max));
  }
};

/// Reference for window queries: the feed sorted by timestamp (stable),
/// then naive per-window aggregates.
class WindowReference {
 public:
  /// Over the first `end` tuples of the feed.
  WindowReference(const Feed& feed, size_t end, size_t num_symbols);
  WindowRow Eval(size_t sym, int64_t t, int64_t width) const;
  /// Every window a query starting at `start` has fired once the safe
  /// watermark passed `max_ts` (right ends <= max_ts).
  std::vector<WindowRow> Expected(const QueryDef& q, int64_t start,
                                  int64_t max_ts) const;

 private:
  struct Entry {
    int64_t ts;
    int64_t price;
  };
  std::vector<std::vector<Entry>> by_symbol_;  ///< Sorted by ts, stable.
};

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
