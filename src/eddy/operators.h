#ifndef TCQ_EDDY_OPERATORS_H_
#define TCQ_EDDY_OPERATORS_H_

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/rng.h"
#include "eddy/operator.h"
#include "expr/ast.h"
#include "stem/remote_index.h"
#include "stem/stem.h"

namespace tcq {

/// Shared, mutable window bounds for windowed join probes. The window
/// driver advances these as the query's for-loop iterates; probe operators
/// read them on every probe.
struct WindowHandle {
  std::atomic<Timestamp> lo{kMinTimestamp};
  std::atomic<Timestamp> hi{kMaxTimestamp};

  void Set(Timestamp new_lo, Timestamp new_hi) {
    lo.store(new_lo, std::memory_order_relaxed);
    hi.store(new_hi, std::memory_order_relaxed);
  }
};
using WindowHandlePtr = std::shared_ptr<WindowHandle>;

/// A selection: evaluates a predicate bound against the Eddy's full schema.
/// Applies to any tuple whose composition covers the predicate's sources
/// (join outputs re-check predicates their stored side may have skipped —
/// redundant when the build was post-filter, but always correct).
class FilterOp : public EddyOperator {
 public:
  /// `required` = sources whose cells the predicate reads.
  FilterOp(std::string name, ExprPtr bound_predicate, SmallBitset required);

  bool Eligible(const SmallBitset& sources) const override;
  EddyOpResult Process(RoutedTuple& rt) override;

 private:
  ExprPtr predicate_;
  SmallBitset required_;
};

/// A bench/test filter with controllable selectivity and cost. Selectivity
/// is a function of the number of tuples seen so far, so experiments can
/// drift it mid-stream (the E1 adaptivity workload); pass/drop decisions
/// are deterministic in the seed.
class SyntheticFilterOp : public EddyOperator {
 public:
  using SelectivityFn = std::function<double(uint64_t seen)>;

  SyntheticFilterOp(std::string name, SmallBitset required,
                    SelectivityFn selectivity, double cost_hint,
                    uint64_t seed = 13, uint64_t spin_work = 0);

  bool Eligible(const SmallBitset& sources) const override;
  EddyOpResult Process(RoutedTuple& rt) override;
  double CostHint() const override { return cost_hint_; }

  uint64_t seen() const { return seen_; }

 private:
  SmallBitset required_;
  SelectivityFn selectivity_;
  double cost_hint_;
  Rng rng_;
  uint64_t spin_work_;
  uint64_t seen_ = 0;
};

/// SteM build: inserts base tuples of one source into that source's SteM,
/// together with their current query lineage. Only exact single-source
/// tuples build (composites live in the output stream, not in base state).
class StemBuildOp : public EddyOperator {
 public:
  StemBuildOp(std::string name, size_t source, SteMPtr stem);

  bool Eligible(const SmallBitset& sources) const override;
  EddyOpResult Process(RoutedTuple& rt) override;

 private:
  size_t source_;
  SteMPtr stem_;
};

/// SteM probe: joins the routed tuple against the stored tuples of a
/// target source it does not yet contain. Probing uses the hash key when
/// both key columns are configured, otherwise scans (theta predicates are
/// FilterOps over the joined sources). Matches re-enter the Eddy as merged
/// sparse tuples. A probing tuple that carries a lineage (CACQ) matches
/// only stored tuples whose lineage shares a query with it, and the output
/// carries the intersection.
class StemProbeOp : public EddyOperator {
 public:
  /// `probe_sources` = sources that must be present in the tuple (those
  /// carrying `probe_key_index`); `target` = stored side's source index.
  /// `probe_key_index` is a full-schema cell index; pass -1 for a scan.
  StemProbeOp(std::string name, const SourceLayout* layout, size_t target,
              SteMPtr target_stem, SmallBitset probe_sources,
              int probe_key_index, WindowHandlePtr window = nullptr);

  bool Eligible(const SmallBitset& sources) const override;
  EddyOpResult Process(RoutedTuple& rt) override;
  bool IsJoinProbe() const override { return true; }

 private:
  const SourceLayout* layout_;
  size_t target_;
  SteMPtr stem_;
  SmallBitset probe_sources_;
  int probe_key_index_;
  WindowHandlePtr window_;
};

/// Asynchronous-style access method over a simulated remote index (§2.2's
/// index join on a TeSS-wrapped source), optionally backed by a cache SteM
/// [HN96]: keys already fetched are answered from the cache without paying
/// remote latency. Together with SteM builds/probes on the same source the
/// Eddy can hybridize index and hash join plans, sharing fetched state.
class RemoteIndexProbeOp : public EddyOperator {
 public:
  RemoteIndexProbeOp(std::string name, const SourceLayout* layout,
                     size_t target, std::shared_ptr<RemoteIndex> index,
                     SmallBitset probe_sources, int probe_key_index,
                     SteMPtr cache_stem = nullptr);

  bool Eligible(const SmallBitset& sources) const override;
  EddyOpResult Process(RoutedTuple& rt) override;
  double CostHint() const override;
  bool IsJoinProbe() const override { return true; }

  uint64_t cache_hits() const { return cache_hits_; }
  uint64_t cache_misses() const { return cache_misses_; }

 private:
  const SourceLayout* layout_;
  size_t target_;
  std::shared_ptr<RemoteIndex> index_;
  SmallBitset probe_sources_;
  int probe_key_index_;
  SteMPtr cache_;
  std::unordered_set<Value, ValueHash> cached_keys_;
  uint64_t cache_hits_ = 0;
  uint64_t cache_misses_ = 0;
};

}  // namespace tcq

#endif  // TCQ_EDDY_OPERATORS_H_
