#include "eddy/operators.h"

#include <algorithm>

#include "common/logging.h"

namespace tcq {

namespace {
/// Builds the merged output RoutedTuple for a join match. The probe side's
/// done-set carries over (those operators saw the same cells); operators
/// pending for the stored side remain pending, so join outputs re-check
/// predicates their stored constituent may have skipped. `queries` is the
/// output's lineage.
RoutedTuple MakeJoinOutput(const RoutedTuple& rt, size_t target, Tuple merged,
                           SmallBitset queries) {
  RoutedTuple out;
  out.tuple = std::move(merged);
  out.sources = rt.sources;
  out.sources.Set(target);
  out.done = rt.done;
  out.queries = std::move(queries);
  return out;
}
}  // namespace

// ---------------------------------------------------------------- FilterOp

FilterOp::FilterOp(std::string name, ExprPtr bound_predicate,
                   SmallBitset required)
    : EddyOperator(std::move(name)),
      predicate_(std::move(bound_predicate)),
      required_(std::move(required)) {
  TCQ_CHECK(predicate_ != nullptr);
}

bool FilterOp::Eligible(const SmallBitset& sources) const {
  return sources.Contains(required_);
}

EddyOpResult FilterOp::Process(RoutedTuple& rt) {
  EddyOpResult result;
  const Value keep = predicate_->Eval(rt.tuple);
  result.pass = !keep.is_null() && keep.bool_value();
  return result;
}

// ------------------------------------------------------- SyntheticFilterOp

SyntheticFilterOp::SyntheticFilterOp(std::string name, SmallBitset required,
                                     SelectivityFn selectivity,
                                     double cost_hint, uint64_t seed,
                                     uint64_t spin_work)
    : EddyOperator(std::move(name)),
      required_(std::move(required)),
      selectivity_(std::move(selectivity)),
      cost_hint_(cost_hint),
      rng_(seed),
      spin_work_(spin_work) {}

bool SyntheticFilterOp::Eligible(const SmallBitset& sources) const {
  return sources.Contains(required_);
}

EddyOpResult SyntheticFilterOp::Process(RoutedTuple& rt) {
  (void)rt;
  EddyOpResult result;
  // Optional busy work so wall-clock benches see real per-tuple cost.
  volatile uint64_t sink = 0;
  for (uint64_t i = 0; i < spin_work_; ++i) sink = sink + i * 2654435761ULL;
  const double p = selectivity_(seen_);
  ++seen_;
  result.pass = rng_.NextBool(p);
  return result;
}

// -------------------------------------------------------------- StemBuildOp

StemBuildOp::StemBuildOp(std::string name, size_t source, SteMPtr stem)
    : EddyOperator(std::move(name)), source_(source), stem_(std::move(stem)) {
  TCQ_CHECK(stem_ != nullptr);
}

bool StemBuildOp::Eligible(const SmallBitset& sources) const {
  return sources.Count() == 1 && sources.Test(source_);
}

EddyOpResult StemBuildOp::Process(RoutedTuple& rt) {
  stem_->Insert(rt.tuple, rt.queries);
  EddyOpResult result;
  result.pass = true;
  return result;
}

// -------------------------------------------------------------- StemProbeOp

StemProbeOp::StemProbeOp(std::string name, const SourceLayout* layout,
                         size_t target, SteMPtr target_stem,
                         SmallBitset probe_sources, int probe_key_index,
                         WindowHandlePtr window)
    : EddyOperator(std::move(name)),
      layout_(layout),
      target_(target),
      stem_(std::move(target_stem)),
      probe_sources_(std::move(probe_sources)),
      probe_key_index_(probe_key_index),
      window_(std::move(window)) {
  TCQ_CHECK(layout_ != nullptr && stem_ != nullptr);
}

bool StemProbeOp::Eligible(const SmallBitset& sources) const {
  return !sources.Test(target_) && sources.Contains(probe_sources_);
}

EddyOpResult StemProbeOp::Process(RoutedTuple& rt) {
  EddyOpResult result;
  result.pass = true;  // The probe tuple itself continues routing.

  const Timestamp lo =
      window_ ? window_->lo.load(std::memory_order_relaxed) : kMinTimestamp;
  const Timestamp hi =
      window_ ? window_->hi.load(std::memory_order_relaxed) : kMaxTimestamp;

  const Value* key = nullptr;
  Value key_storage;
  if (probe_key_index_ >= 0 && stem_->key_field() >= 0) {
    key_storage = rt.tuple.cell(static_cast<size_t>(probe_key_index_));
    if (key_storage.is_null()) return result;  // No key, no matches.
    key = &key_storage;
  }

  const bool shared = rt.queries.size_bits() > 0;
  stem_->ProbeCollect(
      key, lo, hi, [&](const Tuple& stored, const SmallBitset& lineage) {
        // Arrival-order dedup [MSHR02]: only match state that arrived
        // strictly before this tuple's newest constituent, so each join
        // result is produced exactly once no matter how the Eddy ordered
        // the probes.
        if (stored.seq() >= rt.tuple.seq()) return;
        SmallBitset joint = rt.queries;
        if (shared) {
          // Lineage intersection: only queries that accepted both sides.
          SmallBitset other = lineage;
          const size_t width = std::max(joint.size_bits(), other.size_bits());
          joint.Resize(width);
          other.Resize(width);
          joint &= other;
          if (joint.None()) return;
        }
        result.outputs.push_back(
            MakeJoinOutput(rt, target_, layout_->MergeSparse(rt.tuple, stored),
                           std::move(joint)));
      });
  stem_->RecordMatches(result.outputs.size());
  return result;
}

// -------------------------------------------------------- RemoteIndexProbeOp

RemoteIndexProbeOp::RemoteIndexProbeOp(std::string name,
                                       const SourceLayout* layout,
                                       size_t target,
                                       std::shared_ptr<RemoteIndex> index,
                                       SmallBitset probe_sources,
                                       int probe_key_index,
                                       SteMPtr cache_stem)
    : EddyOperator(std::move(name)),
      layout_(layout),
      target_(target),
      index_(std::move(index)),
      probe_sources_(std::move(probe_sources)),
      probe_key_index_(probe_key_index),
      cache_(std::move(cache_stem)) {
  TCQ_CHECK(layout_ != nullptr && index_ != nullptr);
  TCQ_CHECK(probe_key_index_ >= 0)
      << "remote index lookups require an equality key";
}

bool RemoteIndexProbeOp::Eligible(const SmallBitset& sources) const {
  return !sources.Test(target_) && sources.Contains(probe_sources_);
}

double RemoteIndexProbeOp::CostHint() const {
  // Remote lookups cost orders of magnitude more than a hash probe; let
  // the cache amortize the hint as its hit rate climbs.
  const uint64_t total = cache_hits_ + cache_misses_;
  const double miss_rate =
      total == 0 ? 1.0
                 : static_cast<double>(cache_misses_) /
                       static_cast<double>(total);
  return 1.0 + miss_rate * 100.0;
}

EddyOpResult RemoteIndexProbeOp::Process(RoutedTuple& rt) {
  EddyOpResult result;
  result.pass = true;

  const Value key = rt.tuple.cell(static_cast<size_t>(probe_key_index_));
  if (key.is_null()) return result;

  auto emit_match = [&](const Tuple& wide_stored) {
    result.outputs.push_back(MakeJoinOutput(
        rt, target_, layout_->MergeSparse(rt.tuple, wide_stored),
        rt.queries));
  };

  if (cache_ != nullptr && cached_keys_.count(key) != 0) {
    ++cache_hits_;
    cache_->ProbeCollect(
        &key, kMinTimestamp, kMaxTimestamp,
        [&](const Tuple& stored, const SmallBitset&) { emit_match(stored); });
    return result;
  }

  ++cache_misses_;
  const TupleVector rows = index_->Lookup(key);
  for (const Tuple& narrow : rows) {
    const Tuple wide = layout_->Widen(target_, narrow);
    if (cache_ != nullptr) cache_->Insert(wide);
    emit_match(wide);
  }
  if (cache_ != nullptr) cached_keys_.insert(key);
  return result;
}

}  // namespace tcq
