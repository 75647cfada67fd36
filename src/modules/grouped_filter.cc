#include "modules/grouped_filter.h"

#include <algorithm>

#include "common/logging.h"
#include "telemetry/metrics.h"

namespace tcq {

#ifndef TCQ_METRICS_DISABLED
namespace {

/// Process-wide grouped-filter probe count (shared predicate-index work
/// saved vs. per-query evaluation is applies * avg predicates).
Counter* AppliesCounter() {
  static Counter* c =
      MetricRegistry::Global().GetCounter("tcq.grouped_filter.applies");
  return c;
}

/// Lazy index compilations — should stay O(#mutation bursts), not
/// O(#tuples); a hot value here means predicate churn is interleaving
/// with ingest.
Counter* RebuildsCounter() {
  static Counter* c =
      MetricRegistry::Global().GetCounter("tcq.grouped_filter.rebuilds");
  return c;
}

}  // namespace
#endif  // TCQ_METRICS_DISABLED

void GroupedFilter::EnsureQuery(QueryId q) {
  if (q >= totals_.size()) {
    totals_.resize(q + 1, 0);
    ne_counts_.resize(q + 1, 0);
    eq_counts_.resize(q + 1, 0);
    has_pred_.Resize(q + 1);
    dirty_ = true;  // Region and scratch bitsets widen at next rebuild.
  }
}

void GroupedFilter::AddPredicate(QueryId q, BinaryOp op, Value constant) {
  EnsureQuery(q);
  switch (op) {
    case BinaryOp::kEq:
      eq_[std::move(constant)].push_back(q);
      ++eq_counts_[q];
      break;
    case BinaryOp::kNe:
      ne_[std::move(constant)].push_back(q);
      ++ne_counts_[q];
      break;
    case BinaryOp::kGt:
    case BinaryOp::kGe:
    case BinaryOp::kLt:
    case BinaryOp::kLe:
      ranges_.push_back(RangePred{std::move(constant), q, op});
      break;
    default:
      TCQ_CHECK(false) << "unsupported grouped-filter op";
  }
  ++totals_[q];
  ++num_predicates_;
  has_pred_.Set(q);
  dirty_ = true;
}

void GroupedFilter::RemoveQuery(QueryId q) {
  if (q >= totals_.size() || totals_[q] == 0) return;
  num_predicates_ -= totals_[q];
  totals_[q] = 0;
  ne_counts_[q] = 0;
  eq_counts_[q] = 0;
  has_pred_.Clear(q);

  auto scrub_map = [q](auto* m) {
    for (auto it = m->begin(); it != m->end();) {
      auto& vec = it->second;
      vec.erase(std::remove(vec.begin(), vec.end(), q), vec.end());
      it = vec.empty() ? m->erase(it) : std::next(it);
    }
  };
  scrub_map(&eq_);
  scrub_map(&ne_);
  ranges_.erase(
      std::remove_if(ranges_.begin(), ranges_.end(),
                     [q](const RangePred& r) { return r.query == q; }),
      ranges_.end());
  dirty_ = true;
}

size_t GroupedFilter::RegionOf(const Value& v) const {
  const size_t i = static_cast<size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), v) - bounds_.begin());
  // lower_bound guarantees !(bounds_[i] < v); equal iff also !(v < bounds_[i]).
  if (i < bounds_.size() && !(v < bounds_[i])) return 2 * i + 1;
  return 2 * i;
}

void GroupedFilter::RebuildIndex() const {
  TCQ_METRIC(RebuildsCounter()->Add(1));
  ++rebuilds_;
  dirty_ = false;
  const size_t n = totals_.size();

  bounds_.clear();
  bounds_.reserve(ranges_.size());
  for (const RangePred& r : ranges_) bounds_.push_back(r.constant);
  std::sort(bounds_.begin(), bounds_.end());
  bounds_.erase(std::unique(bounds_.begin(), bounds_.end()), bounds_.end());
  const size_t num_regions = 2 * bounds_.size() + 1;

  // Per-query region interval [lo, hi], aggregated per registered range
  // factor — everything below is sized by live registrations plus
  // O(width/64) word ops, never by a per-id O(width) element loop:
  // QueryIds are allocated monotonically and churn leaves the id space
  // sparse, so at k live queries after many submit/cancel cycles the
  // width can be orders of magnitude larger than k. Each range factor on
  // bound c_i (region index 2i+1 for the point) tightens the interval:
  //   > c_i  -> lo = max(lo, 2i+2)        >= c_i -> lo = max(lo, 2i+1)
  //   < c_i  -> hi = min(hi, 2i)          <= c_i -> hi = min(hi, 2i+1)
  // A contradictory range (lo > hi) covers nothing.
  intervals_scratch_.clear();
  for (const RangePred& r : ranges_) {
    const size_t i = static_cast<size_t>(
        std::lower_bound(bounds_.begin(), bounds_.end(), r.constant) -
        bounds_.begin());
    size_t lo = 0, hi = num_regions - 1;
    switch (r.op) {
      case BinaryOp::kGt:
        lo = 2 * i + 2;
        break;
      case BinaryOp::kGe:
        lo = 2 * i + 1;
        break;
      case BinaryOp::kLt:
        hi = 2 * i;
        break;
      case BinaryOp::kLe:
        hi = 2 * i + 1;
        break;
      default:
        TCQ_CHECK(false) << "non-range op in range list";
    }
    intervals_scratch_.push_back(QueryInterval{r.query, lo, hi});
  }
  std::sort(intervals_scratch_.begin(), intervals_scratch_.end(),
            [](const QueryInterval& a, const QueryInterval& b) {
              return a.query < b.query;
            });

  // Sweep the regions once, materializing each region's pass-bitset from
  // enter/exit deltas. Only ranged queries need deltas: range-free
  // queries cover every region, so they seed the running set instead.
  enter_scratch_.resize(num_regions);
  exit_scratch_.resize(num_regions + 1);
  for (auto& v : enter_scratch_) v.clear();
  for (auto& v : exit_scratch_) v.clear();
  has_range_scratch_.Resize(n);
  has_range_scratch_.ClearAll();
  for (size_t i = 0; i < intervals_scratch_.size();) {
    const QueryId q = intervals_scratch_[i].query;
    size_t lo = 0, hi = num_regions - 1;
    for (; i < intervals_scratch_.size() && intervals_scratch_[i].query == q;
         ++i) {
      lo = std::max(lo, intervals_scratch_[i].lo);
      hi = std::min(hi, intervals_scratch_[i].hi);
    }
    has_range_scratch_.Set(q);
    if (lo > hi) continue;  // Contradictory: passes nowhere.
    enter_scratch_[lo].push_back(q);
    exit_scratch_[hi + 1].push_back(q);
  }
  sweep_scratch_ = has_pred_;
  sweep_scratch_ -= has_range_scratch_;
  region_pass_.resize(num_regions);
  for (size_t r = 0; r < num_regions; ++r) {
    for (QueryId q : exit_scratch_[r]) sweep_scratch_.Clear(q);
    for (QueryId q : enter_scratch_[r]) sweep_scratch_.Set(q);
    region_pass_[r] = sweep_scratch_;
  }

  // no_eq = has_pred minus every query holding an = factor (eq_ buckets
  // enumerate exactly those — RemoveQuery scrubs them).
  no_eq_ = has_pred_;
  for (const auto& [val, qs] : eq_) {
    for (QueryId q : qs) no_eq_.Clear(q);
  }

  // A query's = factors all hold at v iff its occurrence count in the v
  // bucket equals its total = factor count (duplicates collapse, factors
  // on two distinct constants can never all hold).
  eq_full_.clear();
  std::vector<QueryId> sorted;
  for (const auto& [val, qs] : eq_) {
    sorted = qs;
    std::sort(sorted.begin(), sorted.end());
    auto& full = eq_full_[val];
    for (size_t i = 0; i < sorted.size();) {
      size_t j = i;
      while (j < sorted.size() && sorted[j] == sorted[i]) ++j;
      if (j - i == eq_counts_[sorted[i]]) full.push_back(sorted[i]);
      i = j;
    }
  }

  ne_hit_.clear();
  for (const auto& [val, qs] : ne_) {
    auto& hit = ne_hit_[val];
    hit = qs;
    std::sort(hit.begin(), hit.end());
    hit.erase(std::unique(hit.begin(), hit.end()), hit.end());
  }

  // Size the Apply scratch here, once per compile: the hot path below
  // only copy-assigns into equal-capacity buffers.
  pass_scratch_.Resize(n);
  eq_scratch_.Resize(n);
  fail_scratch_.Resize(n);
}

void GroupedFilter::Apply(const Value& v, SmallBitset* candidates) const {
  if (num_predicates_ == 0) return;
  TCQ_METRIC(AppliesCounter()->Add(1));
  TCQ_DCHECK(candidates->size_bits() >= totals_.size());
  if (v.is_null()) {
    // SQL semantics: a comparison with NULL is never true, so NULL fails
    // every query with a factor on this attribute, whatever the operator.
    candidates->SubtractPrefix(has_pred_);
    return;
  }
  if (dirty_) RebuildIndex();

  // pass = region_pass[seg] & (no_eq | eq_full(v)) & ~ne_hit(v).
  pass_scratch_ = region_pass_[RegionOf(v)];
  if (!eq_.empty()) {
    eq_scratch_ = no_eq_;
    if (auto it = eq_full_.find(v); it != eq_full_.end()) {
      for (QueryId q : it->second) eq_scratch_.Set(q);
    }
    pass_scratch_ &= eq_scratch_;
  }
  if (!ne_.empty()) {
    if (auto it = ne_hit_.find(v); it != ne_hit_.end()) {
      for (QueryId q : it->second) pass_scratch_.Clear(q);
    }
  }

  // fail = has_pred − pass; candidates −= fail. SubtractPrefix tolerates
  // a wider candidate set (tuple lineage sized to the engine's query
  // table) without resizing anything on the hot path.
  fail_scratch_ = has_pred_;
  fail_scratch_ -= pass_scratch_;
  candidates->SubtractPrefix(fail_scratch_);
}

SmallBitset GroupedFilter::Matching(const Value& v) const {
  SmallBitset all(totals_.size());
  all.SetAll();
  Apply(v, &all);
  return all;
}

}  // namespace tcq
