#include "modules/grouped_filter.h"

#include <algorithm>
#include <cmath>

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

namespace {

size_t WordsFor(size_t bits) { return (bits + 63) / 64; }
void SetBit(uint64_t* words, size_t i) {
  words[i / 64] |= uint64_t{1} << (i % 64);
}
void ClearBit(uint64_t* words, size_t i) {
  words[i / 64] &= ~(uint64_t{1} << (i % 64));
}
bool TestBit(const uint64_t* words, size_t i) {
  return (words[i / 64] >> (i % 64)) & 1;
}

bool IsRange(BinaryOp op) {
  return op == BinaryOp::kLt || op == BinaryOp::kLe || op == BinaryOp::kGt ||
         op == BinaryOp::kGe;
}

/// A constant of the column's type as the kernel's key.
template <typename K>
K KeyOf(const Value& v) {
  if constexpr (std::is_same_v<K, int64_t>) {
    return v.type() == ValueType::kBool ? int64_t{v.bool_value()}
                                        : v.int64_value();
  } else if constexpr (std::is_same_v<K, double>) {
    return v.double_value();
  } else {
    return v.string_value();
  }
}

/// Elementary region of `v` among sorted distinct `bounds`: region 2i+1
/// is the point [c_i], region 2i the open interval below c_i.
template <typename K, typename P>
size_t RegionOf(const std::vector<K>& bounds, const P& v) {
  const auto it = std::lower_bound(
      bounds.begin(), bounds.end(), v,
      [](const K& bound, const P& x) { return P(bound) < x; });
  const size_t i = static_cast<size_t>(it - bounds.begin());
  // lower_bound guarantees !(bounds[i] < v); equal iff also !(v < bounds[i]).
  if (i < bounds.size() && !(v < P(bounds[i]))) return 2 * i + 1;
  return 2 * i;
}

}  // namespace

GroupedFilter::GroupedFilter(ValueType type) : type_(type) {
  switch (type) {
    case ValueType::kBool:
    case ValueType::kInt64:
      kernel_.emplace<Kernel<int64_t>>();
      break;
    case ValueType::kDouble:
      kernel_.emplace<Kernel<double>>();
      break;
    case ValueType::kString:
      kernel_.emplace<Kernel<std::string>>();
      break;
    default:
      TCQ_CHECK(false) << "no grouped filter over a NULL-typed column";
  }
}

void GroupedFilter::EnsureQuery(QueryId q) {
  if (q >= totals_.size()) {
    totals_.resize(q + 1, 0);
    eq_counts_.resize(q + 1, 0);
    has_pred_.resize(WordsFor(q + 1), 0);
    dirty_ = true;  // Index sets widen at next rebuild.
  }
}

void GroupedFilter::AddPredicate(QueryId q, BinaryOp op,
                                 const Value& constant) {
  TCQ_CHECK(constant.type() == type_)
      << "a " << ValueTypeToString(constant.type()) << " constant on a "
      << ValueTypeToString(type_) << " column";
  TCQ_CHECK(type_ != ValueType::kDouble ||
            !std::isnan(constant.double_value()))
      << "NaN constant in a grouped filter";
  const bool range = IsRange(op);
  TCQ_CHECK(range || op == BinaryOp::kEq || op == BinaryOp::kNe)
      << "unsupported grouped-filter op";
  EnsureQuery(q);
  std::visit(
      [&](auto& k) {
        using K = typename std::decay_t<decltype(k)>::Key;
        (range ? k.ranges : k.points).push_back({KeyOf<K>(constant), q, op});
      },
      kernel_);
  if (op == BinaryOp::kEq) ++eq_counts_[q];
  ++totals_[q];
  ++num_predicates_;
  SetBit(has_pred_.data(), q);
  dirty_ = true;
}

void GroupedFilter::RemoveQuery(QueryId q) {
  if (q >= totals_.size() || totals_[q] == 0) return;
  num_predicates_ -= totals_[q];
  totals_[q] = 0;
  eq_counts_[q] = 0;
  ClearBit(has_pred_.data(), q);
  std::visit(
      [q](auto& k) {
        const auto owned = [q](const auto& f) { return f.query == q; };
        std::erase_if(k.ranges, owned);
        std::erase_if(k.points, owned);
      },
      kernel_);
  dirty_ = true;
}

void GroupedFilter::RebuildIndex() const {
  TCQ_METRIC(RebuildsCounter()->Add(1));
  ++rebuilds_;
  dirty_ = false;
  words_ = WordsFor(totals_.size());
  std::visit([this](auto& k) { Compile(&k); }, kernel_);
}

template <typename K>
void GroupedFilter::Compile(Kernel<K>* k) const {
  const size_t words = words_;
  k->bounds.clear();
  k->bounds.reserve(k->ranges.size());
  for (const auto& r : k->ranges) k->bounds.push_back(r.constant);
  std::sort(k->bounds.begin(), k->bounds.end());
  k->bounds.erase(std::unique(k->bounds.begin(), k->bounds.end()),
                  k->bounds.end());
  num_regions_ = 2 * k->bounds.size() + 1;

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
  nan_pass_.assign(has_pred_.begin(), has_pred_.end());
  intervals_scratch_.clear();
  for (const auto& r : k->ranges) {
    const size_t i = static_cast<size_t>(
        std::lower_bound(k->bounds.begin(), k->bounds.end(), r.constant) -
        k->bounds.begin());
    size_t lo = 0, hi = num_regions_ - 1;
    switch (r.op) {
      case BinaryOp::kGt:
        lo = 2 * i + 2;
        ClearBit(nan_pass_.data(), r.query);
        break;
      case BinaryOp::kGe:
        lo = 2 * i + 1;
        break;
      case BinaryOp::kLt:
        hi = 2 * i;
        ClearBit(nan_pass_.data(), r.query);
        break;
      default:  // kLe.
        hi = 2 * i + 1;
        break;
    }
    intervals_scratch_.push_back(QueryInterval{r.query, lo, hi});
  }
  std::sort(intervals_scratch_.begin(), intervals_scratch_.end(),
            [](const QueryInterval& a, const QueryInterval& b) {
              return a.query < b.query;
            });

  // Sweep the regions once, materializing each region's pass-set from
  // enter/exit deltas. Only ranged queries need deltas: range-free
  // queries cover every region, so they seed the running set instead.
  enter_scratch_.resize(num_regions_);
  exit_scratch_.resize(num_regions_ + 1);
  for (auto& v : enter_scratch_) v.clear();
  for (auto& v : exit_scratch_) v.clear();
  sweep_scratch_.assign(has_pred_.begin(), has_pred_.end());
  for (size_t i = 0; i < intervals_scratch_.size();) {
    const QueryId q = intervals_scratch_[i].query;
    size_t lo = 0, hi = num_regions_ - 1;
    for (; i < intervals_scratch_.size() && intervals_scratch_[i].query == q;
         ++i) {
      lo = std::max(lo, intervals_scratch_[i].lo);
      hi = std::min(hi, intervals_scratch_[i].hi);
    }
    ClearBit(sweep_scratch_.data(), q);
    if (lo > hi) continue;  // Contradictory: passes nowhere.
    enter_scratch_[lo].push_back(q);
    exit_scratch_[hi + 1].push_back(q);
  }
  region_pass_.resize(num_regions_ * words);
  for (size_t r = 0; r < num_regions_; ++r) {
    for (QueryId q : exit_scratch_[r]) ClearBit(sweep_scratch_.data(), q);
    for (QueryId q : enter_scratch_[r]) SetBit(sweep_scratch_.data(), q);
    std::copy(sweep_scratch_.begin(), sweep_scratch_.end(),
              region_pass_.begin() + static_cast<ptrdiff_t>(r * words));
  }

  // Point constants: group the = and != factors by constant, then by
  // query. A query's = factors all hold at c iff its count of them in
  // c's group equals its total = factor count (duplicates collapse;
  // factors on two distinct constants can never all hold).
  no_eq_.assign(has_pred_.begin(), has_pred_.end());
  k->lookup.clear();
  points_scratch_.clear();
  for (const auto& p : k->points) {
    PointEntry* entry = &k->lookup[p.constant];
    const bool eq = p.op == BinaryOp::kEq;
    if (eq) {
      ClearBit(no_eq_.data(), p.query);
    } else {
      ClearBit(nan_pass_.data(), p.query);
    }
    points_scratch_.push_back(PointRef{entry, p.query, eq});
  }
  std::sort(points_scratch_.begin(), points_scratch_.end(),
            [](const PointRef& a, const PointRef& b) {
              if (a.entry != b.entry) {
                return std::less<const PointEntry*>()(a.entry, b.entry);
              }
              return a.query < b.query;
            });
  fixups_.clear();
  for (size_t i = 0; i < points_scratch_.size();) {
    PointEntry* entry = points_scratch_[i].entry;
    size_t end = i;
    while (end < points_scratch_.size() &&
           points_scratch_[end].entry == entry) {
      ++end;
    }
    // One pass per flip kind over the constant's group, query by query.
    const auto for_each_query = [&](auto&& fn) {
      for (size_t j = i; j < end;) {
        const QueryId q = points_scratch_[j].query;
        uint32_t eqs = 0;
        bool ne = false;
        for (; j < end && points_scratch_[j].query == q; ++j) {
          if (points_scratch_[j].eq) {
            ++eqs;
          } else {
            ne = true;
          }
        }
        fn(q, eqs, ne);
      }
    };
    entry->begin = static_cast<uint32_t>(fixups_.size());
    for_each_query([&](QueryId q, uint32_t eqs, bool ne) {
      if (eqs > 0 && eqs == eq_counts_[q] && !ne) fixups_.push_back(q);
    });
    entry->mid = static_cast<uint32_t>(fixups_.size());
    for_each_query([&](QueryId q, uint32_t, bool ne) {
      if (ne) fixups_.push_back(q);
    });
    entry->end = static_cast<uint32_t>(fixups_.size());
    i = end;
  }
  adj_ = no_eq_;
}

template <typename K>
void GroupedFilter::ApplyProbe(const Kernel<K>& k,
                               typename Kernel<K>::Probe v,
                               SmallBitset* candidates) const {
  static constexpr PointEntry kNoFlips;
  const uint64_t* region =
      region_pass_.data() + RegionOf(k.bounds, v) * words_;
  const PointEntry* flips = &kNoFlips;
  if (!k.lookup.empty()) {
    if (auto it = k.lookup.find(v); it != k.lookup.end()) flips = &it->second;
  }
  uint64_t* adj = adj_.data();
  for (uint32_t i = flips->begin; i < flips->mid; ++i) SetBit(adj, fixups_[i]);
  for (uint32_t i = flips->mid; i < flips->end; ++i) ClearBit(adj, fixups_[i]);
  const uint64_t* has = has_pred_.data();
  candidates->AndWords(words_, [has, region, adj](size_t w) {
    return ~has[w] | (region[w] & adj[w]);
  });
  for (uint32_t i = flips->begin; i < flips->end; ++i) {
    const QueryId q = fixups_[i];
    if (TestBit(no_eq_.data(), q)) {
      SetBit(adj, q);
    } else {
      ClearBit(adj, q);
    }
  }
}

void GroupedFilter::Apply(const Value& v, SmallBitset* candidates) const {
  if (num_predicates_ == 0) return;
  TCQ_METRIC(AppliesCounter()->Add(1));
  TCQ_DCHECK(candidates->size_bits() >= totals_.size());
  if (dirty_) RebuildIndex();
  const ValueType cell = v.type();
  if (cell == ValueType::kNull) {
    // SQL semantics: a comparison with NULL is never true, so NULL fails
    // every query with a factor on this attribute, whatever the operator.
    const uint64_t* has = has_pred_.data();
    candidates->AndWords(words_, [has](size_t w) { return ~has[w]; });
    return;
  }
  TCQ_CHECK(cell == type_ ||
            (cell == ValueType::kInt64 && type_ == ValueType::kDouble))
      << "a " << ValueTypeToString(cell) << " cell on a "
      << ValueTypeToString(type_) << " column";
  switch (type_) {
    case ValueType::kBool:
      ApplyProbe(*std::get_if<Kernel<int64_t>>(&kernel_),
                 int64_t{v.bool_value()}, candidates);
      return;
    case ValueType::kInt64:
      ApplyProbe(*std::get_if<Kernel<int64_t>>(&kernel_), v.int64_value(),
                 candidates);
      return;
    case ValueType::kDouble: {
      const double d = v.AsDouble();
      if (std::isnan(d)) {
        const uint64_t* has = has_pred_.data();
        const uint64_t* pass = nan_pass_.data();
        candidates->AndWords(
            words_, [has, pass](size_t w) { return ~has[w] | pass[w]; });
        return;
      }
      ApplyProbe(*std::get_if<Kernel<double>>(&kernel_), d, candidates);
      return;
    }
    default:
      ApplyProbe(*std::get_if<Kernel<std::string>>(&kernel_),
                 std::string_view(v.string_value()), candidates);
      return;
  }
}

SmallBitset GroupedFilter::Matching(const Value& v) const {
  SmallBitset all(totals_.size());
  all.SetAll();
  Apply(v, &all);
  return all;
}

}  // namespace tcq
