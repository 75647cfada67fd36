#include "workload.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

using tcq::Tuple;
using tcq::Value;
using tcq::ValueType;

tcq::SchemaPtr TradesSchema() {
  return tcq::Schema::Make({{"ts", ValueType::kInt64, ""},
                            {"sym", ValueType::kString, ""},
                            {"price", ValueType::kInt64, ""},
                            {"id", ValueType::kInt64, ""}});
}

std::string SymbolName(size_t sym) {
  return std::string("K") + static_cast<char>('0' + sym / 10) +
         static_cast<char>('0' + sym % 10);
}

const std::vector<Spec>& AllSpecs() {
  static const std::vector<Spec> specs = [] {
    std::vector<Spec> v;
    Spec f;
    f.name = "filters_fanout";
    f.batch = 256;
    f.closed_loop_tuples = 200000;
    f.offered_rate = 250000;
    v.push_back(f);

    Spec w;
    w.name = "windowed_sliding";
    w.batch = 64;
    w.closed_loop_tuples = 12000;
    w.offered_rate = 10000;
    w.max_disorder = 4;
    v.push_back(w);

    Spec s;
    s.name = "sharded_churn";
    s.shards = 2;
    s.batch = 256;
    s.closed_loop_tuples = 600000;
    s.offered_rate = 450000;
    s.num_symbols = 64;
    s.zipf_s = 1.0;
    s.churn_every = 64;
    s.churn_slots = 8;
    v.push_back(s);
    return v;
  }();
  return specs;
}

const Spec* FindSpec(const std::string& name) {
  for (const Spec& s : AllSpecs()) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

std::string QueryDef::Sql() const {
  const std::string where = " FROM Trades WHERE sym = '" + SymbolName(sym) + "'";
  if (kind == Kind::kWindow) {
    return "SELECT COUNT(*), SUM(price), MAX(price)" + where +
           " for (t = ST; true; t += " + std::to_string(step) +
           ") { WindowIs(Trades, t - " + std::to_string(width - 1) +
           ", t); }";
  }
  std::string sql = "SELECT id, price" + where;
  if (gt != kNone) sql += " AND price > " + std::to_string(gt);
  if (lt != kNone) sql += " AND price < " + std::to_string(lt);
  return sql;
}

namespace {

/// Sliding shapes (width, step), every step below its width.
constexpr int64_t kWindowShapes[][2] = {{10, 5}, {10, 3}, {12, 4}, {16, 8}};

QueryDef Filter(size_t sym, int64_t gt, int64_t lt) {
  QueryDef q;
  q.sym = sym;
  q.gt = gt;
  q.lt = lt;
  return q;
}

QueryDef Window(size_t sym, size_t shape) {
  QueryDef q;
  q.kind = QueryDef::Kind::kWindow;
  q.sym = sym;
  q.width = kWindowShapes[shape][0];
  q.step = kWindowShapes[shape][1];
  return q;
}

/// Symbols the sharded workload's queries watch: its 20 most frequent.
constexpr size_t kShardedQuerySymbols = 20;

}  // namespace

std::vector<QueryDef> Population(const Spec& spec, uint64_t seed) {
  Rng rng(seed ^ 0x51ED5EEDULL);
  std::vector<QueryDef> qs;
  if (spec.name == "filters_fanout") {
    // 8 per symbol: six ranges with stratified bounds, one equality-only,
    // one two-sided range — ~4.4 delivered rows per input tuple.
    for (size_t s = 0; s < spec.num_symbols; ++s) {
      for (int64_t k = 0; k < 6; ++k) {
        qs.push_back(Filter(s, 8 + 14 * k + static_cast<int64_t>(rng.Below(14)),
                            QueryDef::kNone));
      }
      qs.push_back(Filter(s, QueryDef::kNone, QueryDef::kNone));
      const int64_t lo = 15 + static_cast<int64_t>(rng.Below(30));
      qs.push_back(Filter(s, lo, lo + 41));
    }
  } else if (spec.name == "windowed_sliding") {
    for (size_t s = 0; s < spec.num_symbols; ++s) {
      for (size_t shape = 0; shape < std::size(kWindowShapes); ++shape) {
        qs.push_back(Window(s, shape));
      }
    }
  } else {
    // Two standing filters on each watched symbol, one low and one high
    // bound. The churn slots are filled with transient queries on top.
    for (size_t i = 0; i < 2 * kShardedQuerySymbols; ++i) {
      const int64_t base = i < kShardedQuerySymbols ? 10 : 50;
      qs.push_back(Filter(i % kShardedQuerySymbols,
                          base + static_cast<int64_t>(rng.Below(30)),
                          QueryDef::kNone));
    }
  }
  return qs;
}

QueryDef TransientQuery(const Spec& spec, size_t k, Rng* rng) {
  // Symbols and bounds cycle with k, so any run of transients carries the
  // same load whatever the seed; the seed only jitters the bound.
  if (spec.name == "windowed_sliding") {
    return Window(k % spec.num_symbols, k % std::size(kWindowShapes));
  }
  const size_t syms = spec.zipf_s > 0 ? kShardedQuerySymbols : spec.num_symbols;
  return Filter(k % syms,
                10 + 8 * static_cast<int64_t>(k % 10) + static_cast<int64_t>(rng->Below(8)),
                QueryDef::kNone);
}

int64_t Feed::max_ts(size_t end) const {
  return end == 0 ? 0 : *std::max_element(ts.begin(), ts.begin() + static_cast<long>(end));
}

Tuple Feed::MakeTuple(size_t i) const {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> v;
    for (size_t s = 0; s < 100; ++s) v.push_back(SymbolName(s));
    return v;
  }();
  return Tuple::Make({Value::Int64(ts[i]), Value::String(names[sym[i]]),
                      Value::Int64(price[i]),
                      Value::Int64(static_cast<int64_t>(i))},
                     ts[i]);
}

std::vector<Tuple> Feed::MakeBatch(size_t begin, size_t end) const {
  std::vector<Tuple> out;
  out.reserve(end - begin);
  for (size_t i = begin; i < end; ++i) out.push_back(MakeTuple(i));
  return out;
}

Feed Generate(const Spec& spec, uint64_t seed, size_t n) {
  Rng rng(seed);
  std::vector<double> cdf;
  if (spec.zipf_s > 0) {
    // Rank r (symbol r) has weight 1/(r+1)^s; the rank-to-symbol map is
    // fixed, so the shard a hot key hashes to does not depend on the seed.
    double total = 0;
    for (size_t r = 0; r < spec.num_symbols; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), spec.zipf_s);
      cdf.push_back(total);
    }
    for (double& c : cdf) c /= total;
  }
  Feed f;
  f.ts.resize(n);
  f.sym.resize(n);
  f.price.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const int64_t tick =
        spec.max_disorder + 1 + static_cast<int64_t>(i / kTuplesPerTick);
    int64_t ts = tick;
    if (spec.max_disorder > 0 && rng.Unit() < kDisplacedShare) {
      ts -= 1 + static_cast<int64_t>(
                    rng.Below(static_cast<uint64_t>(spec.max_disorder)));
    }
    f.ts[i] = ts;
    if (cdf.empty()) {
      f.sym[i] = static_cast<uint16_t>(rng.Below(spec.num_symbols));
    } else {
      f.sym[i] = static_cast<uint16_t>(
          std::lower_bound(cdf.begin(), cdf.end() - 1, rng.Unit()) - cdf.begin());
    }
    f.price[i] = static_cast<int64_t>(rng.Below(100));
  }
  return f;
}

std::vector<FilterTally> ReferenceFilters(const Feed& feed,
                                          const std::vector<QueryDef>& queries,
                                          size_t begin, size_t end) {
  std::vector<std::vector<size_t>> by_symbol;
  for (size_t q = 0; q < queries.size(); ++q) {
    if (queries[q].kind != QueryDef::Kind::kFilter) continue;
    if (by_symbol.size() <= queries[q].sym) by_symbol.resize(queries[q].sym + 1);
    by_symbol[queries[q].sym].push_back(q);
  }
  std::vector<FilterTally> out(queries.size());
  for (size_t i = begin; i < end; ++i) {
    if (feed.sym[i] >= by_symbol.size()) continue;
    for (size_t q : by_symbol[feed.sym[i]]) {
      if (queries[q].Matches(feed.sym[i], feed.price[i])) {
        out[q].Add(static_cast<int64_t>(i), feed.price[i]);
      }
    }
  }
  return out;
}

WindowReference::WindowReference(const Feed& feed, size_t end, size_t num_symbols)
    : by_symbol_(num_symbols) {
  for (size_t i = 0; i < end; ++i) {
    by_symbol_[feed.sym[i]].push_back(Entry{feed.ts[i], feed.price[i]});
  }
  for (auto& v : by_symbol_) {
    std::stable_sort(v.begin(), v.end(),
                     [](const Entry& a, const Entry& b) { return a.ts < b.ts; });
  }
}

WindowRow WindowReference::Eval(size_t sym, int64_t t, int64_t width) const {
  WindowRow row;
  row.t = t;
  const std::vector<Entry>& v = by_symbol_[sym];
  auto it = std::lower_bound(
      v.begin(), v.end(), t - width + 1,
      [](const Entry& e, int64_t lo) { return e.ts < lo; });
  for (; it != v.end() && it->ts <= t; ++it) {
    row.max = row.count == 0 ? it->price : std::max(row.max, it->price);
    row.sum += it->price;
    ++row.count;
  }
  return row;
}

std::vector<WindowRow> WindowReference::Expected(const QueryDef& q,
                                                 int64_t start,
                                                 int64_t max_ts) const {
  std::vector<WindowRow> out;
  for (int64_t t = start; t <= max_ts; t += q.step) {
    out.push_back(Eval(q.sym, t, q.width));
  }
  return out;
}

}  // namespace perfbench
