#include "modules/grouped_filter.h"

#include <gtest/gtest.h>

#include <limits>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "expr/predicates.h"
#include "modules/query_index.h"

namespace tcq {
namespace {

SmallBitset AllOf(size_t n) {
  SmallBitset b(n);
  b.SetAll();
  return b;
}

TEST(GroupedFilterTest, EqualityPredicates) {
  GroupedFilter gf(ValueType::kString);
  gf.AddPredicate(0, BinaryOp::kEq, Value::String("MSFT"));
  gf.AddPredicate(1, BinaryOp::kEq, Value::String("IBM"));
  gf.AddPredicate(2, BinaryOp::kEq, Value::String("MSFT"));

  SmallBitset m = gf.Matching(Value::String("MSFT"));
  EXPECT_TRUE(m.Test(0));
  EXPECT_FALSE(m.Test(1));
  EXPECT_TRUE(m.Test(2));

  m = gf.Matching(Value::String("ORCL"));
  EXPECT_TRUE(m.None());
}

TEST(GroupedFilterTest, RangePredicates) {
  GroupedFilter gf(ValueType::kDouble);
  gf.AddPredicate(0, BinaryOp::kGt, Value::Double(50.0));
  gf.AddPredicate(1, BinaryOp::kGe, Value::Double(60.0));
  gf.AddPredicate(2, BinaryOp::kLt, Value::Double(55.0));
  gf.AddPredicate(3, BinaryOp::kLe, Value::Double(60.0));

  SmallBitset m = gf.Matching(Value::Double(60.0));
  EXPECT_TRUE(m.Test(0));   // 60 > 50.
  EXPECT_TRUE(m.Test(1));   // 60 >= 60.
  EXPECT_FALSE(m.Test(2));  // !(60 < 55).
  EXPECT_TRUE(m.Test(3));   // 60 <= 60.

  m = gf.Matching(Value::Double(50.0));
  EXPECT_FALSE(m.Test(0));  // Strict.
  EXPECT_FALSE(m.Test(1));
  EXPECT_TRUE(m.Test(2));
  EXPECT_TRUE(m.Test(3));
}

TEST(GroupedFilterTest, NotEqualDefaultsToPass) {
  GroupedFilter gf(ValueType::kInt64);
  gf.AddPredicate(0, BinaryOp::kNe, Value::Int64(7));
  EXPECT_TRUE(gf.Matching(Value::Int64(3)).Test(0));
  EXPECT_FALSE(gf.Matching(Value::Int64(7)).Test(0));
}

TEST(GroupedFilterTest, MultiFactorRangeQuery) {
  // Query 0: 10 < x AND x < 20 (both factors on the same attribute).
  GroupedFilter gf(ValueType::kInt64);
  gf.AddPredicate(0, BinaryOp::kGt, Value::Int64(10));
  gf.AddPredicate(0, BinaryOp::kLt, Value::Int64(20));
  EXPECT_FALSE(gf.Matching(Value::Int64(10)).Test(0));
  EXPECT_TRUE(gf.Matching(Value::Int64(15)).Test(0));
  EXPECT_FALSE(gf.Matching(Value::Int64(20)).Test(0));
}

TEST(GroupedFilterTest, MixedEqAndNe) {
  // Query 0: x != 5 AND x != 6; query 1: x = 5.
  GroupedFilter gf(ValueType::kInt64);
  gf.AddPredicate(0, BinaryOp::kNe, Value::Int64(5));
  gf.AddPredicate(0, BinaryOp::kNe, Value::Int64(6));
  gf.AddPredicate(1, BinaryOp::kEq, Value::Int64(5));
  EXPECT_FALSE(gf.Matching(Value::Int64(5)).Test(0));
  EXPECT_FALSE(gf.Matching(Value::Int64(6)).Test(0));
  EXPECT_TRUE(gf.Matching(Value::Int64(7)).Test(0));
  EXPECT_TRUE(gf.Matching(Value::Int64(5)).Test(1));
}

TEST(GroupedFilterTest, ApplyOnlyNarrowsCandidates) {
  GroupedFilter gf(ValueType::kInt64);
  gf.AddPredicate(1, BinaryOp::kEq, Value::Int64(1));
  // Query 0 has no predicate here; query 1 fails. Start with only bit 0.
  SmallBitset candidates(2);
  candidates.Set(0);
  gf.Apply(Value::Int64(99), &candidates);
  EXPECT_TRUE(candidates.Test(0));   // Untouched.
  EXPECT_FALSE(candidates.Test(1));  // Was not a candidate anyway.
}

TEST(GroupedFilterTest, RemoveQuery) {
  GroupedFilter gf(ValueType::kInt64);
  gf.AddPredicate(0, BinaryOp::kGt, Value::Int64(5));
  gf.AddPredicate(1, BinaryOp::kGt, Value::Int64(5));
  gf.RemoveQuery(0);
  EXPECT_EQ(gf.num_predicates(), 1u);
  SmallBitset m = gf.Matching(Value::Int64(10));
  // A removed query simply has no predicates left: the filter no longer
  // constrains it (callers gate delivery by their active-query set).
  EXPECT_TRUE(m.Test(0));
  EXPECT_TRUE(m.Test(1));
  // Its old predicate must be gone: a value it used to reject now passes.
  EXPECT_TRUE(gf.Matching(Value::Int64(0)).Test(0));
  EXPECT_FALSE(gf.Matching(Value::Int64(0)).Test(1));
}

TEST(GroupedFilterTest, EmptyFilterTouchesNothing) {
  GroupedFilter gf(ValueType::kInt64);
  SmallBitset candidates(4);
  candidates.SetAll();
  gf.Apply(Value::Int64(1), &candidates);
  EXPECT_EQ(candidates.Count(), 4u);
}

// Regression: Apply with a candidate bitset WIDER than the filter's
// query table (a tuple's lineage bitmap is sized to the engine's whole
// query table; this filter may only know a prefix of it). Bits past
// num_queries() must ride through untouched, and the hot path must not
// resize anything to make that work.
TEST(GroupedFilterTest, MixedWidthApplyLeavesWideBitsAlone) {
  GroupedFilter gf(ValueType::kInt64);
  gf.AddPredicate(0, BinaryOp::kGt, Value::Int64(10));
  gf.AddPredicate(1, BinaryOp::kEq, Value::Int64(3));
  ASSERT_EQ(gf.num_queries(), 2u);

  // 300 bits: spills to overflow words, exercising the word loop too.
  SmallBitset candidates(300);
  candidates.SetAll();
  gf.Apply(Value::Int64(50), &candidates);
  EXPECT_TRUE(candidates.Test(0));   // 50 > 10.
  EXPECT_FALSE(candidates.Test(1));  // 50 != 3.
  for (size_t i = 2; i < 300; ++i) {
    ASSERT_TRUE(candidates.Test(i)) << i;  // Unknown queries untouched.
  }
}

// The index is compiled lazily: registrations only mark it stale, and one
// Apply after a mutation burst compiles once — not once per AddPredicate
// (that was the old O(n²) sorted-insert registration) and not once per
// tuple.
TEST(GroupedFilterTest, IndexRebuildsOncePerMutationBurst) {
  GroupedFilter gf(ValueType::kInt64);
  for (QueryId q = 0; q < 100; ++q) {
    gf.AddPredicate(q, BinaryOp::kGt, Value::Int64(static_cast<int64_t>(q)));
  }
  EXPECT_TRUE(gf.index_dirty());
  EXPECT_EQ(gf.rebuilds(), 0u);

  SmallBitset m = AllOf(100);
  gf.Apply(Value::Int64(50), &m);
  EXPECT_EQ(gf.rebuilds(), 1u);
  EXPECT_FALSE(gf.index_dirty());
  // 100 distinct bounds -> 201 elementary regions.
  EXPECT_EQ(gf.num_regions(), 201u);

  // Steady state: applies never recompile.
  for (int i = 0; i < 50; ++i) {
    SmallBitset n = AllOf(100);
    gf.Apply(Value::Int64(i), &n);
  }
  EXPECT_EQ(gf.rebuilds(), 1u);

  // One mutation burst -> exactly one more compile.
  gf.RemoveQuery(7);
  gf.AddPredicate(7, BinaryOp::kLt, Value::Int64(30));
  EXPECT_TRUE(gf.index_dirty());
  SmallBitset n = AllOf(100);
  gf.Apply(Value::Int64(10), &n);
  EXPECT_TRUE(n.Test(7));  // 10 < 30 under the re-registered predicate.
  EXPECT_EQ(gf.rebuilds(), 2u);
}

TEST(GroupedFilterTest, NullValueFailsEveryFactor) {
  // SQL semantics: a comparison with NULL is never true, whatever the
  // operator — even though NULL orders before every constant in
  // Value::Compare. Queries with no factor on the attribute keep their bit.
  GroupedFilter gf(ValueType::kInt64);
  gf.AddPredicate(0, BinaryOp::kLt, Value::Int64(5));
  gf.AddPredicate(1, BinaryOp::kGt, Value::Int64(5));
  gf.AddPredicate(2, BinaryOp::kEq, Value::Int64(5));
  gf.AddPredicate(3, BinaryOp::kNe, Value::Int64(5));
  gf.AddPredicate(4, BinaryOp::kLe, Value::Int64(5));
  gf.AddPredicate(5, BinaryOp::kGe, Value::Int64(5));
  SmallBitset m = gf.Matching(Value());
  EXPECT_TRUE(m.None());
  SmallBitset wider = AllOf(8);
  gf.Apply(Value(), &wider);
  EXPECT_EQ(wider.Count(), 2u);
  EXPECT_TRUE(wider.Test(6));
  EXPECT_TRUE(wider.Test(7));
}

// Property: for every column type, the grouped filter == each query's
// factors evaluated one by one with Expr::Eval (Value::Compare), the
// evaluation residual factors and per-window filters use. Probes include
// NULL, and on DOUBLE NaN, ±0.0, ±inf and INT64 cells.
class GroupedFilterPropertyTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(GroupedFilterPropertyTest, MatchesFactorEvaluationForEveryColumnType) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  struct Domain {
    ValueType type;
    std::vector<Value> constants;
    std::vector<Value> probes;  ///< Besides the constants and NULL.
  };
  std::vector<Domain> domains;
  {
    Domain d{ValueType::kInt64, {}, {}};
    for (int64_t c = -20; c <= 20; ++c) d.constants.push_back(Value::Int64(c));
    d.constants.push_back(Value::Int64(std::numeric_limits<int64_t>::max()));
    d.constants.push_back(Value::Int64(std::numeric_limits<int64_t>::min()));
    for (int64_t c : {-25, -21, 21, 25}) d.probes.push_back(Value::Int64(c));
    domains.push_back(std::move(d));
  }
  {
    Domain d{ValueType::kDouble, {}, {}};
    for (double c : {-inf, -2.5, -1.0, -0.0, 0.0, 0.5, 1.0, 2.5, 3.0, 1e300,
                     inf}) {
      d.constants.push_back(Value::Double(c));
    }
    d.probes = {Value::Double(nan), Value::Double(-nan), Value::Double(0.75),
                Value::Double(-3.0), Value::Int64(0), Value::Int64(1),
                Value::Int64(3), Value::Int64(-7)};
    domains.push_back(std::move(d));
  }
  {
    Domain d{ValueType::kString, {}, {}};
    for (const char* c : {"", "a", "ab", "b", "K01", "K02", "zz"}) {
      d.constants.push_back(Value::String(c));
    }
    d.probes = {Value::String("c"), Value::String("K0"), Value::String("zzz")};
    domains.push_back(std::move(d));
  }
  domains.push_back(Domain{ValueType::kBool,
                           {Value::Bool(false), Value::Bool(true)},
                           {}});

  const BinaryOp ops[] = {BinaryOp::kEq, BinaryOp::kNe, BinaryOp::kLt,
                          BinaryOp::kLe, BinaryOp::kGt, BinaryOp::kGe};
  Rng rng(GetParam());
  for (const Domain& domain : domains) {
    const SchemaPtr schema = Schema::Make({{"x", domain.type, ""}});
    const size_t num_queries = 1 + rng.NextBounded(60);
    GroupedFilter gf(domain.type);
    std::vector<std::vector<ExprPtr>> factors(num_queries);
    for (QueryId q = 0; q < num_queries; ++q) {
      const size_t n = 1 + rng.NextBounded(3);
      for (size_t i = 0; i < n; ++i) {
        const BinaryOp op = ops[rng.NextBounded(6)];
        const Value& c =
            domain.constants[rng.NextBounded(domain.constants.size())];
        gf.AddPredicate(q, op, c);
        Result<ExprPtr> bound =
            Expr::Binary(op, Expr::Column("x"), Expr::Literal(c))
                ->Bind(*schema);
        ASSERT_TRUE(bound.ok()) << bound.status();
        factors[q].push_back(std::move(*bound));
      }
    }
    std::vector<Value> probes = domain.constants;
    probes.insert(probes.end(), domain.probes.begin(), domain.probes.end());
    probes.push_back(Value());
    for (const Value& v : probes) {
      const Tuple t = Tuple::Make({v});
      SmallBitset m = AllOf(num_queries);
      gf.Apply(v, &m);
      for (QueryId q = 0; q < num_queries; ++q) {
        bool want = true;
        for (const ExprPtr& e : factors[q]) {
          const Value keep = e->Eval(t);
          want = want && !keep.is_null() && keep.bool_value();
        }
        ASSERT_EQ(m.Test(q), want)
            << ValueTypeToString(domain.type) << " value " << v.ToString()
            << " query " << q << " seed " << GetParam();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GroupedFilterPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

// Churn property test at 1k+ queries: interleave AddPredicate bursts,
// RemoveQuery scrubs, and re-registration of freed QueryIds (the CACQ
// engine recycles slots), cross-checking Apply against naive per-query
// evaluation after every burst. Run under ASan (scripts/check.sh) this
// doubles as a lifetime check on the lazily recompiled index.
class GroupedFilterChurnTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GroupedFilterChurnTest, ChurnedIndexMatchesNaiveEvaluation) {
  Rng rng(GetParam());
  constexpr size_t kMaxQueries = 1200;
  GroupedFilter gf(ValueType::kInt64);

  struct Pred {
    BinaryOp op;
    int64_t c;
  };
  // live[q] = the predicates query q currently owns (empty = freed slot).
  std::unordered_map<QueryId, std::vector<Pred>> live;
  std::vector<QueryId> freed;
  const BinaryOp ops[] = {BinaryOp::kEq, BinaryOp::kNe, BinaryOp::kLt,
                          BinaryOp::kLe, BinaryOp::kGt, BinaryOp::kGe};

  auto naive = [&live](int64_t v, QueryId q) {
    auto it = live.find(q);
    if (it == live.end()) return true;  // No factors -> unconstrained.
    for (const Pred& p : it->second) {
      bool pass = false;
      switch (p.op) {
        case BinaryOp::kEq: pass = v == p.c; break;
        case BinaryOp::kNe: pass = v != p.c; break;
        case BinaryOp::kLt: pass = v < p.c; break;
        case BinaryOp::kLe: pass = v <= p.c; break;
        case BinaryOp::kGt: pass = v > p.c; break;
        default: pass = v >= p.c; break;
      }
      if (!pass) return false;
    }
    return true;
  };

  auto register_query = [&](QueryId q) {
    auto& preds = live[q];
    preds.clear();
    const size_t n = 1 + rng.NextBounded(3);
    for (size_t i = 0; i < n; ++i) {
      Pred p{ops[rng.NextBounded(6)], rng.NextInt(-50, 50)};
      preds.push_back(p);
      gf.AddPredicate(q, p.op, Value::Int64(p.c));
    }
  };

  // Initial population: 1200 queries, ~2 factors each.
  for (QueryId q = 0; q < kMaxQueries; ++q) register_query(q);

  for (int round = 0; round < 12; ++round) {
    // Churn burst: remove ~100 random queries, re-register ~half of the
    // freed slots with fresh predicates.
    for (int i = 0; i < 100; ++i) {
      const QueryId q = static_cast<QueryId>(rng.NextBounded(kMaxQueries));
      gf.RemoveQuery(q);
      live.erase(q);
      freed.push_back(q);
    }
    while (freed.size() > 50) {
      const QueryId q = freed.back();
      freed.pop_back();
      if (live.count(q)) continue;  // Already re-registered this round.
      register_query(q);
    }

    // Cross-check the recompiled index on probes spanning all regions.
    for (int trial = 0; trial < 20; ++trial) {
      const int64_t v = rng.NextInt(-55, 55);
      SmallBitset m = AllOf(gf.num_queries());
      gf.Apply(Value::Int64(v), &m);
      for (QueryId q = 0; q < gf.num_queries(); ++q) {
        ASSERT_EQ(m.Test(q), naive(v, q))
            << "round " << round << " value " << v << " query " << q
            << " seed " << GetParam();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GroupedFilterChurnTest,
                         ::testing::Values(101, 102, 103, 104));

// The QueryIndex under churn: slots registering grouped factors on two
// columns and residuals (arithmetic, OR trees) are removed and re-added
// with different factors; every Narrow, over random candidate seeds and
// tuples with NULL cells, must equal a naive Expr::Eval of each live
// slot's conjunction. A factor surviving its slot's Remove fails it.
class QueryIndexChurnTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(QueryIndexChurnTest, ChurnedIndexMatchesNaiveEvaluation) {
  Rng rng(GetParam());
  constexpr size_t kSlots = 160;
  const SchemaPtr schema = Schema::Make(
      {{"a", ValueType::kInt64, ""}, {"b", ValueType::kInt64, ""}});
  const BinaryOp ops[] = {BinaryOp::kEq, BinaryOp::kNe, BinaryOp::kLt,
                          BinaryOp::kLe, BinaryOp::kGt, BinaryOp::kGe};
  auto column = [&] { return Expr::Column(rng.NextBool(0.5) ? "a" : "b"); };
  auto literal = [&] {
    return Expr::Literal(Value::Int64(rng.NextInt(-20, 20)));
  };
  auto random_factor = [&]() -> ExprPtr {
    switch (rng.NextBounded(4)) {
      case 0:  // Residual: arithmetic over both columns.
        return Expr::Binary(
            ops[rng.NextBounded(6)],
            Expr::Binary(BinaryOp::kAdd, Expr::Column("a"), Expr::Column("b")),
            literal());
      case 1:  // Residual: an OR tree.
        return Expr::Binary(
            BinaryOp::kOr,
            Expr::Binary(ops[rng.NextBounded(6)], column(), literal()),
            Expr::Binary(ops[rng.NextBounded(6)], column(), literal()));
      default:  // Grouped, either orientation.
        return rng.NextBool(0.5)
                   ? Expr::Binary(ops[rng.NextBounded(6)], column(), literal())
                   : Expr::Binary(ops[rng.NextBounded(6)], literal(), column());
    }
  };

  QueryIndex index;
  // live[slot] = the bound factors the slot holds now (absent = none).
  std::unordered_map<size_t, std::vector<ExprPtr>> live;
  size_t grouped = 0, residual = 0;
  auto add = [&](size_t slot) {
    std::vector<ExprPtr> factors;
    const size_t n = rng.NextBounded(4);  // Zero factors: unconstrained.
    for (size_t i = 0; i < n; ++i) factors.push_back(random_factor());
    if (rng.NextBool(0.1)) {  // A contradictory range on one column.
      const ExprPtr c = column();
      factors.push_back(
          Expr::Binary(BinaryOp::kGt, c, Expr::Literal(Value::Int64(5))));
      factors.push_back(
          Expr::Binary(BinaryOp::kLt, c, Expr::Literal(Value::Int64(-5))));
    }
    std::vector<FactorPlan> plans;
    auto& bound = live[slot];
    for (const ExprPtr& f : factors) {
      Result<FactorPlan> fp = ClassifyFactor(f, *schema);
      ASSERT_TRUE(fp.ok()) << fp.status();
      ASSERT_NE(fp->kind, FactorPlan::Kind::kJoin);
      ++(fp->kind == FactorPlan::Kind::kGrouped ? grouped : residual);
      plans.push_back(std::move(*fp));
      Result<ExprPtr> b = f->Bind(*schema);
      ASSERT_TRUE(b.ok()) << b.status();
      bound.push_back(std::move(*b));
    }
    index.Add(slot, plans);
  };
  auto naive = [&](const Tuple& t, size_t slot) {
    auto it = live.find(slot);
    if (it == live.end()) return true;
    for (const ExprPtr& e : it->second) {
      const Value keep = e->Eval(t);
      if (keep.is_null() || !keep.bool_value()) return false;
    }
    return true;
  };
  auto cell = [&] {
    return rng.NextBool(0.1) ? Value() : Value::Int64(rng.NextInt(-25, 25));
  };

  for (size_t slot = 0; slot < kSlots; ++slot) add(slot);
  for (int round = 0; round < 30; ++round) {
    // Churn: remove slots, re-adding most at once with new factors.
    for (int i = 0; i < 20; ++i) {
      const size_t slot = rng.NextBounded(kSlots);
      index.Remove(slot);
      live.erase(slot);
      if (rng.NextBool(0.7)) add(slot);
    }
    for (int trial = 0; trial < 40; ++trial) {
      const Tuple t = Tuple::Make({cell(), cell()}, trial);
      SmallBitset seed(kSlots);
      for (size_t slot = 0; slot < kSlots; ++slot) {
        if (rng.NextBool(0.8)) seed.Set(slot);
      }
      SmallBitset got = seed;
      index.Narrow(t, &got);
      for (size_t slot = 0; slot < kSlots; ++slot) {
        ASSERT_EQ(got.Test(slot), seed.Test(slot) && naive(t, slot))
            << "round " << round << " slot " << slot << " tuple "
            << t.ToString() << " seed " << GetParam();
      }
    }
  }
  EXPECT_GT(grouped, 0u);
  EXPECT_GT(residual, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, QueryIndexChurnTest,
                         ::testing::Values(201, 202, 203, 204));

// Numeric constants of the other type: on a DOUBLE column an INT64
// constant is grouped as the double it compares as, and on an INT64
// column a DOUBLE constant stays residual. Every Narrow, over cells with
// NULL and NaN, equals each slot's factors under Expr::Eval.
TEST(QueryIndexTest, MixedNumericConstantsMatchFactorEvaluation) {
  const SchemaPtr schema = Schema::Make(
      {{"i", ValueType::kInt64, ""}, {"d", ValueType::kDouble, ""}});
  const BinaryOp ops[] = {BinaryOp::kEq, BinaryOp::kNe, BinaryOp::kLt,
                          BinaryOp::kLe, BinaryOp::kGt, BinaryOp::kGe};
  Rng rng(31);
  constexpr size_t kSlots = 120;
  QueryIndex index;
  std::vector<std::vector<ExprPtr>> bound(kSlots);
  size_t grouped_on_d = 0, residual_on_i = 0;
  for (size_t slot = 0; slot < kSlots; ++slot) {
    std::vector<FactorPlan> plans;
    const size_t n = 1 + rng.NextBounded(3);
    for (size_t k = 0; k < n; ++k) {
      const bool on_d = rng.NextBool(0.5);
      const bool int_constant = rng.NextBool(0.5);
      const int64_t c = rng.NextInt(-6, 6);
      const Value constant = int_constant ? Value::Int64(c)
                                          : Value::Double(0.5 * static_cast<double>(c));
      const ExprPtr factor =
          rng.NextBool(0.5)
              ? Expr::Binary(ops[rng.NextBounded(6)],
                             Expr::Column(on_d ? "d" : "i"),
                             Expr::Literal(constant))
              : Expr::Binary(ops[rng.NextBounded(6)], Expr::Literal(constant),
                             Expr::Column(on_d ? "d" : "i"));
      Result<FactorPlan> fp = ClassifyFactor(factor, *schema);
      ASSERT_TRUE(fp.ok()) << fp.status();
      if (on_d) {
        ASSERT_EQ(fp->kind, FactorPlan::Kind::kGrouped) << factor->ToString();
        ASSERT_EQ(fp->constant.type(), ValueType::kDouble);
        ++grouped_on_d;
      } else if (!int_constant) {
        ASSERT_EQ(fp->kind, FactorPlan::Kind::kResidual) << factor->ToString();
        ++residual_on_i;
      }
      plans.push_back(std::move(*fp));
      Result<ExprPtr> b = factor->Bind(*schema);
      ASSERT_TRUE(b.ok()) << b.status();
      bound[slot].push_back(std::move(*b));
    }
    index.Add(slot, plans);
  }
  EXPECT_GT(grouped_on_d, 0u);
  EXPECT_GT(residual_on_i, 0u);

  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (int trial = 0; trial < 400; ++trial) {
    const Value i = rng.NextBool(0.1) ? Value() : Value::Int64(rng.NextInt(-7, 7));
    Value d;
    switch (rng.NextBounded(8)) {
      case 0:
        break;  // NULL.
      case 1:
        d = Value::Double(nan);
        break;
      case 2:
        d = Value::Double(-0.0);
        break;
      default:
        d = Value::Double(0.5 * static_cast<double>(rng.NextInt(-14, 14)));
    }
    const Tuple t = Tuple::Make({i, d}, trial);
    SmallBitset got = AllOf(kSlots);
    index.Narrow(t, &got);
    for (size_t slot = 0; slot < kSlots; ++slot) {
      bool want = true;
      for (const ExprPtr& e : bound[slot]) {
        const Value keep = e->Eval(t);
        want = want && !keep.is_null() && keep.bool_value();
      }
      ASSERT_EQ(got.Test(slot), want)
          << "slot " << slot << " tuple " << t.ToString();
    }
  }
}

}  // namespace
}  // namespace tcq
