#include "modules/aggregate.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <optional>

#include "common/rng.h"
#include "core/analyzer.h"
#include "parser/parser.h"

namespace tcq {
namespace {

SchemaPtr KV() {
  return Schema::Make(
      {{"k", ValueType::kString, ""}, {"v", ValueType::kInt64, ""}});
}

Tuple Row(const std::string& k, int64_t v, Timestamp ts) {
  return Tuple::Make({Value::String(k), Value::Int64(v)}, ts);
}

std::vector<AggregateSpec> Specs(std::initializer_list<AggKind> kinds) {
  SchemaPtr schema = KV();
  std::vector<AggregateSpec> specs;
  for (AggKind kind : kinds) {
    AggregateSpec s;
    s.kind = kind;
    if (kind != AggKind::kCount) {
      s.arg = *Expr::Column("v")->Bind(*schema);
    }
    s.output_name = AggKindToString(kind);
    specs.push_back(std::move(s));
  }
  return specs;
}

/// An AggregateState with its plan, as a query holds them.
struct Agg {
  explicit Agg(const std::vector<AggregateSpec>& specs,
               std::vector<ExprPtr> keys = {})
      : Agg(AggregatePlan(specs, std::move(keys))) {}
  explicit Agg(AggregatePlan p) : plan(std::move(p)), state(plan) {}
  void Add(const Tuple& t) { state.Add(plan, t); }
  TupleVector Emit(Timestamp ts) const { return state.Emit(plan, ts); }

  AggregatePlan plan;
  AggregateState state;
};

std::vector<ExprPtr> KeyK() { return {*Expr::Column("k")->Bind(*KV())}; }

TEST(AggregateTest, UngroupedBasics) {
  Agg agg(Specs({AggKind::kCount, AggKind::kSum, AggKind::kAvg,
                 AggKind::kMin, AggKind::kMax}));
  agg.Add(Row("a", 10, 1));
  agg.Add(Row("b", 20, 2));
  agg.Add(Row("c", 30, 3));
  TupleVector rows = agg.Emit(3);
  ASSERT_EQ(rows.size(), 1u);
  const Tuple& r = rows[0];
  EXPECT_EQ(r.cell(0).int64_value(), 3);           // COUNT(*).
  EXPECT_EQ(r.cell(1).int64_value(), 60);          // SUM (int arg -> int).
  EXPECT_DOUBLE_EQ(r.cell(2).double_value(), 20);  // AVG.
  EXPECT_EQ(r.cell(3).int64_value(), 10);          // MIN.
  EXPECT_EQ(r.cell(4).int64_value(), 30);          // MAX.
  EXPECT_EQ(r.timestamp(), 3);
}

TEST(AggregateTest, EmptyUngroupedEmitsOneNullishRow) {
  // SQL semantics: SELECT SUM(v) over an empty set = one row, NULL.
  Agg agg(Specs({AggKind::kSum, AggKind::kCount}));
  TupleVector rows = agg.Emit(0);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_TRUE(rows[0].cell(0).is_null());
  EXPECT_EQ(rows[0].cell(1).int64_value(), 0);
}

TEST(AggregateTest, EmptyGroupedEmitsNothing) {
  Agg agg(Specs({AggKind::kSum}), KeyK());
  EXPECT_TRUE(agg.Emit(0).empty());
}

TEST(AggregateTest, GroupedCounts) {
  Agg agg(Specs({AggKind::kCount, AggKind::kSum}), KeyK());
  agg.Add(Row("a", 1, 1));
  agg.Add(Row("b", 2, 2));
  agg.Add(Row("a", 3, 3));
  TupleVector rows = agg.Emit(3);
  ASSERT_EQ(rows.size(), 2u);  // Sorted by key: a, b.
  EXPECT_EQ(rows[0].cell(0).string_value(), "a");
  EXPECT_EQ(rows[0].cell(1).int64_value(), 2);
  EXPECT_EQ(rows[0].cell(2).int64_value(), 4);
  EXPECT_EQ(rows[1].cell(0).string_value(), "b");
  EXPECT_EQ(rows[1].cell(1).int64_value(), 1);
}

TEST(AggregateTest, LandmarkMaxKeepsOneValue) {
  // §4.1.2: a landmark MAX never retires a tuple, so its state is the
  // running maximum alone.
  Agg agg(Specs({AggKind::kMax}));
  for (Timestamp ts = 1; ts <= 1000; ++ts) agg.Add(Row("a", ts, ts));
  TupleVector rows = agg.Emit(1000);
  EXPECT_EQ(rows[0].cell(0).int64_value(), 1000);
}

TEST(AggregateTest, NullsAreIgnored) {
  SchemaPtr schema = Schema::Make({{"v", ValueType::kInt64, ""}});
  AggregateSpec count_star;
  count_star.kind = AggKind::kCount;
  AggregateSpec avg;
  avg.kind = AggKind::kAvg;
  avg.arg = *Expr::Column("v")->Bind(*schema);
  Agg agg({count_star, avg});
  agg.Add(Tuple::Make({Value::Int64(10)}, 1));
  agg.Add(Tuple::Make({Value::Null()}, 2));
  TupleVector rows = agg.Emit(2);
  EXPECT_EQ(rows[0].cell(0).int64_value(), 2);          // COUNT(*) counts rows.
  EXPECT_DOUBLE_EQ(rows[0].cell(1).double_value(), 10);  // AVG skips NULL.
}

TEST(AggregateTest, IntegerSumIsExactAndNullOnOverflow) {
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  auto sum_of = [](std::initializer_list<int64_t> vs) {
    Agg agg(Specs({AggKind::kSum}));
    Timestamp ts = 0;
    for (int64_t v : vs) agg.Add(Row("a", v, ++ts));
    return agg.Emit(ts)[0].cell(0);
  };
  // A double accumulator rounds 2^53 + 1 down to 2^53.
  EXPECT_EQ(sum_of({int64_t{1} << 53, 1}).int64_value(),
            (int64_t{1} << 53) + 1);
  EXPECT_EQ(sum_of({kMax}).int64_value(), kMax);
  EXPECT_TRUE(sum_of({kMax, 1}).is_null());
  // A sum that passes out of range and comes back is exact again.
  EXPECT_EQ(sum_of({kMax, 1, -1}).int64_value(), kMax);
}

TEST(AggregateTest, ClearEmptiesTheState) {
  for (const std::vector<ExprPtr>& keys : {std::vector<ExprPtr>{}, KeyK()}) {
    Agg agg(Specs({AggKind::kSum}), keys);
    agg.Add(Row("a", 5, 1));
    agg.state.Clear();
    // Back to the empty state: one NULL row ungrouped, none grouped.
    TupleVector rows = agg.Emit(1);
    if (!keys.empty()) {
      EXPECT_TRUE(rows.empty());
      continue;
    }
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_TRUE(rows[0].cell(0).is_null());
  }
}

/// Equal type and value; doubles bit for bit (NaN payloads, -0.0).
bool SameCell(const Value& a, const Value& b) {
  if (a.type() != b.type()) return false;
  if (a.type() == ValueType::kDouble) {
    return std::bit_cast<uint64_t>(a.double_value()) ==
           std::bit_cast<uint64_t>(b.double_value());
  }
  return a == b;
}

/// The cells of two emitted row sets, compared with SameCell.
void ExpectSameRows(const TupleVector& got, const TupleVector& want,
                    const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (size_t r = 0; r < want.size(); ++r) {
    ASSERT_EQ(got[r].arity(), want[r].arity()) << context;
    for (size_t c = 0; c < want[r].arity(); ++c) {
      ASSERT_TRUE(SameCell(got[r].cell(c), want[r].cell(c)))
          << context << " row " << r << " cell " << c << ": "
          << got[r].cell(c).ToString() << " vs " << want[r].cell(c).ToString();
    }
  }
}

/// k, v, d, s, b and h: a group key, one column of each type, and h,
/// doubles whose sums are exact in any order.
SchemaPtr Mixed() {
  return Schema::Make({{"k", ValueType::kString, ""},
                       {"v", ValueType::kInt64, ""},
                       {"d", ValueType::kDouble, ""},
                       {"s", ValueType::kString, ""},
                       {"b", ValueType::kBool, ""},
                       {"h", ValueType::kDouble, ""}});
}

ExprPtr BindMixed(const std::string& expr) {
  auto parsed = ParseQuery("SELECT " + expr + " FROM M");
  EXPECT_TRUE(parsed.ok()) << parsed.status();
  auto bound = parsed->select[0].expr->Bind(*Mixed());
  EXPECT_TRUE(bound.ok()) << bound.status();
  return *bound;
}

/// One spec per op: COUNT(*) and COUNT(arg), INT64 SUM, MIN and MAX of
/// each type, over bare columns and computed arguments.
std::vector<AggregateSpec> EveryMergeableOp() {
  std::vector<AggregateSpec> specs;
  for (const auto& [kind, arg] : std::vector<std::pair<AggKind, const char*>>{
           {AggKind::kCount, nullptr}, {AggKind::kCount, "v"},
           {AggKind::kSum, "v"},       {AggKind::kSum, "v + 1"},
           {AggKind::kMin, "v"},       {AggKind::kMax, "v"},
           {AggKind::kMin, "-v"},      {AggKind::kMax, "v * 2"},
           {AggKind::kMin, "d"},       {AggKind::kMax, "d"},
           {AggKind::kMax, "d * 2"},   {AggKind::kMin, "s"},
           {AggKind::kMax, "s"},       {AggKind::kMin, "b"},
           {AggKind::kMax, "b"}}) {
    specs.push_back(AggregateSpec{kind, arg ? BindMixed(arg) : nullptr,
                                  AggKindToString(kind)});
  }
  return specs;
}

Tuple MixedRow(Rng* rng, Timestamp ts) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double doubles[] = {nan, -0.0, 0.0, 1.5, -2.25, 7.0};
  const int64_t ints[] = {INT64_MIN, -3, 0, 2, 3, INT64_MAX};
  const char* const strings[] = {"", "a", "ab", "b"};
  auto maybe_null = [rng](Value v) {
    return rng->NextBounded(6) == 0 ? Value::Null() : std::move(v);
  };
  return Tuple::Make(
      {Value::String(std::string(1, static_cast<char>('a' + rng->NextBounded(3)))),
       maybe_null(Value::Int64(ints[rng->NextBounded(6)])),
       maybe_null(Value::Double(doubles[rng->NextBounded(6)])),
       maybe_null(Value::String(strings[rng->NextBounded(4)])),
       maybe_null(Value::Bool(rng->NextBounded(2) == 0)),
       maybe_null(Value::Double(doubles[1 + rng->NextBounded(5)]))},
      ts);
}

// Panes (DESIGN.md §17): the in-order merge of the states of consecutive
// runs of tuples equals one pass over them, for every op, grouped or not,
// with NULLs, INT64 extremes, NaNs first, last and between, signed zeros
// and ties. DOUBLE SUM and AVG merge too, but only exactly when the sums
// do not round (column h here); AggregatePlan::Mergeable leaves them out.
TEST(AggregateTest, MergeOfConsecutiveRunsEqualsOnePass) {
  const std::vector<AggregateSpec> mergeable = EveryMergeableOp();
  ASSERT_TRUE(AggregatePlan(mergeable, {}).Mergeable());
  std::vector<AggregateSpec> specs = mergeable;
  specs.push_back({AggKind::kSum, BindMixed("h"), "sum_h"});
  specs.push_back({AggKind::kAvg, BindMixed("h"), "avg_h"});
  ASSERT_FALSE(AggregatePlan(specs, {}).Mergeable());
  const std::vector<ExprPtr> keys{BindMixed("k")};
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    Rng rng(seed);
    std::vector<Tuple> tuples;
    for (int i = 0; i < 1 + static_cast<int>(rng.NextBounded(30)); ++i) {
      tuples.push_back(MixedRow(&rng, i));
    }
    for (const std::vector<ExprPtr>& group_by : {std::vector<ExprPtr>{}, keys}) {
      const AggregatePlan plan(specs, group_by);
      AggregateState whole(plan);
      for (const Tuple& t : tuples) whole.Add(plan, t);
      AggregateState merged(plan);
      for (size_t at = 0; at < tuples.size();) {
        const size_t run = 1 + rng.NextBounded(5);
        AggregateState part(plan);
        for (size_t i = at; i < std::min(tuples.size(), at + run); ++i) {
          part.Add(plan, tuples[i]);
        }
        merged.Merge(plan, part);
        at += run;
      }
      ExpectSameRows(merged.Emit(plan, 9), whole.Emit(plan, 9),
                     "seed " + std::to_string(seed));
      // A cleared state merged with the whole is the whole.
      merged.Clear();
      merged.Merge(plan, whole);
      ExpectSameRows(merged.Emit(plan, 9), whole.Emit(plan, 9),
                     "cleared, seed " + std::to_string(seed));
    }
  }
}

TEST(AggregateTest, IntegerExtremesAndNulls) {
  const std::vector<AggregateSpec> specs = {
      {AggKind::kMin, BindMixed("v"), "min"},
      {AggKind::kMax, BindMixed("v"), "max"}};
  auto run = [&](std::initializer_list<std::optional<int64_t>> vs) {
    Agg agg(specs);
    Timestamp ts = 0;
    for (const std::optional<int64_t>& v : vs) {
      agg.Add(Tuple::Make({Value::String("a"),
                           v ? Value::Int64(*v) : Value::Null(),
                           Value::Null(), Value::Null(), Value::Null(),
                           Value::Null()},
                          ++ts));
    }
    return agg.Emit(ts)[0];
  };
  const Tuple extremes = run({INT64_MAX, std::nullopt, INT64_MIN, 0});
  EXPECT_EQ(extremes.cell(0).int64_value(), INT64_MIN);
  EXPECT_EQ(extremes.cell(1).int64_value(), INT64_MAX);
  const Tuple one = run({std::nullopt, INT64_MIN, std::nullopt});
  EXPECT_EQ(one.cell(0).int64_value(), INT64_MIN);
  EXPECT_EQ(one.cell(1).int64_value(), INT64_MIN);
  const Tuple top = run({INT64_MAX});
  EXPECT_EQ(top.cell(0).int64_value(), INT64_MAX);
  EXPECT_EQ(top.cell(1).int64_value(), INT64_MAX);
  // Only NULLs, or nothing: NULL, typed as the column otherwise is.
  for (const Tuple& none : {run({std::nullopt, std::nullopt}), run({})}) {
    EXPECT_TRUE(none.cell(0).is_null());
    EXPECT_TRUE(none.cell(1).is_null());
  }
}

TEST(AggregateTest, FirstNanPinsADoubleExtreme) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double other_nan = -std::numeric_limits<double>::quiet_NaN();
  const std::vector<AggregateSpec> specs = {
      {AggKind::kMin, BindMixed("d"), "min"},
      {AggKind::kMax, BindMixed("d"), "max"}};
  const AggregatePlan plan(specs, {});
  auto state_of = [&](std::initializer_list<double> ds) {
    AggregateState state(plan);
    for (const double d : ds) {
      state.Add(plan, Tuple::Make({Value::String("a"), Value::Null(),
                                   Value::Double(d), Value::Null(),
                                   Value::Null(), Value::Null()},
                                  1));
    }
    return state;
  };
  auto bits = [](const Value& v) {
    return std::bit_cast<uint64_t>(v.double_value());
  };
  // The first NaN pins both; a later NaN, of another sign, does not
  // replace it.
  const AggregateState pinned = state_of({nan, 3.0, other_nan, -1.0});
  const Tuple p = pinned.Emit(plan, 1)[0];
  EXPECT_EQ(bits(p.cell(0)), std::bit_cast<uint64_t>(nan));
  EXPECT_EQ(bits(p.cell(1)), std::bit_cast<uint64_t>(nan));
  // A NaN after a number is ignored.
  const Tuple later = state_of({2.0, nan, -1.0, 5.0}).Emit(plan, 1)[0];
  EXPECT_EQ(later.cell(0).double_value(), -1.0);
  EXPECT_EQ(later.cell(1).double_value(), 5.0);
  // Merged behind a pinned state, the result stays pinned; merged behind
  // a numeric one, a pinned state adds its numbers after the NaN.
  AggregateState behind = state_of({nan});
  behind.Merge(plan, state_of({4.0, other_nan}));
  const Tuple b = behind.Emit(plan, 1)[0];
  EXPECT_EQ(bits(b.cell(0)), std::bit_cast<uint64_t>(nan));
  EXPECT_EQ(bits(b.cell(1)), std::bit_cast<uint64_t>(nan));
  AggregateState ahead = state_of({1.0});
  ahead.Merge(plan, pinned);
  const Tuple a = ahead.Emit(plan, 1)[0];
  EXPECT_EQ(a.cell(0).double_value(), -1.0);
  EXPECT_EQ(a.cell(1).double_value(), 3.0);
  // Ties keep the first: -0.0 stays ahead of a later 0.0.
  const Tuple zeros = state_of({-0.0, 0.0}).Emit(plan, 1)[0];
  EXPECT_TRUE(std::signbit(zeros.cell(0).double_value()));
  EXPECT_TRUE(std::signbit(zeros.cell(1).double_value()));
}

TEST(AggregateTest, StringAndBoolExtremes) {
  Agg agg({{AggKind::kMin, BindMixed("s"), "min_s"},
           {AggKind::kMax, BindMixed("s"), "max_s"},
           {AggKind::kMin, BindMixed("b"), "min_b"},
           {AggKind::kMax, BindMixed("b"), "max_b"}});
  const std::pair<const char*, std::optional<bool>> rows[] = {
      {"pear", true}, {"apple", std::nullopt}, {"zoo", false}, {"", true}};
  for (const auto& [s, b] : rows) {
    agg.Add(Tuple::Make({Value::String("a"), Value::Null(), Value::Null(),
                         Value::String(s), b ? Value::Bool(*b) : Value::Null(),
                         Value::Null()},
                        1));
  }
  const Tuple r = agg.Emit(1)[0];
  EXPECT_EQ(r.cell(0).string_value(), "");
  EXPECT_EQ(r.cell(1).string_value(), "zoo");
  EXPECT_EQ(r.cell(2).bool_value(), false);
  EXPECT_EQ(r.cell(3).bool_value(), true);
}

TEST(AggregateTest, ComputedArguments) {
  Agg agg({{AggKind::kMax, BindMixed("v * 2"), "max2"},
           {AggKind::kSum, BindMixed("v + 1"), "sum1"},
           {AggKind::kMin, BindMixed("-v"), "neg"},
           {AggKind::kMax, BindMixed("d * 2"), "maxd2"}});
  for (const int64_t v : {4, -7, 10}) {
    agg.Add(Tuple::Make({Value::String("a"), Value::Int64(v),
                         Value::Double(static_cast<double>(v) / 4),
                         Value::Null(), Value::Null(), Value::Null()},
                        1));
  }
  // v * 2 overflows to NULL, which every aggregate skips.
  agg.Add(Tuple::Make({Value::String("a"), Value::Int64(INT64_MAX),
                       Value::Null(), Value::Null(), Value::Null(),
                       Value::Null()},
                      2));
  const Tuple r = agg.Emit(2)[0];
  EXPECT_EQ(r.cell(0).int64_value(), 20);
  EXPECT_EQ(r.cell(1).int64_value(), 10);  // Without INT64_MAX + 1.
  EXPECT_EQ(r.cell(2).int64_value(), -INT64_MAX);
  EXPECT_EQ(r.cell(3).double_value(), 5.0);
}

// The plan is built from the specs alone: specs written by hand resolve
// to the same ops, and give the same rows, as the analyzer's.
TEST(AggregateTest, HandBuiltSpecsMatchTheAnalyzers) {
  Catalog catalog;
  ASSERT_TRUE(catalog.RegisterStream(StreamDef{.name = "M", .schema = Mixed()})
                  .ok());
  auto aq = AnalyzeSql(
      "SELECT k, COUNT(*), COUNT(v), SUM(v), SUM(v + 1), MIN(v), MAX(-v), "
      "MIN(d), MAX(d * 2), MIN(s), MAX(b), SUM(h), AVG(v) FROM M GROUP BY k "
      "for (t = ST; true; t += 1) { WindowIs(M, t - 1, t); }",
      catalog);
  ASSERT_TRUE(aq.ok()) << aq.status();
  std::vector<AggregateSpec> by_hand;
  for (const auto& [kind, arg] : std::vector<std::pair<AggKind, const char*>>{
           {AggKind::kCount, nullptr}, {AggKind::kCount, "v"},
           {AggKind::kSum, "v"},       {AggKind::kSum, "v + 1"},
           {AggKind::kMin, "v"},       {AggKind::kMax, "-v"},
           {AggKind::kMin, "d"},       {AggKind::kMax, "d * 2"},
           {AggKind::kMin, "s"},       {AggKind::kMax, "b"},
           {AggKind::kSum, "h"},       {AggKind::kAvg, "v"}}) {
    by_hand.push_back(
        {kind, arg ? BindMixed(arg) : nullptr, AggKindToString(kind)});
  }
  Agg analyzed(aq->aggregate_plan);
  Agg hand(by_hand, {BindMixed("k")});
  EXPECT_EQ(analyzed.plan.Mergeable(), hand.plan.Mergeable());
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    for (int i = 0; i < 30; ++i) {
      const Tuple t = MixedRow(&rng, i);
      analyzed.Add(t);
      hand.Add(t);
    }
    ExpectSameRows(hand.Emit(seed), analyzed.Emit(seed),
                   "seed " + std::to_string(seed));
  }
}

TEST(AggregateTest, OnlyOrderFreeAggregatesMerge) {
  SchemaPtr schema = Schema::Make({{"v", ValueType::kInt64, ""},
                                   {"d", ValueType::kDouble, ""}});
  auto mergeable = [&](AggKind kind, const char* column) {
    return AggregatePlan({{kind, *Expr::Column(column)->Bind(*schema), "x"}},
                         {})
        .Mergeable();
  };
  EXPECT_TRUE(mergeable(AggKind::kSum, "v"));
  EXPECT_TRUE(mergeable(AggKind::kMax, "d"));
  // A double sum depends on its accumulation order.
  EXPECT_FALSE(mergeable(AggKind::kSum, "d"));
  EXPECT_FALSE(mergeable(AggKind::kAvg, "v"));
}

}  // namespace
}  // namespace tcq
