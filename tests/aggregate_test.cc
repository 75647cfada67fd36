#include "modules/aggregate.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>

#include "common/rng.h"

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

/// An AggregateState with its specs and group keys, as a query holds
/// them.
struct Agg {
  explicit Agg(std::vector<AggregateSpec> s, std::vector<ExprPtr> k = {})
      : specs(std::move(s)), keys(std::move(k)), state(specs, keys) {}
  void Add(const Tuple& t) { state.Add(specs, keys, t); }
  TupleVector Emit(Timestamp ts) const { return state.Emit(specs, keys, ts); }

  std::vector<AggregateSpec> specs;
  std::vector<ExprPtr> keys;
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

// Panes (DESIGN.md §17): the in-order merge of the states of consecutive
// runs of tuples equals one pass over them, for every aggregate
// Accumulator::Mergeable admits, grouped or not, with NULLs, NaNs first,
// last and between, signed zeros and ties.
TEST(AggregateTest, MergeOfConsecutiveRunsEqualsOnePass) {
  SchemaPtr schema = Schema::Make({{"k", ValueType::kString, ""},
                                   {"v", ValueType::kInt64, ""},
                                   {"d", ValueType::kDouble, ""}});
  const ExprPtr v = *Expr::Column("v")->Bind(*schema);
  const ExprPtr d = *Expr::Column("d")->Bind(*schema);
  std::vector<AggregateSpec> specs;
  for (const auto& [kind, arg] :
       std::vector<std::pair<AggKind, ExprPtr>>{{AggKind::kCount, nullptr},
                                                {AggKind::kCount, v},
                                                {AggKind::kSum, v},
                                                {AggKind::kMin, v},
                                                {AggKind::kMax, v},
                                                {AggKind::kMin, d},
                                                {AggKind::kMax, d}}) {
    specs.push_back(AggregateSpec{kind, arg, AggKindToString(kind)});
  }
  ASSERT_TRUE(Accumulator::Mergeable(specs));
  const std::vector<ExprPtr> keys{*Expr::Column("k")->Bind(*schema)};
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    Rng rng(seed);
    std::vector<Tuple> tuples;
    for (int i = 0; i < 1 + static_cast<int>(rng.NextBounded(30)); ++i) {
      const double doubles[] = {nan, -0.0, 0.0, 1.5, -2.25, 7.0};
      tuples.push_back(Tuple::Make(
          {Value::String(std::string(1, static_cast<char>(
                                            'a' + rng.NextBounded(3)))),
           rng.NextBounded(6) == 0 ? Value::Null()
                                   : Value::Int64(rng.NextInt(-3, 3)),
           rng.NextBounded(6) == 0
               ? Value::Null()
               : Value::Double(doubles[rng.NextBounded(6)])},
          i));
    }
    for (const std::vector<ExprPtr>& group_by : {std::vector<ExprPtr>{}, keys}) {
      AggregateState whole(specs, group_by);
      for (const Tuple& t : tuples) whole.Add(specs, group_by, t);
      AggregateState merged(specs, group_by);
      for (size_t at = 0; at < tuples.size();) {
        const size_t run = 1 + rng.NextBounded(5);
        AggregateState part(specs, group_by);
        for (size_t i = at; i < std::min(tuples.size(), at + run); ++i) {
          part.Add(specs, group_by, tuples[i]);
        }
        merged.Merge(specs, group_by, part);
        at += run;
      }
      const TupleVector want = whole.Emit(specs, group_by, 9);
      const TupleVector got = merged.Emit(specs, group_by, 9);
      ASSERT_EQ(got.size(), want.size()) << "seed " << seed;
      for (size_t r = 0; r < want.size(); ++r) {
        for (size_t c = 0; c < want[r].arity(); ++c) {
          ASSERT_TRUE(SameCell(got[r].cell(c), want[r].cell(c)))
              << "seed " << seed << " row " << r << " cell " << c << ": "
              << got[r].cell(c).ToString() << " vs "
              << want[r].cell(c).ToString();
        }
      }
    }
  }
}

TEST(AggregateTest, OnlyOrderFreeAggregatesMerge) {
  SchemaPtr schema = Schema::Make({{"v", ValueType::kInt64, ""},
                                   {"d", ValueType::kDouble, ""}});
  auto spec = [&](AggKind kind, const char* column) {
    return std::vector<AggregateSpec>{
        {kind, *Expr::Column(column)->Bind(*schema), "x"}};
  };
  EXPECT_TRUE(Accumulator::Mergeable(spec(AggKind::kSum, "v")));
  EXPECT_TRUE(Accumulator::Mergeable(spec(AggKind::kMax, "d")));
  // A double sum depends on its accumulation order.
  EXPECT_FALSE(Accumulator::Mergeable(spec(AggKind::kSum, "d")));
  EXPECT_FALSE(Accumulator::Mergeable(spec(AggKind::kAvg, "v")));
}

}  // namespace
}  // namespace tcq
