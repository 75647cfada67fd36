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

TEST(AggregateTest, UngroupedBasics) {
  auto specs = Specs({AggKind::kCount, AggKind::kSum, AggKind::kAvg,
                      AggKind::kMin, AggKind::kMax});
  WindowAggregator agg(specs, {}, /*retain_tuples=*/false);
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
  WindowAggregator agg(Specs({AggKind::kSum, AggKind::kCount}), {}, false);
  TupleVector rows = agg.Emit(0);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_TRUE(rows[0].cell(0).is_null());
  EXPECT_EQ(rows[0].cell(1).int64_value(), 0);
}

TEST(AggregateTest, EmptyGroupedEmitsNothing) {
  SchemaPtr schema = KV();
  std::vector<ExprPtr> keys{*Expr::Column("k")->Bind(*schema)};
  WindowAggregator agg(Specs({AggKind::kSum}), keys, false);
  EXPECT_TRUE(agg.Emit(0).empty());
}

TEST(AggregateTest, GroupedCounts) {
  SchemaPtr schema = KV();
  std::vector<ExprPtr> keys{*Expr::Column("k")->Bind(*schema)};
  WindowAggregator agg(Specs({AggKind::kCount, AggKind::kSum}), keys, false);
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

TEST(AggregateTest, SlidingWindowSubtractablePath) {
  // COUNT/SUM/AVG retire in O(1): recomputes() stays 0.
  WindowAggregator agg(Specs({AggKind::kCount, AggKind::kSum}), {}, true);
  for (Timestamp ts = 1; ts <= 10; ++ts) agg.Add(Row("a", ts, ts));
  agg.SetWindow(6, 10);
  EXPECT_EQ(agg.recomputes(), 0u);
  TupleVector rows = agg.Emit(10);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].cell(0).int64_value(), 5);       // ts 6..10.
  EXPECT_EQ(rows[0].cell(1).int64_value(), 6 + 7 + 8 + 9 + 10);
  EXPECT_EQ(agg.buffered_tuples(), 5u);
}

TEST(AggregateTest, SlidingWindowMaxRequiresRecompute) {
  // §4.1.2: sliding MAX must retain and rescan the window.
  WindowAggregator agg(Specs({AggKind::kMax}), {}, true);
  for (Timestamp ts = 1; ts <= 10; ++ts) {
    agg.Add(Row("a", 100 - ts, ts));  // Decreasing values: max leaves first.
  }
  TupleVector before = agg.Emit(10);
  EXPECT_EQ(before[0].cell(0).int64_value(), 99);  // v of ts=1.
  agg.SetWindow(6, 10);
  EXPECT_GE(agg.recomputes(), 1u);
  TupleVector after = agg.Emit(10);
  EXPECT_EQ(after[0].cell(0).int64_value(), 94);  // v of ts=6.
}

TEST(AggregateTest, LandmarkMaxIsIncremental) {
  // Landmark windows never retire: MAX with no retained buffer.
  WindowAggregator agg(Specs({AggKind::kMax}), {}, /*retain_tuples=*/false);
  for (Timestamp ts = 1; ts <= 1000; ++ts) agg.Add(Row("a", ts, ts));
  EXPECT_EQ(agg.buffered_tuples(), 0u);  // O(1) state.
  TupleVector rows = agg.Emit(1000);
  EXPECT_EQ(rows[0].cell(0).int64_value(), 1000);
}

TEST(AggregateTest, GroupDisappearsWhenAllRetired) {
  SchemaPtr schema = KV();
  std::vector<ExprPtr> keys{*Expr::Column("k")->Bind(*schema)};
  WindowAggregator agg(Specs({AggKind::kCount}), keys, true);
  agg.Add(Row("a", 1, 1));
  agg.Add(Row("b", 2, 5));
  agg.SetWindow(4, 10);
  TupleVector rows = agg.Emit(10);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].cell(0).string_value(), "b");
}

TEST(AggregateTest, NullsAreIgnored) {
  SchemaPtr schema = Schema::Make({{"v", ValueType::kInt64, ""}});
  AggregateSpec count_star;
  count_star.kind = AggKind::kCount;
  AggregateSpec avg;
  avg.kind = AggKind::kAvg;
  avg.arg = *Expr::Column("v")->Bind(*schema);
  WindowAggregator agg({count_star, avg}, {}, false);
  agg.Add(Tuple::Make({Value::Int64(10)}, 1));
  agg.Add(Tuple::Make({Value::Null()}, 2));
  TupleVector rows = agg.Emit(2);
  EXPECT_EQ(rows[0].cell(0).int64_value(), 2);          // COUNT(*) counts rows.
  EXPECT_DOUBLE_EQ(rows[0].cell(1).double_value(), 10);  // AVG skips NULL.
}

TEST(AggregateTest, IntegerSumIsExactAndNullOnOverflow) {
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  auto sum_of = [](std::initializer_list<int64_t> vs) {
    WindowAggregator agg(Specs({AggKind::kSum}), {}, false);
    Timestamp ts = 0;
    for (int64_t v : vs) agg.Add(Row("a", v, ++ts));
    return agg.Emit(ts)[0].cell(0);
  };
  // A double accumulator rounds 2^53 + 1 down to 2^53.
  EXPECT_EQ(sum_of({int64_t{1} << 53, 1}).int64_value(),
            (int64_t{1} << 53) + 1);
  EXPECT_EQ(sum_of({kMax}).int64_value(), kMax);
  EXPECT_TRUE(sum_of({kMax, 1}).is_null());
  EXPECT_EQ(sum_of({kMax, 1, -1}).int64_value(), kMax);

  // Retiring the tuple that pushed the sum out of range brings it back.
  WindowAggregator sliding(Specs({AggKind::kSum}), {}, true);
  sliding.Add(Row("a", kMax, 1));
  sliding.Add(Row("a", 5, 2));
  EXPECT_TRUE(sliding.Emit(2)[0].cell(0).is_null());
  sliding.SetWindow(1, 1);
  EXPECT_EQ(sliding.Emit(2)[0].cell(0).int64_value(), kMax);
}

TEST(AggregateTest, ResetClearsEverything) {
  WindowAggregator agg(Specs({AggKind::kSum}), {}, true);
  agg.Add(Row("a", 5, 1));
  agg.Reset();
  // Back to the empty-ungrouped state: one NULL row, nothing buffered.
  TupleVector rows = agg.Emit(1);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_TRUE(rows[0].cell(0).is_null());
  EXPECT_EQ(agg.buffered_tuples(), 0u);
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

// Property: sliding-window COUNT/SUM via subtraction == recompute oracle.
class SlidingAggPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SlidingAggPropertyTest, SubtractionMatchesRecompute) {
  Rng rng(GetParam());
  WindowAggregator agg(Specs({AggKind::kCount, AggKind::kSum}), {}, true);
  std::vector<std::pair<Timestamp, int64_t>> data;
  Timestamp ts = 0;
  for (int i = 0; i < 300; ++i) {
    ts += 1 + static_cast<Timestamp>(rng.NextBounded(3));
    const int64_t v = rng.NextInt(-50, 50);
    data.emplace_back(ts, v);
    agg.Add(Row("x", v, ts));
    if (i % 10 == 9) {
      const Timestamp lo = ts - 20;
      agg.SetWindow(lo, ts);
      int64_t count = 0, sum = 0;
      for (auto& [dts, dv] : data) {
        if (dts >= lo && dts <= ts) {
          ++count;
          sum += dv;
        }
      }
      TupleVector rows = agg.Emit(ts);
      ASSERT_EQ(rows.size(), 1u);  // Ungrouped: always one row.
      ASSERT_EQ(rows[0].cell(0).int64_value(), count);
      if (count == 0) {
        ASSERT_TRUE(rows[0].cell(1).is_null());
      } else {
        ASSERT_EQ(rows[0].cell(1).int64_value(), sum);
      }
      // Oracle prune to keep the comparison windows aligned.
      data.erase(std::remove_if(data.begin(), data.end(),
                                [&](auto& p) { return p.first < lo; }),
                 data.end());
    }
  }
  EXPECT_EQ(agg.recomputes(), 0u);  // Subtractable all the way.
}

INSTANTIATE_TEST_SUITE_P(Seeds, SlidingAggPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace tcq
