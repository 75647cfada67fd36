#include "modules/aggregate.h"

#include <gtest/gtest.h>

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
