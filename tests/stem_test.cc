#include "stem/stem.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "kv.h"

namespace tcq {
namespace {

SteM::Options Indexed() {
  SteM::Options o;
  o.key_field = 0;
  return o;
}

TEST(SteMTest, InsertAndSize) {
  SteM stem("s", KV(), Indexed());
  EXPECT_TRUE(stem.empty());
  stem.Insert(KVTuple(1, 10, 1));
  stem.Insert(KVTuple(2, 20, 2));
  EXPECT_EQ(stem.size(), 2u);
  EXPECT_EQ(stem.stats().inserts, 2u);
}

TEST(SteMTest, IndexedProbeFindsMatches) {
  SteM stem("s", KV(), Indexed());
  stem.Insert(KVTuple(1, 10, 1));
  stem.Insert(KVTuple(1, 11, 2));
  stem.Insert(KVTuple(2, 20, 3));
  const Tuple probe = KVTuple(1, 99, 5);
  TupleVector matches = stem.Probe(probe, /*probe_key_field=*/0,
                                   /*probe_on_left=*/true, nullptr);
  ASSERT_EQ(matches.size(), 2u);
  for (const Tuple& m : matches) {
    EXPECT_EQ(m.arity(), 4u);
    EXPECT_EQ(m.cell(0).int64_value(), 1);   // Probe side.
    EXPECT_EQ(m.cell(2).int64_value(), 1);   // Stored side key.
  }
  EXPECT_EQ(stem.stats().matches, 2u);
}

TEST(SteMTest, ProbeOnRightConcatsStoredFirst) {
  SteM stem("s", KV(), Indexed());
  stem.Insert(KVTuple(7, 70, 1));
  const Tuple probe = KVTuple(7, 99, 5);
  TupleVector matches =
      stem.Probe(probe, 0, /*probe_on_left=*/false, nullptr);
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].cell(1).int64_value(), 70);  // Stored v first.
  EXPECT_EQ(matches[0].cell(3).int64_value(), 99);  // Probe v second.
}

TEST(SteMTest, ResidualPredicateFilters) {
  SteM stem("s", KV(), Indexed());
  stem.Insert(KVTuple(1, 10, 1));
  stem.Insert(KVTuple(1, 30, 2));
  // Concat schema: probe(k,v) ++ stored(k,v); filter stored.v > 20.
  SchemaPtr concat = Schema::Concat(*KV()->WithQualifier("p"),
                                    *KV()->WithQualifier("s"));
  auto residual = Expr::Binary(BinaryOp::kGt, Expr::Column("s.v"),
                               Expr::Literal(Value::Int64(20)))
                      ->Bind(*concat);
  ASSERT_TRUE(residual.ok());
  TupleVector matches = stem.Probe(KVTuple(1, 0, 9), 0, true, *residual);
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].cell(3).int64_value(), 30);
}

TEST(SteMTest, UnindexedProbeScans) {
  SteM::Options o;  // No key field.
  SteM stem("s", KV(), o);
  stem.Insert(KVTuple(1, 10, 1));
  stem.Insert(KVTuple(2, 20, 2));
  TupleVector matches = stem.Probe(KVTuple(9, 9, 9), -1, true, nullptr);
  EXPECT_EQ(matches.size(), 2u);  // No residual: everything matches.
  EXPECT_EQ(stem.stats().scanned, 2u);
}

TEST(SteMTest, ProbeWindowRestrictsByTimestamp) {
  SteM stem("s", KV(), Indexed());
  for (int64_t ts = 1; ts <= 10; ++ts) stem.Insert(KVTuple(1, ts, ts));
  TupleVector matches =
      stem.ProbeWindow(KVTuple(1, 0, 0), 0, true, nullptr, 3, 7);
  EXPECT_EQ(matches.size(), 5u);
  for (const Tuple& m : matches) {
    EXPECT_GE(m.cell(3).int64_value(), 3);
    EXPECT_LE(m.cell(3).int64_value(), 7);
  }
}

TEST(SteMTest, EvictBeforeRemovesOldState) {
  SteM stem("s", KV(), Indexed());
  for (int64_t ts = 1; ts <= 10; ++ts) stem.Insert(KVTuple(1, ts, ts));
  EXPECT_EQ(stem.EvictBefore(6), 5u);
  EXPECT_EQ(stem.size(), 5u);
  TupleVector matches = stem.Probe(KVTuple(1, 0, 0), 0, true, nullptr);
  EXPECT_EQ(matches.size(), 5u);
  for (const Tuple& m : matches) EXPECT_GE(m.cell(3).int64_value(), 6);
}

TEST(SteMTest, EvictOutsideKeepsWindowOnly) {
  SteM stem("s", KV(), Indexed());
  for (int64_t ts = 1; ts <= 10; ++ts) stem.Insert(KVTuple(ts, ts, ts));
  EXPECT_EQ(stem.EvictOutside(4, 6), 7u);
  EXPECT_EQ(stem.size(), 3u);
}

TEST(SteMTest, CapacityBoundEvictsFifo) {
  SteM::Options o = Indexed();
  o.max_tuples = 3;
  SteM stem("s", KV(), o);
  for (int64_t i = 1; i <= 5; ++i) stem.Insert(KVTuple(i, i, i));
  EXPECT_EQ(stem.size(), 3u);
  // 1 and 2 evicted; 3..5 remain.
  EXPECT_TRUE(stem.Probe(KVTuple(1, 0, 0), 0, true, nullptr).empty());
  EXPECT_EQ(stem.Probe(KVTuple(3, 0, 0), 0, true, nullptr).size(), 1u);
  EXPECT_EQ(stem.Probe(KVTuple(5, 0, 0), 0, true, nullptr).size(), 1u);
}

TEST(SteMTest, ClearResets) {
  SteM stem("s", KV(), Indexed());
  stem.Insert(KVTuple(1, 1, 1));
  stem.Clear();
  EXPECT_TRUE(stem.empty());
  EXPECT_TRUE(stem.Probe(KVTuple(1, 0, 0), 0, true, nullptr).empty());
  stem.Insert(KVTuple(1, 2, 2));
  EXPECT_EQ(stem.Probe(KVTuple(1, 0, 0), 0, true, nullptr).size(), 1u);
}

TEST(SteMTest, ForEachVisitsLiveInArrivalOrder) {
  SteM stem("s", KV(), Indexed());
  for (int64_t i = 1; i <= 4; ++i) stem.Insert(KVTuple(i, i, i));
  stem.EvictBefore(2);  // Kill tuple ts=1.
  std::vector<int64_t> seen;
  stem.ForEach([&](const Tuple& t) { seen.push_back(t.cell(0).int64_value()); });
  EXPECT_EQ(seen, (std::vector<int64_t>{2, 3, 4}));
}

TEST(SteMTest, ProbeCollectWithNullKeyScans) {
  SteM stem("s", KV(), Indexed());
  stem.Insert(KVTuple(1, 1, 1));
  stem.Insert(KVTuple(2, 2, 2));
  int n = 0;
  stem.ProbeCollect(nullptr, kMinTimestamp, kMaxTimestamp,
                    [&](const Tuple&) { ++n; });
  EXPECT_EQ(n, 2);
}

// Property: symmetric-hash join via two SteMs == reference nested loops.
class SteMJoinPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SteMJoinPropertyTest, SymmetricHashJoinMatchesNestedLoops) {
  Rng rng(GetParam());
  const int n = 200;
  const int64_t key_space = 20;

  SteM stem_s("S", KV(), Indexed());
  SteM stem_t("T", KV(), Indexed());
  TupleVector s_tuples, t_tuples;

  size_t joined = 0;
  for (int i = 0; i < n; ++i) {
    const bool from_s = rng.NextBool(0.5);
    Tuple t = KVTuple(static_cast<int64_t>(rng.NextBounded(key_space)),
                      i, i);
    if (from_s) {
      // Build into own SteM, then probe the other side.
      stem_s.Insert(t);
      s_tuples.push_back(t);
      joined += stem_t.Probe(t, 0, true, nullptr).size();
    } else {
      stem_t.Insert(t);
      t_tuples.push_back(t);
      joined += stem_s.Probe(t, 0, false, nullptr).size();
    }
  }

  size_t expected = 0;
  for (const Tuple& s : s_tuples) {
    for (const Tuple& t : t_tuples) {
      if (s.cell(0) == t.cell(0)) ++expected;
    }
  }
  EXPECT_EQ(joined, expected);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SteMJoinPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 11, 23, 42));

}  // namespace
}  // namespace tcq
