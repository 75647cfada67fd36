#include "stem/stem.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "expr/ast.h"
#include "kv.h"

namespace tcq {
namespace {

constexpr int kIndexed = 0;  // Hash index on k.

SmallBitset Queries(std::initializer_list<size_t> ids, size_t n = 8) {
  SmallBitset b(n);
  for (size_t i : ids) b.Set(i);
  return b;
}

/// Stored tuples matching `key` (nullptr = scan) in [lo, hi].
TupleVector Collect(const SteM& stem, const Value* key,
                    Timestamp lo = kMinTimestamp,
                    Timestamp hi = kMaxTimestamp) {
  TupleVector out;
  stem.ProbeCollect(key, lo, hi, [&](const Tuple& t, const SmallBitset&) {
    out.push_back(t);
  });
  return out;
}

TEST(SteMTest, InsertAndSize) {
  SteM stem("s", KV(), kIndexed);
  EXPECT_EQ(stem.size(), 0u);
  stem.Insert(KVTuple(1, 10, 1));
  stem.Insert(KVTuple(2, 20, 2));
  EXPECT_EQ(stem.size(), 2u);
  EXPECT_EQ(stem.stats().inserts, 2u);
}

TEST(SteMTest, IndexedProbeFindsMatches) {
  SteM stem("s", KV(), kIndexed);
  stem.Insert(KVTuple(1, 10, 1));
  stem.Insert(KVTuple(1, 11, 2));
  stem.Insert(KVTuple(2, 20, 3));
  const Tuple probe = KVTuple(1, 99, 5);
  TupleVector matches;
  for (const Tuple& stored : Collect(stem, &probe.cell(0))) {
    matches.push_back(Tuple::Concat(probe, stored));
  }
  ASSERT_EQ(matches.size(), 2u);
  for (const Tuple& m : matches) {
    EXPECT_EQ(m.arity(), 4u);
    EXPECT_EQ(m.cell(0).int64_value(), 1);   // Probe side.
    EXPECT_EQ(m.cell(2).int64_value(), 1);   // Stored side key.
  }
}

TEST(SteMTest, ResidualPredicateFilters) {
  SteM stem("s", KV(), kIndexed);
  stem.Insert(KVTuple(1, 10, 1));
  stem.Insert(KVTuple(1, 30, 2));
  // Concat schema: probe(k,v) ++ stored(k,v); filter stored.v > 20.
  SchemaPtr concat = Schema::Concat(*KV()->WithQualifier("p"),
                                    *KV()->WithQualifier("s"));
  auto residual = Expr::Binary(BinaryOp::kGt, Expr::Column("s.v"),
                               Expr::Literal(Value::Int64(20)))
                      ->Bind(*concat);
  ASSERT_TRUE(residual.ok());
  const Tuple probe = KVTuple(1, 0, 9);
  TupleVector matches;
  for (const Tuple& stored : Collect(stem, &probe.cell(0))) {
    Tuple joined = Tuple::Concat(probe, stored);
    if ((*residual)->Eval(joined).bool_value()) {
      matches.push_back(std::move(joined));
    }
  }
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].cell(3).int64_value(), 30);
}

TEST(SteMTest, UnindexedProbeScans) {
  SteM stem("s", KV(), /*key_field=*/-1);
  stem.Insert(KVTuple(1, 10, 1));
  stem.Insert(KVTuple(2, 20, 2));
  const Value key = Value::Int64(9);
  EXPECT_EQ(Collect(stem, &key).size(), 2u);  // Everything matches.
  EXPECT_EQ(stem.stats().scanned, 2u);
}

TEST(SteMTest, ProbeWindowRestrictsByTimestamp) {
  SteM stem("s", KV(), kIndexed);
  for (int64_t ts = 1; ts <= 10; ++ts) stem.Insert(KVTuple(1, ts, ts));
  const Value key = Value::Int64(1);
  TupleVector matches = Collect(stem, &key, 3, 7);
  EXPECT_EQ(matches.size(), 5u);
  for (const Tuple& m : matches) {
    EXPECT_GE(m.cell(1).int64_value(), 3);
    EXPECT_LE(m.cell(1).int64_value(), 7);
  }
}

TEST(SteMTest, EvictBeforeRemovesOldState) {
  SteM stem("s", KV(), kIndexed);
  for (int64_t ts = 1; ts <= 10; ++ts) stem.Insert(KVTuple(1, ts, ts));
  EXPECT_EQ(stem.EvictBefore(6), 5u);
  EXPECT_EQ(stem.size(), 5u);
  const Value key = Value::Int64(1);
  TupleVector matches = Collect(stem, &key);
  EXPECT_EQ(matches.size(), 5u);
  for (const Tuple& m : matches) EXPECT_GE(m.cell(1).int64_value(), 6);
}

TEST(SteMTest, ScanVisitsLiveInArrivalOrder) {
  SteM stem("s", KV(), kIndexed);
  for (int64_t i = 1; i <= 4; ++i) stem.Insert(KVTuple(i, i, i));
  stem.EvictBefore(2);  // Kill tuple ts=1.
  std::vector<int64_t> seen;
  for (const Tuple& t : Collect(stem, nullptr)) {
    seen.push_back(t.cell(0).int64_value());
  }
  EXPECT_EQ(seen, (std::vector<int64_t>{2, 3, 4}));
}

TEST(SteMTest, ProbeCollectWithNullKeyScans) {
  SteM stem("s", KV(), kIndexed);
  stem.Insert(KVTuple(1, 1, 1));
  stem.Insert(KVTuple(2, 2, 2));
  EXPECT_EQ(Collect(stem, nullptr).size(), 2u);
}

Tuple Retraction(int64_t k, int64_t v, Timestamp ts) {
  Tuple t = KVTuple(k, v, ts);
  t.set_retraction(true);
  return t;
}

TEST(SteMTest, RetractionCancelsStoredAssertion) {
  SteM stem("s", KV(), kIndexed);
  stem.Insert(KVTuple(1, 10, 1), Queries({0}));
  stem.Insert(KVTuple(1, 11, 2), Queries({0}));
  stem.Insert(Retraction(1, 10, 1));
  stem.Insert(Retraction(1, 99, 3));  // Unmatched: dropped.
  const Value key = Value::Int64(1);
  TupleVector left = Collect(stem, &key);
  ASSERT_EQ(left.size(), 1u);
  EXPECT_EQ(left[0].cell(1).int64_value(), 11);
  EXPECT_FALSE(left[0].retraction());
}

// Property: symmetric-hash join via two SteMs == reference nested loops.
class SteMJoinPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SteMJoinPropertyTest, SymmetricHashJoinMatchesNestedLoops) {
  Rng rng(GetParam());
  const int n = 200;
  const int64_t key_space = 20;

  SteM stem_s("S", KV(), kIndexed);
  SteM stem_t("T", KV(), kIndexed);
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
      joined += Collect(stem_t, &t.cell(0)).size();
    } else {
      stem_t.Insert(t);
      t_tuples.push_back(t);
      joined += Collect(stem_s, &t.cell(0)).size();
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
