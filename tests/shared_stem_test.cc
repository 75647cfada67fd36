// SteM as CACQ shares it across queries: every stored tuple carries the
// lineage (query set) of the tuple that inserted it. Single-query SteM
// behaviour is in stem_test.cc.
#include "stem/stem.h"

#include <gtest/gtest.h>

#include <map>

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

TEST(SharedSteMTest, StoresLineageWithTuples) {
  SteM stem("s", KV(), kIndexed);
  stem.Insert(KVTuple(1, 10, 1), Queries({0, 2}));
  stem.Insert(KVTuple(1, 11, 2), Queries({1}));

  // Probe order over equal keys is unspecified: match lineage by value.
  std::map<int64_t, SmallBitset> lineages;
  Value key = Value::Int64(1);
  stem.ProbeCollect(&key, kMinTimestamp, kMaxTimestamp,
                    [&](const Tuple& t, const SmallBitset& q) {
                      lineages.emplace(t.cell(1).int64_value(), q);
                    });
  ASSERT_EQ(lineages.size(), 2u);
  EXPECT_TRUE(lineages.at(10).Test(0));
  EXPECT_TRUE(lineages.at(10).Test(2));
  EXPECT_FALSE(lineages.at(10).Test(1));
  EXPECT_TRUE(lineages.at(11).Test(1));
}

TEST(SharedSteMTest, KeyedProbeFiltersByKey) {
  SteM stem("s", KV(), kIndexed);
  stem.Insert(KVTuple(1, 10, 1), Queries({0}));
  stem.Insert(KVTuple(2, 20, 2), Queries({0}));
  const Value key = Value::Int64(2);
  TupleVector hits = Collect(stem, &key);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].cell(1).int64_value(), 20);
}

TEST(SharedSteMTest, ScrubQueryClearsBitEverywhere) {
  SteM stem("s", KV(), kIndexed);
  stem.Insert(KVTuple(1, 10, 1), Queries({0, 1}));
  stem.Insert(KVTuple(2, 20, 2), Queries({1, 2}));
  stem.ScrubQuery(1);
  size_t seen = 0;
  stem.ProbeCollect(nullptr, kMinTimestamp, kMaxTimestamp,
                    [&](const Tuple&, const SmallBitset& q) {
                      EXPECT_FALSE(q.Test(1));
                      ++seen;
                    });
  EXPECT_EQ(seen, 2u);
}

TEST(SharedSteMTest, StatsCountProbesAndScans) {
  SteM stem("s", KV(), kIndexed);
  stem.Insert(KVTuple(1, 1, 1), Queries({0}));
  Value key = Value::Int64(1);
  stem.ProbeCollect(&key, kMinTimestamp, kMaxTimestamp,
                    [](const Tuple&, const SmallBitset&) {});
  stem.ProbeCollect(nullptr, kMinTimestamp, kMaxTimestamp,
                    [](const Tuple&, const SmallBitset&) {});
  EXPECT_EQ(stem.stats().probes, 2u);
  EXPECT_EQ(stem.stats().scanned, 2u);
}

TEST(SharedSteMTest, ExtractCopyAndClearKeepLineage) {
  SteM from("a", KV(), kIndexed);
  from.Insert(KVTuple(1, 10, 1), Queries({0}));
  from.Insert(KVTuple(2, 20, 2), Queries({1}));
  from.Insert(KVTuple(1, 11, 3), Queries({2}));
  const std::vector<SteM::ExtractedEntry> copied = from.CopyAll();
  ASSERT_EQ(copied.size(), 3u);
  EXPECT_EQ(from.size(), 3u);  // Copying leaves the state in place.

  auto moved = from.ExtractIf(
      [](const Value& k) { return k.int64_value() == 1; });
  ASSERT_EQ(moved.size(), 2u);  // Arrival order, lineage intact.
  EXPECT_EQ(moved[0].tuple.cell(1).int64_value(), 10);
  EXPECT_TRUE(moved[0].lineage.Test(0));
  EXPECT_EQ(moved[1].tuple.cell(1).int64_value(), 11);
  EXPECT_TRUE(moved[1].lineage.Test(2));
  EXPECT_EQ(from.size(), 1u);
  const Value one = Value::Int64(1);
  EXPECT_TRUE(Collect(from, &one).empty());

  SteM to("b", KV(), kIndexed);
  for (const auto& e : moved) to.Install(e);
  EXPECT_EQ(Collect(to, &one).size(), 2u);
  to.ClearAll();
  EXPECT_EQ(to.size(), 0u);
  EXPECT_TRUE(Collect(to, &one).empty());
  EXPECT_EQ(to.stats().evictions, 0u);  // Deletes, not window expiry.
}

TEST(SharedSteMTest, WindowRestrictsProbe) {
  SteM stem("s", KV(), kIndexed);
  for (Timestamp ts = 1; ts <= 10; ++ts) {
    stem.Insert(KVTuple(1, ts, ts), Queries({0}));
  }
  const Value key = Value::Int64(1);
  EXPECT_EQ(Collect(stem, &key, 4, 6).size(), 3u);
}

TEST(SharedSteMTest, EvictBeforeKeepsLineageOfSurvivors) {
  SteM stem("s", KV(), kIndexed);
  for (Timestamp ts = 1; ts <= 10; ++ts) {
    stem.Insert(KVTuple(1, ts, ts), Queries({static_cast<size_t>(ts % 2)}));
  }
  EXPECT_EQ(stem.EvictBefore(6), 5u);
  EXPECT_EQ(stem.size(), 5u);
  int hits = 0;
  const Value key = Value::Int64(1);
  stem.ProbeCollect(&key, kMinTimestamp, kMaxTimestamp,
                    [&](const Tuple& t, const SmallBitset& q) {
                      EXPECT_GE(t.timestamp(), 6);
                      EXPECT_TRUE(q.Test(static_cast<size_t>(t.timestamp() % 2)));
                      ++hits;
                    });
  EXPECT_EQ(hits, 5);
}

}  // namespace
}  // namespace tcq
