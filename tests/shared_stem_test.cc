#include "cacq/shared_stem.h"

#include <gtest/gtest.h>

#include <map>

#include "kv.h"

namespace tcq {
namespace {

Tuple Row(int64_t k, int64_t v, Timestamp ts) {
  return Tuple::Make({Value::Int64(k), Value::Int64(v)}, ts);
}

SmallBitset Queries(std::initializer_list<size_t> ids, size_t n = 8) {
  SmallBitset b(n);
  for (size_t i : ids) b.Set(i);
  return b;
}

TEST(SharedSteMTest, StoresLineageWithTuples) {
  SharedSteM stem("s", KV(), /*key_field=*/0);
  stem.Insert(Row(1, 10, 1), Queries({0, 2}));
  stem.Insert(Row(1, 11, 2), Queries({1}));

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
  SharedSteM stem("s", KV(), 0);
  stem.Insert(Row(1, 10, 1), Queries({0}));
  stem.Insert(Row(2, 20, 2), Queries({0}));
  int hits = 0;
  Value key = Value::Int64(2);
  stem.ProbeCollect(&key, kMinTimestamp, kMaxTimestamp,
                    [&](const Tuple& t, const SmallBitset&) {
                      EXPECT_EQ(t.cell(1).int64_value(), 20);
                      ++hits;
                    });
  EXPECT_EQ(hits, 1);
}

TEST(SharedSteMTest, NullKeyScansEverything) {
  SharedSteM stem("s", KV(), 0);
  stem.Insert(Row(1, 10, 1), Queries({0}));
  stem.Insert(Row(2, 20, 2), Queries({0}));
  int hits = 0;
  stem.ProbeCollect(nullptr, kMinTimestamp, kMaxTimestamp,
                    [&](const Tuple&, const SmallBitset&) { ++hits; });
  EXPECT_EQ(hits, 2);
}

TEST(SharedSteMTest, WindowRestrictsProbe) {
  SharedSteM stem("s", KV(), 0);
  for (Timestamp ts = 1; ts <= 10; ++ts) {
    stem.Insert(Row(1, ts, ts), Queries({0}));
  }
  int hits = 0;
  Value key = Value::Int64(1);
  stem.ProbeCollect(&key, 4, 6,
                    [&](const Tuple&, const SmallBitset&) { ++hits; });
  EXPECT_EQ(hits, 3);
}

TEST(SharedSteMTest, EvictBefore) {
  SharedSteM stem("s", KV(), 0);
  for (Timestamp ts = 1; ts <= 10; ++ts) {
    stem.Insert(Row(1, ts, ts), Queries({0}));
  }
  EXPECT_EQ(stem.EvictBefore(6), 5u);
  EXPECT_EQ(stem.size(), 5u);
  int hits = 0;
  Value key = Value::Int64(1);
  stem.ProbeCollect(&key, kMinTimestamp, kMaxTimestamp,
                    [&](const Tuple& t, const SmallBitset&) {
                      EXPECT_GE(t.timestamp(), 6);
                      ++hits;
                    });
  EXPECT_EQ(hits, 5);
}

TEST(SharedSteMTest, ScrubQueryClearsBitEverywhere) {
  SharedSteM stem("s", KV(), 0);
  stem.Insert(Row(1, 10, 1), Queries({0, 1}));
  stem.Insert(Row(2, 20, 2), Queries({1, 2}));
  stem.ScrubQuery(1);
  stem.ProbeCollect(nullptr, kMinTimestamp, kMaxTimestamp,
                    [&](const Tuple&, const SmallBitset& q) {
                      EXPECT_FALSE(q.Test(1));
                    });
}

TEST(SharedSteMTest, StatsCountProbesAndScans) {
  SharedSteM stem("s", KV(), 0);
  stem.Insert(Row(1, 1, 1), Queries({0}));
  Value key = Value::Int64(1);
  stem.ProbeCollect(&key, kMinTimestamp, kMaxTimestamp,
                    [](const Tuple&, const SmallBitset&) {});
  stem.ProbeCollect(nullptr, kMinTimestamp, kMaxTimestamp,
                    [](const Tuple&, const SmallBitset&) {});
  EXPECT_EQ(stem.probes(), 2u);
  EXPECT_EQ(stem.scanned(), 2u);
}

}  // namespace
}  // namespace tcq
