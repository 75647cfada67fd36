#include "modules/sort_tc.h"

#include <gtest/gtest.h>

#include <set>

#include "common/rng.h"
#include "kv.h"

namespace tcq {
namespace {

Tuple Row(int64_t k, int64_t v, Timestamp ts) {
  return Tuple::Make({Value::Int64(k), Value::Int64(v)}, ts);
}

TupleQueuePtr Q(size_t cap = 65536) {
  return std::make_shared<TupleQueue>(PushQueueOptions(cap));
}

void RunModule(FjordModule* m) {
  while (m->Step(64) != FjordModule::StepResult::kDone) {
  }
}

TupleVector DrainAll(const TupleQueuePtr& q) {
  TupleVector out;
  while (auto t = q->Dequeue()) out.push_back(std::move(*t));
  return out;
}

ExprPtr KeyExpr() { return *Expr::Column("k")->Bind(*KV()); }

TEST(SortModuleTest, FullSortAtEndOfStream) {
  auto in = Q(), out = Q();
  SortModule sort("sort", in, out, KeyExpr(), kMaxTimestamp);
  for (int64_t k : {5, 1, 4, 2, 3}) ASSERT_TRUE(in->Enqueue(Row(k, k, 1)));
  in->Close();
  RunModule(&sort);
  TupleVector result = DrainAll(out);
  ASSERT_EQ(result.size(), 5u);
  for (int64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(result[static_cast<size_t>(i)].cell(0).int64_value(), i + 1);
  }
}

TEST(SortModuleTest, PerWindowSortPreservesWindowOrder) {
  auto in = Q(), out = Q();
  SortModule sort("sort", in, out, KeyExpr(), /*window_span=*/10);
  // Window [1,10]: keys 9, 3, 7. Window [11,20]: keys 2, 8.
  ASSERT_TRUE(in->Enqueue(Row(9, 0, 1)));
  ASSERT_TRUE(in->Enqueue(Row(3, 0, 5)));
  ASSERT_TRUE(in->Enqueue(Row(7, 0, 9)));
  ASSERT_TRUE(in->Enqueue(Row(2, 0, 11)));
  ASSERT_TRUE(in->Enqueue(Row(8, 0, 15)));
  in->Close();
  RunModule(&sort);
  TupleVector result = DrainAll(out);
  ASSERT_EQ(result.size(), 5u);
  // Sorted within windows; windows in time order.
  EXPECT_EQ(result[0].cell(0).int64_value(), 3);
  EXPECT_EQ(result[1].cell(0).int64_value(), 7);
  EXPECT_EQ(result[2].cell(0).int64_value(), 9);
  EXPECT_EQ(result[3].cell(0).int64_value(), 2);
  EXPECT_EQ(result[4].cell(0).int64_value(), 8);
}

TEST(SortModuleTest, StableForEqualKeys) {
  auto in = Q(), out = Q();
  SortModule sort("sort", in, out, KeyExpr(), kMaxTimestamp);
  ASSERT_TRUE(in->Enqueue(Row(1, 100, 1)));
  ASSERT_TRUE(in->Enqueue(Row(1, 200, 2)));
  ASSERT_TRUE(in->Enqueue(Row(0, 300, 3)));
  in->Close();
  RunModule(&sort);
  TupleVector result = DrainAll(out);
  ASSERT_EQ(result.size(), 3u);
  EXPECT_EQ(result[0].cell(1).int64_value(), 300);
  EXPECT_EQ(result[1].cell(1).int64_value(), 100);  // Arrival order kept.
  EXPECT_EQ(result[2].cell(1).int64_value(), 200);
}

Tuple Edge(int64_t a, int64_t b, Timestamp ts = 0) {
  return Tuple::Make({Value::Int64(a), Value::Int64(b)}, ts);
}

std::set<std::pair<int64_t, int64_t>> PairsOf(const TupleVector& rows) {
  std::set<std::pair<int64_t, int64_t>> out;
  for (const Tuple& t : rows) {
    out.insert({t.cell(0).int64_value(), t.cell(1).int64_value()});
  }
  return out;
}

TEST(TransitiveClosureTest, ChainDerivesAllPairs) {
  auto in = Q(), out = Q();
  TransitiveClosureModule tc("tc", in, out);
  // 1 -> 2 -> 3 -> 4.
  for (int64_t i = 1; i < 4; ++i) ASSERT_TRUE(in->Enqueue(Edge(i, i + 1)));
  in->Close();
  RunModule(&tc);
  auto pairs = PairsOf(DrainAll(out));
  EXPECT_EQ(pairs.size(), 6u);
  EXPECT_TRUE(pairs.count({1, 4}));
  EXPECT_TRUE(pairs.count({2, 4}));
  EXPECT_TRUE(pairs.count({1, 3}));
  EXPECT_EQ(tc.closure_size(), 6u);
}

TEST(TransitiveClosureTest, IncrementalEdgeJoinsComponents) {
  auto in = Q(), out = Q();
  TransitiveClosureModule tc("tc", in, out);
  // Two components: {1->2} and {3->4}; then bridge 2->3.
  ASSERT_TRUE(in->Enqueue(Edge(1, 2)));
  ASSERT_TRUE(in->Enqueue(Edge(3, 4)));
  while (tc.Step(64) == FjordModule::StepResult::kDidWork) {
  }
  EXPECT_EQ(PairsOf(DrainAll(out)).size(), 2u);
  // The bridge derives 2->3, 2->4, 1->3, 1->4 (4 new pairs).
  ASSERT_TRUE(in->Enqueue(Edge(2, 3)));
  in->Close();
  RunModule(&tc);
  auto fresh = PairsOf(DrainAll(out));
  EXPECT_EQ(fresh.size(), 4u);
  EXPECT_TRUE(fresh.count({1, 4}));
  EXPECT_EQ(tc.closure_size(), 6u);
}

TEST(TransitiveClosureTest, DuplicateEdgesEmitNothingNew) {
  auto in = Q(), out = Q();
  TransitiveClosureModule tc("tc", in, out);
  ASSERT_TRUE(in->Enqueue(Edge(1, 2)));
  ASSERT_TRUE(in->Enqueue(Edge(1, 2)));
  ASSERT_TRUE(in->Enqueue(Edge(1, 2)));
  in->Close();
  RunModule(&tc);
  EXPECT_EQ(DrainAll(out).size(), 1u);
}

TEST(TransitiveClosureTest, CyclesTerminate) {
  auto in = Q(), out = Q();
  TransitiveClosureModule tc("tc", in, out);
  ASSERT_TRUE(in->Enqueue(Edge(1, 2)));
  ASSERT_TRUE(in->Enqueue(Edge(2, 3)));
  ASSERT_TRUE(in->Enqueue(Edge(3, 1)));  // Cycle.
  in->Close();
  RunModule(&tc);
  auto pairs = PairsOf(DrainAll(out));
  // All ordered pairs among {1,2,3} except reflexive: 6.
  EXPECT_EQ(pairs.size(), 6u);
}

// Property: closure equals Floyd-Warshall reachability on random graphs.
class TcPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TcPropertyTest, MatchesFloydWarshall) {
  Rng rng(GetParam());
  const int n = 12;
  bool adj[n][n] = {};
  auto in = Q(), out = Q();
  TransitiveClosureModule tc("tc", in, out);
  for (int e = 0; e < 20; ++e) {
    const int a = static_cast<int>(rng.NextBounded(n));
    const int b = static_cast<int>(rng.NextBounded(n));
    if (a == b) continue;
    adj[a][b] = true;
    ASSERT_TRUE(in->Enqueue(Edge(a, b)));
  }
  in->Close();
  RunModule(&tc);
  // Floyd-Warshall reachability oracle.
  for (int k = 0; k < n; ++k) {
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        adj[i][j] = adj[i][j] || (adj[i][k] && adj[k][j]);
      }
    }
  }
  auto pairs = PairsOf(DrainAll(out));
  size_t expected = 0;
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      if (i != j && adj[i][j]) {
        ++expected;
        ASSERT_TRUE(pairs.count({i, j})) << i << "->" << j;
      }
    }
  }
  ASSERT_EQ(pairs.size(), expected);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TcPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace tcq
