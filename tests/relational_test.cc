#include "modules/relational.h"

#include <gtest/gtest.h>

#include "fjords/scheduler.h"
#include "kv.h"
#include "modules/juggle.h"

namespace tcq {
namespace {

Tuple Row(int64_t k, int64_t v, Timestamp ts = 0) {
  return Tuple::Make({Value::Int64(k), Value::Int64(v)}, ts);
}

TupleQueuePtr Q(size_t cap = 4096) {
  return std::make_shared<TupleQueue>(PushQueueOptions(cap));
}

/// Feeds rows then closes.
void Feed(const TupleQueuePtr& q, const TupleVector& rows) {
  for (const Tuple& t : rows) ASSERT_TRUE(q->Enqueue(t));
  q->Close();
}

TupleVector DrainAll(const TupleQueuePtr& q) {
  TupleVector out;
  while (auto t = q->Dequeue()) out.push_back(std::move(*t));
  return out;
}

void RunModule(FjordModule* m) {
  while (m->Step(64) != FjordModule::StepResult::kDone) {
  }
}

TEST(RelationalTest, FilterModulePasses) {
  auto in = Q(), out = Q();
  auto pred = Expr::Binary(BinaryOp::kGt, Expr::Column("v"),
                           Expr::Literal(Value::Int64(5)))
                  ->Bind(*KV());
  ASSERT_TRUE(pred.ok());
  FilterModule filter("f", in, out, *pred);
  Feed(in, {Row(1, 3), Row(2, 7), Row(3, 9), Row(4, 1)});
  RunModule(&filter);
  TupleVector result = DrainAll(out);
  ASSERT_EQ(result.size(), 2u);
  EXPECT_EQ(filter.in_count(), 4u);
  EXPECT_EQ(filter.out_count(), 2u);
  EXPECT_TRUE(out->closed());
}

TEST(RelationalTest, ProjectModuleReorders) {
  auto in = Q(), out = Q();
  ProjectModule proj("p", in, out, {1, 0});
  Feed(in, {Row(1, 10)});
  RunModule(&proj);
  TupleVector result = DrainAll(out);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].cell(0).int64_value(), 10);
  EXPECT_EQ(result[0].cell(1).int64_value(), 1);
}

TEST(RelationalTest, UnionMergesAllInputs) {
  auto in1 = Q(), in2 = Q(), in3 = Q(), out = Q();
  UnionModule u("u", {in1, in2, in3}, out);
  Feed(in1, {Row(1, 1), Row(2, 2)});
  Feed(in2, {Row(3, 3)});
  Feed(in3, {});
  RunModule(&u);
  EXPECT_EQ(DrainAll(out).size(), 3u);
  EXPECT_EQ(u.forwarded(), 3u);
}

TEST(RelationalTest, UnionSurvivesStalledInput) {
  // One input never closes but the union must still forward the other's
  // tuples (non-blocking discipline).
  auto live = Q(), stalled = Q(), out = Q();
  UnionModule u("u", {stalled, live}, out);
  ASSERT_TRUE(live->Enqueue(Row(1, 1)));
  EXPECT_EQ(u.Step(64), FjordModule::StepResult::kDidWork);
  EXPECT_EQ(out->Size(), 1u);
  // Stalled and empty: idle, not done, not blocked.
  EXPECT_EQ(u.Step(64), FjordModule::StepResult::kIdle);
  live->Close();
  stalled->Close();
  EXPECT_EQ(u.Step(64), FjordModule::StepResult::kDone);
}

TEST(RelationalTest, DupElim) {
  auto in = Q(), out = Q();
  DupElimModule d("d", in, out);
  Feed(in, {Row(1, 1, 10), Row(1, 1, 20), Row(2, 2, 30), Row(1, 1, 40)});
  RunModule(&d);
  // Duplicates by cell values (timestamps differ but don't count).
  EXPECT_EQ(DrainAll(out).size(), 2u);
  EXPECT_EQ(d.distinct_count(), 2u);
}

TEST(RelationalTest, PipelineUnderScheduler) {
  auto q1 = Q(), q2 = Q(16), q3 = Q();
  auto pred = Expr::Binary(BinaryOp::kEq,
                           Expr::Binary(BinaryOp::kMod, Expr::Column("k"),
                                        Expr::Literal(Value::Int64(2))),
                           Expr::Literal(Value::Int64(0)))
                  ->Bind(*KV());
  ASSERT_TRUE(pred.ok());

  for (int64_t i = 0; i < 500; ++i) ASSERT_TRUE(q1->Enqueue(Row(i, i)));
  q1->Close();

  ExecutionObject eo("pipe");
  eo.AddModule(std::make_shared<FilterModule>("f", q1, q2, *pred));
  eo.AddModule(std::make_shared<ProjectModule>("p", q2, q3,
                                               std::vector<size_t>{0}));
  eo.RunToCompletion();
  EXPECT_EQ(DrainAll(q3).size(), 250u);
}

TEST(JuggleTest, ReordersByPriority) {
  auto in = Q(), out = Q();
  JuggleModule j("j", in, out,
                 [](const Tuple& t) {
                   return static_cast<double>(t.cell(1).int64_value());
                 },
                 /*buffer_capacity=*/100);
  Feed(in, {Row(1, 5), Row(2, 50), Row(3, 1), Row(4, 99)});
  RunModule(&j);
  TupleVector result = DrainAll(out);
  ASSERT_EQ(result.size(), 4u);
  // All buffered before input closed: emitted best-first.
  EXPECT_EQ(result[0].cell(1).int64_value(), 99);
  EXPECT_EQ(result[1].cell(1).int64_value(), 50);
  EXPECT_EQ(result[2].cell(1).int64_value(), 5);
  EXPECT_EQ(result[3].cell(1).int64_value(), 1);
}

TEST(JuggleTest, BoundedBufferNeverDrops) {
  auto in = Q(), out = Q();
  JuggleModule j("j", in, out,
                 [](const Tuple& t) {
                   return static_cast<double>(t.cell(1).int64_value());
                 },
                 /*buffer_capacity=*/4);
  TupleVector rows;
  for (int64_t i = 0; i < 100; ++i) rows.push_back(Row(i, i * 7919 % 101));
  Feed(in, rows);
  RunModule(&j);
  EXPECT_EQ(DrainAll(out).size(), 100u);  // Best-effort ordering, lossless.
}

}  // namespace
}  // namespace tcq
