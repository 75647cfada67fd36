#include "testing/fault_injector.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "testing/schedule_explorer.h"

namespace tcq {
namespace {

using QueueFaultProfile = FaultInjector::QueueFaultProfile;
using StreamFaultProfile = FaultInjector::StreamFaultProfile;

QueueFaultProfile NoFaults() { return QueueFaultProfile{}; }

TEST(FaultInjectorTest, SameSeedSameQueueDecisionTrace) {
  // Acceptance: given the same seed, the injector reproduces an identical
  // fault schedule.
  const QueueFaultProfile profile{0.2, 0.2, 0.2, 4};
  FaultInjector a(42), b(42), c(43);
  auto ha = a.MakeQueueHooks(profile, profile);
  auto hb = b.MakeQueueHooks(profile, profile);
  auto hc = c.MakeQueueHooks(profile, profile);
  for (int i = 0; i < 500; ++i) {
    ha->on_enqueue();
    hb->on_enqueue();
    hc->on_enqueue();
    ha->on_dequeue();
    hb->on_dequeue();
    hc->on_dequeue();
  }
  EXPECT_EQ(a.Trace(), b.Trace());
  EXPECT_NE(a.Trace(), c.Trace());  // Different seed, different schedule.
  EXPECT_GT(a.TraceSize(), 0u);
}

TupleVector MakeStream(int n) {
  TupleVector v;
  for (int i = 1; i <= n; ++i) {
    v.push_back(Tuple::Make({Value::Int64(i), Value::Int64(i * 10)}, i));
  }
  return v;
}

TEST(FaultInjectorTest, PerturbDeterministicAndFaultsObservable) {
  const StreamFaultProfile profile{0.1, 0.1, 0.1, 3};
  FaultInjector a(99), b(99);
  const TupleVector in = MakeStream(400);
  const TupleVector pa = a.Perturb(in, profile, 0);
  const TupleVector pb = b.Perturb(in, profile, 0);
  ASSERT_EQ(pa.size(), pb.size());
  for (size_t i = 0; i < pa.size(); ++i) {
    EXPECT_EQ(pa[i].timestamp(), pb[i].timestamp());
    EXPECT_EQ(pa[i].cell(0), pb[i].cell(0));
  }
  EXPECT_EQ(a.Trace(), b.Trace());

  // Each fault class actually fired on a 400-tuple stream at p=0.1.
  size_t dups = 0, lates = 0, swaps = 0;
  for (const std::string& e : a.Trace()) {
    if (e.rfind("stream:dup", 0) == 0) ++dups;
    if (e.rfind("stream:late", 0) == 0) ++lates;
    if (e.rfind("stream:swap", 0) == 0) ++swaps;
  }
  EXPECT_GT(dups, 0u);
  EXPECT_GT(lates, 0u);
  EXPECT_GT(swaps, 0u);
  EXPECT_GT(pa.size(), in.size());  // Duplicates net-grow the stream.

  // Late tuples rewrote the declared timestamp column consistently.
  for (const Tuple& t : pa) {
    EXPECT_EQ(t.cell(0).int64_value(), t.timestamp());
  }
}

// -- Queue fault semantics through a real FjordQueue ----------------------

TEST(FaultInjectorTest, QueueDropFaultCountsAndLosesElement) {
  FaultInjector fi(5);
  QueueFaultProfile drop_all;
  drop_all.drop = 1.0;
  QueueOptions opts = PushQueueOptions(16);
  opts.faults = fi.MakeQueueHooks(drop_all, NoFaults());
  FjordQueue<int> q(opts);
  EXPECT_TRUE(q.Enqueue(1));  // Caller sees success...
  EXPECT_TRUE(q.Enqueue(2));
  EXPECT_EQ(q.Size(), 0u);  // ...but nothing arrived.
  EXPECT_EQ(q.FaultDrops(), 2u);
  EXPECT_FALSE(q.Dequeue().has_value());
}

TEST(FaultInjectorTest, QueueDequeueDropSkipsToNext) {
  FaultInjector fi(5);
  QueueFaultProfile drop_all;
  drop_all.drop = 1.0;
  QueueOptions opts = PushQueueOptions(16);
  opts.faults = fi.MakeQueueHooks(NoFaults(), drop_all);
  FjordQueue<int> q(opts);
  EXPECT_TRUE(q.Enqueue(1));
  EXPECT_TRUE(q.Enqueue(2));
  // Every present element gets dropped; the consumer sees emptiness.
  EXPECT_FALSE(q.Dequeue().has_value());
  EXPECT_EQ(q.FaultDrops(), 2u);
}

TEST(FaultInjectorTest, QueueDelayHoldsThenReleasesNoLoss) {
  FaultInjector fi(11);
  QueueFaultProfile delay_all;
  delay_all.delay = 1.0;
  delay_all.max_delay = 1;  // Release after exactly one later enqueue.
  QueueOptions opts = PushQueueOptions(16);
  auto hooks = fi.MakeQueueHooks(delay_all, NoFaults());
  // Delay only the first element: swap profiles after one use by making a
  // fresh queue per phase instead — simpler: all enqueues delayed, each
  // enqueue releases the previously delayed one.
  opts.faults = hooks;
  FjordQueue<int> q(opts);
  EXPECT_TRUE(q.Enqueue(1));
  EXPECT_EQ(q.Size(), 0u);  // Held back.
  EXPECT_EQ(q.DelayedCount(), 1u);
  EXPECT_TRUE(q.Enqueue(2));  // 2 delayed; 1's countdown expires -> visible.
  EXPECT_EQ(q.Size(), 1u);
  EXPECT_EQ(*q.Dequeue(), 1);
  q.Close();  // Close releases everything still held: delay is not loss.
  EXPECT_EQ(q.DelayedCount(), 0u);
  EXPECT_EQ(*q.Dequeue(), 2);
  EXPECT_TRUE(q.Exhausted());
}

TEST(FaultInjectorTest, QueueReorderPreservesMultiset) {
  FaultInjector fi(23);
  QueueFaultProfile reorder_all;
  reorder_all.reorder = 1.0;
  QueueOptions opts = PushQueueOptions(64);
  opts.faults = fi.MakeQueueHooks(reorder_all, reorder_all);
  FjordQueue<int> q(opts);
  std::multiset<int> sent, got;
  for (int i = 0; i < 32; ++i) {
    EXPECT_TRUE(q.Enqueue(i));
    sent.insert(i);
  }
  q.Close();
  while (auto v = q.Dequeue()) got.insert(*v);
  EXPECT_EQ(sent, got);  // Reordering never loses or duplicates.
  EXPECT_EQ(q.FaultDrops(), 0u);
}

// -- ScheduleExplorer determinism ----------------------------------------

TEST(ScheduleExplorerTest, SameSeedExploresIdenticalSchedules) {
  ScheduleExplorer a(17), b(17);
  auto noop = [](const ScheduleExplorer::Schedule&) {
    return std::string("x");
  };
  ASSERT_TRUE(a.Explore(5, noop).ok());
  ASSERT_TRUE(b.Explore(5, noop).ok());
  ASSERT_EQ(a.schedules().size(), b.schedules().size());
  for (size_t i = 0; i < a.schedules().size(); ++i) {
    EXPECT_EQ(ScheduleExplorer::Describe(a.schedules()[i]),
              ScheduleExplorer::Describe(b.schedules()[i]));
  }
}

TEST(ScheduleExplorerTest, FirstTrialIsIdentityOrder) {
  ScheduleExplorer e(3);
  auto noop = [](const ScheduleExplorer::Schedule&) {
    return std::string("x");
  };
  ASSERT_TRUE(e.Explore(4, noop).ok());
  const auto& first = e.schedules()[0].order;
  EXPECT_EQ(first, (std::vector<size_t>{0, 1, 2, 3}));
}

TEST(ScheduleExplorerTest, DetectsScheduleDependentResults) {
  ScheduleExplorer e(17);
  // A "dataflow" whose answer depends on module order: broken by design.
  auto order_sensitive = [](const ScheduleExplorer::Schedule& s) {
    return std::to_string(s.order[0]);
  };
  const auto result = e.Explore(6, order_sensitive);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("schedule-dependent"),
            std::string::npos);
  EXPECT_NE(result.status().message().find("order="), std::string::npos);
}

TEST(ScheduleExplorerTest, InvariantDataflowPasses) {
  ScheduleExplorer e(17);
  auto invariant = [](const ScheduleExplorer::Schedule& s) {
    // Sum over the permutation: identical for every order.
    size_t sum = 0;
    for (size_t i : s.order) sum += i;
    return std::to_string(sum);
  };
  const auto result = e.Explore(6, invariant);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, "15");
}

}  // namespace
}  // namespace tcq
