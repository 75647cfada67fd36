#include "fjords/scheduler.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>

#include "fjords/module.h"

namespace tcq {
namespace {

/// Produces `count` tuples [Int64(i)] into its output queue, then closes it.
class ProducerModule : public FjordModule {
 public:
  ProducerModule(std::string name, TupleQueuePtr out, int64_t count)
      : FjordModule(std::move(name)), out_(std::move(out)), count_(count) {}

  StepResult Step(size_t max_tuples) override {
    if (next_ >= count_) {
      out_->Close();
      return StepResult::kDone;
    }
    size_t produced = 0;
    while (next_ < count_ && produced < max_tuples) {
      if (!out_->Enqueue(Tuple::Make({Value::Int64(next_)}, next_))) {
        return produced > 0 ? StepResult::kDidWork : StepResult::kIdle;
      }
      ++next_;
      ++produced;
    }
    return StepResult::kDidWork;
  }

 private:
  TupleQueuePtr out_;
  int64_t count_;
  int64_t next_ = 0;
};

/// Sums cell 0 of everything on its input queue.
class SummerModule : public FjordModule {
 public:
  SummerModule(std::string name, TupleQueuePtr in, std::atomic<int64_t>* sum)
      : FjordModule(std::move(name)), in_(std::move(in)), sum_(sum) {}

  StepResult Step(size_t max_tuples) override {
    size_t consumed = 0;
    while (consumed < max_tuples) {
      auto t = in_->Dequeue();
      if (!t.has_value()) {
        if (consumed > 0) return StepResult::kDidWork;
        return in_->Exhausted() ? StepResult::kDone : StepResult::kIdle;
      }
      sum_->fetch_add(t->cell(0).int64_value());
      ++consumed;
    }
    return StepResult::kDidWork;
  }

 private:
  TupleQueuePtr in_;
  std::atomic<int64_t>* sum_;
};

TEST(SchedulerTest, RunToCompletionPipesProducerToConsumer) {
  auto q = std::make_shared<TupleQueue>(PushQueueOptions(16));
  std::atomic<int64_t> sum{0};
  ExecutionObject eo("test-eo");
  eo.AddModule(std::make_shared<ProducerModule>("prod", q, 100));
  eo.AddModule(std::make_shared<SummerModule>("sum", q, &sum));
  eo.RunToCompletion();
  EXPECT_EQ(sum.load(), 100 * 99 / 2);
}

TEST(SchedulerTest, SmallQueueForcesInterleaving) {
  // Capacity 2 with quantum 64: producer must yield repeatedly; the
  // round-robin scheduler has to interleave for completion.
  auto q = std::make_shared<TupleQueue>(PushQueueOptions(2));
  std::atomic<int64_t> sum{0};
  ExecutionObject eo("test-eo");
  eo.AddModule(std::make_shared<ProducerModule>("prod", q, 1000));
  eo.AddModule(std::make_shared<SummerModule>("sum", q, &sum));
  eo.RunToCompletion();
  EXPECT_EQ(sum.load(), int64_t{1000} * 999 / 2);
}

TEST(SchedulerTest, ThreadedStartJoin) {
  auto q = std::make_shared<TupleQueue>(PushQueueOptions(32));
  std::atomic<int64_t> sum{0};
  ExecutionObject eo("test-eo");
  eo.AddModule(std::make_shared<ProducerModule>("prod", q, 5000));
  eo.AddModule(std::make_shared<SummerModule>("sum", q, &sum));
  eo.Start();
  eo.Join();
  EXPECT_EQ(sum.load(), int64_t{5000} * 4999 / 2);
}

TEST(SchedulerTest, DynamicModuleAdditionWhileRunning) {
  auto q1 = std::make_shared<TupleQueue>(PushQueueOptions(32));
  auto q2 = std::make_shared<TupleQueue>(PushQueueOptions(32));
  std::atomic<int64_t> sum1{0}, sum2{0};
  ExecutionObject eo("test-eo");
  eo.AddModule(std::make_shared<ProducerModule>("prod1", q1, 1000));
  eo.AddModule(std::make_shared<SummerModule>("sum1", q1, &sum1));
  eo.Start();
  // Fold in a second dataflow mid-run (the paper's dynamic query add).
  eo.AddModule(std::make_shared<ProducerModule>("prod2", q2, 500));
  eo.AddModule(std::make_shared<SummerModule>("sum2", q2, &sum2));
  eo.Join();
  EXPECT_EQ(sum1.load(), int64_t{1000} * 999 / 2);
  EXPECT_EQ(sum2.load(), int64_t{500} * 499 / 2);
}

TEST(SchedulerTest, WorkQuantaCounted) {
  auto q = std::make_shared<TupleQueue>(PushQueueOptions(16));
  std::atomic<int64_t> sum{0};
  ExecutionObject eo("test-eo");
  eo.AddModule(std::make_shared<ProducerModule>("prod", q, 10));
  eo.AddModule(std::make_shared<SummerModule>("sum", q, &sum));
  eo.RunToCompletion();
  EXPECT_GT(eo.work_quanta(), 0u);
}

/// Polls `done` every 100 us for up to `limit`; true once it holds.
template <typename Pred>
bool WaitFor(Pred done, std::chrono::milliseconds limit) {
  const auto deadline = std::chrono::steady_clock::now() + limit;
  while (!done()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  return true;
}

TEST(SchedulerTest, EnqueueWakesParkedEoLongBeforeTheFallback) {
  // A 10 s fallback park: an item processed within 1 s of its enqueue was
  // picked up by the queue edge's wake, not by the timer.
  ExecutionObject::Options opts;
  opts.idle_sleep_micros = 10'000'000;
  auto waker = std::make_shared<Waker>();
  QueueOptions qo = PushQueueOptions(16);
  qo.waker = waker;
  auto q = std::make_shared<TupleQueue>(qo);
  std::atomic<int64_t> sum{0};
  ExecutionObject eo("wake-eo", opts, waker);
  eo.AddModule(std::make_shared<SummerModule>("sum", q, &sum));
  eo.Start();
  for (int64_t item = 1; item <= 3; ++item) {
    ASSERT_TRUE(WaitFor([&] { return waker->parked(); },
                        std::chrono::milliseconds(5000)));
    const auto t0 = std::chrono::steady_clock::now();
    const int64_t want = sum.load() + item;
    ASSERT_TRUE(q->Enqueue(Tuple::Make({Value::Int64(item)}, item)));
    ASSERT_TRUE(WaitFor([&] { return sum.load() == want; },
                        std::chrono::milliseconds(5000)));
    EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(1))
        << "item " << item;
  }
  EXPECT_GE(waker->woken_parks(), 3u);
  // Stop wakes the park as well: it returns long before the fallback.
  ASSERT_TRUE(WaitFor([&] { return waker->parked(); },
                      std::chrono::milliseconds(5000)));
  const auto t0 = std::chrono::steady_clock::now();
  eo.Stop();
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(1));
}

TEST(SchedulerTest, AddModuleWakesParkedEo) {
  ExecutionObject::Options opts;
  opts.idle_sleep_micros = 10'000'000;
  ExecutionObject eo("fold-in-eo", opts);
  auto idle_q = std::make_shared<TupleQueue>(PushQueueOptions(4));
  std::atomic<int64_t> idle_sum{0};
  eo.AddModule(std::make_shared<SummerModule>("idle", idle_q, &idle_sum));
  eo.Start();
  ASSERT_TRUE(WaitFor([&] { return eo.waker().parked(); },
                      std::chrono::milliseconds(5000)));
  auto q = std::make_shared<TupleQueue>(PushQueueOptions(16));
  std::atomic<int64_t> sum{0};
  const auto t0 = std::chrono::steady_clock::now();
  eo.AddModule(std::make_shared<ProducerModule>("prod", q, 10));
  eo.AddModule(std::make_shared<SummerModule>("sum", q, &sum));
  ASSERT_TRUE(WaitFor([&] { return sum.load() == 45; },
                      std::chrono::milliseconds(5000)));
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(1));
  eo.Stop();
}

TEST(SchedulerTest, StopIsIdempotent) {
  ExecutionObject eo("test-eo");
  eo.Stop();
  eo.Stop();
  SUCCEED();
}

}  // namespace
}  // namespace tcq
