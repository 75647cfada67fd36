#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "eddy/eddy.h"
#include "eddy/operators.h"
#include "fjords/module.h"
#include "fjords/scheduler.h"
#include "testing/schedule_explorer.h"
#include "testing/stress_runner.h"

namespace tcq {
namespace {

// -- Shared toy modules ---------------------------------------------------

/// Produces [lo, hi) as Int64 tuples, then closes its output.
class ProducerModule : public FjordModule {
 public:
  ProducerModule(std::string name, TupleQueuePtr out, int64_t lo, int64_t hi)
      : FjordModule(std::move(name)), out_(std::move(out)), next_(lo),
        hi_(hi) {}

  StepResult Step(size_t max_tuples) override {
    if (next_ >= hi_) {
      out_->Close();
      return StepResult::kDone;
    }
    size_t produced = 0;
    while (next_ < hi_ && produced < max_tuples) {
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
  int64_t next_;
  int64_t hi_;
};

/// Passes tuples whose cell 0 is even; closes downstream on exhaustion.
class EvenFilterModule : public FjordModule {
 public:
  EvenFilterModule(std::string name, TupleQueuePtr in, TupleQueuePtr out)
      : FjordModule(std::move(name)), in_(std::move(in)),
        out_(std::move(out)) {}

  StepResult Step(size_t max_tuples) override {
    size_t moved = 0;
    while (moved < max_tuples) {
      // Flush the tuple a full downstream queue made us hold back; never
      // spin inside a quantum (the consumer needs this thread to run).
      if (pending_.has_value()) {
        if (!out_->Enqueue(*pending_)) {
          return moved > 0 ? StepResult::kDidWork : StepResult::kIdle;
        }
        pending_.reset();
        ++moved;
        continue;
      }
      auto t = in_->Dequeue();
      if (!t.has_value()) {
        if (in_->Exhausted()) {
          out_->Close();
          return StepResult::kDone;
        }
        return moved > 0 ? StepResult::kDidWork : StepResult::kIdle;
      }
      ++moved;
      if (t->cell(0).int64_value() % 2 == 0 && !out_->Enqueue(*t)) {
        pending_ = *t;
      }
    }
    return StepResult::kDidWork;
  }

 private:
  TupleQueuePtr in_;
  TupleQueuePtr out_;
  std::optional<Tuple> pending_;
};

/// Sums cell 0 into an external accumulator.
class SummerModule : public FjordModule {
 public:
  SummerModule(std::string name, TupleQueuePtr in, std::atomic<int64_t>* sum,
               std::atomic<int64_t>* count)
      : FjordModule(std::move(name)), in_(std::move(in)), sum_(sum),
        count_(count) {}

  StepResult Step(size_t max_tuples) override {
    size_t consumed = 0;
    while (consumed < max_tuples) {
      auto t = in_->Dequeue();
      if (!t.has_value()) {
        if (consumed > 0) return StepResult::kDidWork;
        return in_->Exhausted() ? StepResult::kDone : StepResult::kIdle;
      }
      sum_->fetch_add(t->cell(0).int64_value());
      count_->fetch_add(1);
      ++consumed;
    }
    return StepResult::kDidWork;
  }

 private:
  TupleQueuePtr in_;
  std::atomic<int64_t>* sum_;
  std::atomic<int64_t>* count_;
};

/// Delegates to `inner` but lingers 50 us before reporting kIdle: a slow
/// idle check widens the window between "this round found no work" and
/// the park, which is exactly where a wake read too late would be lost.
class LingeringModule : public FjordModule {
 public:
  explicit LingeringModule(FjordModulePtr inner)
      : FjordModule(inner->name() + "-lingering"), inner_(std::move(inner)) {}

  StepResult Step(size_t max_tuples) override {
    const StepResult r = inner_->Step(max_tuples);
    if (r == StepResult::kIdle) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    return r;
  }

 private:
  FjordModulePtr inner_;
};

// -- Result invariance across schedules (§4.2.2) --------------------------

TEST(StressSchedulerTest, PipelineResultInvariantAcrossSchedules) {
  // producer -> evenfilter -> summer, rebuilt per trial with the module
  // registration order permuted and the quantum varied. The answer (sum
  // and count of even numbers in [0, 500)) must never move.
  ScheduleExplorer explorer(101);
  auto trial = [](const ScheduleExplorer::Schedule& s) {
    auto q1 = std::make_shared<TupleQueue>(PushQueueOptions(8));
    auto q2 = std::make_shared<TupleQueue>(PushQueueOptions(8));
    std::atomic<int64_t> sum{0}, count{0};
    std::vector<FjordModulePtr> modules = {
        std::make_shared<ProducerModule>("prod", q1, 0, 500),
        std::make_shared<EvenFilterModule>("filter", q1, q2),
        std::make_shared<SummerModule>("sum", q2, &sum, &count),
    };
    ExecutionObject::Options opts;
    opts.quantum = s.quantum;
    opts.idle_sleep_micros = 0;
    ExecutionObject eo("trial-eo", opts);
    for (size_t idx : s.order) eo.AddModule(modules[idx]);
    eo.RunToCompletion();
    return "sum=" + std::to_string(sum.load()) +
           ",count=" + std::to_string(count.load());
  };
  auto result = explorer.Explore(3, trial);
  ASSERT_TRUE(result.ok()) << result.status();
  // 0+2+...+498 = 250*498/2... = 62250; 250 evens.
  EXPECT_EQ(*result, "sum=62250,count=250");
}

TEST(StressSchedulerTest, ThreadedPipelineMatchesSingleThreadedResult) {
  // The same dataflow under Start()/Join() (real scheduler thread) agrees
  // with RunToCompletion.
  for (int round = 0; round < 5; ++round) {
    auto q1 = std::make_shared<TupleQueue>(PushQueueOptions(4));
    auto q2 = std::make_shared<TupleQueue>(PushQueueOptions(4));
    std::atomic<int64_t> sum{0}, count{0};
    ExecutionObject eo("threaded-eo");
    eo.AddModule(std::make_shared<ProducerModule>("prod", q1, 0, 500));
    eo.AddModule(std::make_shared<EvenFilterModule>("filter", q1, q2));
    eo.AddModule(std::make_shared<SummerModule>("sum", q2, &sum, &count));
    eo.Start();
    eo.Join();
    EXPECT_EQ(sum.load(), 62250);
    EXPECT_EQ(count.load(), 250);
  }
}

// -- Eddy routing invariance (§2.2/§4.3) ----------------------------------

TEST(StressSchedulerTest, EddyResultsInvariantAcrossRoutingSchedules) {
  // The eddy may route adaptively (lottery, any seed), register operators
  // in any order, and batch decisions per the §4.3 knobs — the emitted
  // result set must be exactly the conjunction's answer every time.
  SchemaPtr schema = Schema::Make(
      {{"k", ValueType::kInt64, ""}, {"v", ValueType::kInt64, ""}});

  ScheduleExplorer::Options eopts;
  eopts.trials = 16;
  eopts.quanta = {1, 2, 8, 32};  // Reused as the eddy batch-size knob.
  ScheduleExplorer explorer(77, eopts);

  auto trial = [&](const ScheduleExplorer::Schedule& s) {
    SourceLayout layout;
    const size_t src = layout.AddSource("s", schema);
    SmallBitset sources(layout.num_sources());
    sources.Set(src);

    auto bind = [&](ExprPtr e) {
      auto bound = e->Bind(*layout.full_schema());
      EXPECT_TRUE(bound.ok()) << bound.status();
      return *bound;
    };
    std::vector<ExprPtr> predicates = {
        bind(Expr::Binary(BinaryOp::kGt, Expr::Column("k"),
                          Expr::Literal(Value::Int64(10)))),
        bind(Expr::Binary(BinaryOp::kLe, Expr::Column("k"),
                          Expr::Literal(Value::Int64(180)))),
        bind(Expr::Binary(BinaryOp::kGe, Expr::Column("v"),
                          Expr::Literal(Value::Int64(40)))),
    };

    Eddy::Options opts;
    opts.batch_size = s.quantum;
    opts.fixed_sequence_length = 1 + s.quantum % 3;
    Eddy eddy(&layout, std::make_unique<LotteryPolicy>(s.trial_seed), opts);
    for (size_t idx : s.order) {
      eddy.AddOperator(std::make_shared<FilterOp>(
          "f" + std::to_string(idx), predicates[idx], sources));
    }

    std::vector<int64_t> emitted;
    eddy.SetSink(
        [&](RoutedTuple&& rt) { emitted.push_back(rt.tuple.cell(0).int64_value()); });
    for (int64_t k = 0; k < 200; ++k) {
      eddy.Inject(src, Tuple::Make({Value::Int64(k), Value::Int64(2 * k)}, k));
    }
    eddy.Drain();
    std::sort(emitted.begin(), emitted.end());
    std::string fp;
    for (int64_t k : emitted) fp += std::to_string(k) + ",";
    return fp;
  };

  auto result = explorer.Explore(3, trial);
  ASSERT_TRUE(result.ok()) << result.status();
  // Conjunction: 10 < k <= 180 && 2k >= 40  ->  k in [20, 180].
  std::string expect;
  for (int64_t k = 20; k <= 180; ++k) expect += std::to_string(k) + ",";
  EXPECT_EQ(*result, expect);
}

// -- Real multi-threaded lifecycle interleavings --------------------------

TEST(StressSchedulerTest, ConcurrentAddModuleWhileRunning) {
  ExecutionObject eo("dynamic-eo");
  eo.Start();

  constexpr size_t kAdders = 3;
  constexpr int kPipesPerAdder = 8;
  std::atomic<int64_t> sum{0}, count{0};
  StressRunner runner({kAdders, std::chrono::milliseconds(0), 11});
  runner.RunOnce([&](size_t thread, Rng&) {
    for (int p = 0; p < kPipesPerAdder; ++p) {
      auto q = std::make_shared<TupleQueue>(PushQueueOptions(16));
      const int64_t base = static_cast<int64_t>(thread) * 100000 + p * 1000;
      eo.AddModule(
          std::make_shared<ProducerModule>("prod", q, base, base + 100));
      eo.AddModule(std::make_shared<SummerModule>("sum", q, &sum, &count));
    }
  });
  eo.Join();
  EXPECT_EQ(count.load(), static_cast<int64_t>(kAdders * kPipesPerAdder) * 100);

  int64_t expected = 0;
  for (size_t thread = 0; thread < kAdders; ++thread) {
    for (int p = 0; p < kPipesPerAdder; ++p) {
      const int64_t base = static_cast<int64_t>(thread) * 100000 + p * 1000;
      expected += 100 * base + 99 * 100 / 2;
    }
  }
  EXPECT_EQ(sum.load(), expected);
}

TEST(StressSchedulerTest, ConcurrentStopCallsAreSafe) {
  for (uint64_t round = 0; round < 10; ++round) {
    auto q = std::make_shared<TupleQueue>(PushQueueOptions(8));
    std::atomic<int64_t> sum{0}, count{0};
    ExecutionObject eo("stop-eo");
    eo.AddModule(std::make_shared<ProducerModule>("prod", q, 0, 1 << 20));
    eo.AddModule(std::make_shared<SummerModule>("sum", q, &sum, &count));
    eo.Start();
    StressRunner runner({3, std::chrono::milliseconds(0), round});
    runner.RunOnce([&](size_t, Rng& rng) {
      for (uint64_t spin = rng.NextBounded(20000); spin > 0; --spin) {
      }
      eo.Stop();  // All three threads race the shutdown path.
    });
    EXPECT_FALSE(eo.running());
    eo.Stop();  // And once more for idempotence.
  }
}

TEST(StressSchedulerTest, RacingStartAgainstStopNeverWedges) {
  // Regression: Stop() used to store stop_requested_ BEFORE acquiring
  // lifecycle_mu_. A Start() racing in between reset the flag and launched
  // a thread whose stop request was lost — Stop() then joined it forever.
  auto q = std::make_shared<TupleQueue>(PushQueueOptions(8));
  std::atomic<int64_t> sum{0}, count{0};
  ExecutionObject eo("race-eo");
  eo.AddModule(std::make_shared<ProducerModule>("prod", q, 0, 1 << 20));
  eo.AddModule(std::make_shared<SummerModule>("sum", q, &sum, &count));
  for (int round = 0; round < 200; ++round) {
    std::thread starter([&] { eo.Start(); });
    std::thread stopper([&] { eo.Stop(); });
    starter.join();
    stopper.join();
    eo.Stop();  // Whichever side won the race, leave the round stopped.
    ASSERT_FALSE(eo.running());
  }
}

TEST(StressSchedulerTest, StartStopCyclesWithTraffic) {
  // Repeated cold starts and shutdowns of the same EO with live modules:
  // the lifecycle must neither deadlock nor double-start.
  auto q = std::make_shared<TupleQueue>(PushQueueOptions(8));
  std::atomic<int64_t> sum{0}, count{0};
  ExecutionObject eo("cycle-eo");
  eo.AddModule(std::make_shared<ProducerModule>("prod", q, 0, 200000));
  eo.AddModule(std::make_shared<SummerModule>("sum", q, &sum, &count));
  for (int cycle = 0; cycle < 25; ++cycle) {
    eo.Start();
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    eo.Stop();
  }
  eo.Start();
  eo.Join();  // Let it finish for a final, exact answer.
  EXPECT_EQ(count.load(), 200000);
}

// -- Park/wake: no lost wakeups -------------------------------------------

TEST(StressSchedulerTest, NoWakeIsLostBetweenIdleRoundAndPark) {
  // Several producers feed one EO through a small queue whose edge wakes
  // it, pausing at random so the EO keeps alternating between working and
  // parking. The fallback park is 10 s: a single lost wake would stall the
  // run that long, so draining everything far inside that bound shows
  // every wake landed. Producers retry a full queue until a deadline
  // instead of blocking, so a lost wake fails the test rather than
  // hanging it.
  constexpr size_t kProducers = 4;
  constexpr int64_t kPerProducer = 3000;
  constexpr int64_t kTotal = static_cast<int64_t>(kProducers) * kPerProducer;
  ExecutionObject::Options opts;
  opts.idle_sleep_micros = 10'000'000;
  auto waker = std::make_shared<Waker>();
  auto q = std::make_shared<TupleQueue>(QueueOptions{
      16, QueueEnd::kNonBlocking, QueueEnd::kNonBlocking, nullptr, waker});
  std::atomic<int64_t> sum{0}, count{0};
  ExecutionObject eo("wake-eo", opts, waker);
  eo.AddModule(std::make_shared<LingeringModule>(
      std::make_shared<SummerModule>("sum", q, &sum, &count)));
  eo.Start();
  const auto t0 = std::chrono::steady_clock::now();
  const auto deadline = t0 + std::chrono::seconds(15);
  StressRunner runner({kProducers, std::chrono::milliseconds(0), 29});
  runner.RunOnce([&](size_t thread, Rng& rng) {
    for (int64_t i = 0; i < kPerProducer; ++i) {
      const int64_t v = static_cast<int64_t>(thread) * kPerProducer + i;
      const Tuple t = Tuple::Make({Value::Int64(v)}, v);
      while (!q->Enqueue(t)) {
        if (std::chrono::steady_clock::now() >= deadline) return;
        std::this_thread::yield();
      }
      switch (rng.NextBounded(8)) {
        case 0:  // Long enough for the EO to go idle and park.
          std::this_thread::sleep_for(
              std::chrono::microseconds(rng.NextBounded(200)));
          break;
        case 1:
          std::this_thread::yield();
          break;
        default:
          break;
      }
    }
  });
  while (count.load() < kTotal && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_EQ(count.load(), kTotal);
  EXPECT_EQ(sum.load(), kTotal * (kTotal - 1) / 2);
  EXPECT_LT(elapsed, std::chrono::seconds(5));
  EXPECT_GT(waker->woken_parks(), 0u);  // The EO really did park.
  eo.Stop();
}

}  // namespace
}  // namespace tcq
