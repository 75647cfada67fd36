#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "fjords/queue.h"
#include "testing/fault_injector.h"
#include "testing/stress_runner.h"

namespace tcq {
namespace {

// Producer/consumer races over every queue-end combination, with the
// conservation invariant the Fjords contract promises: every element whose
// Enqueue returned true is either dequeued, still in the queue, or
// accounted to an explicit drop counter — never silently lost.

struct QueueAccounting {
  std::atomic<uint64_t> accepted{0};
  std::atomic<uint64_t> rejected{0};
  std::atomic<uint64_t> dequeued{0};
};

void DrainRemaining(FjordQueue<int>* q, QueueAccounting* acct) {
  while (auto v = q->Dequeue()) acct->dequeued.fetch_add(1);
}

void CheckConservation(const FjordQueue<int>& q, const QueueAccounting& a) {
  EXPECT_EQ(a.accepted.load(), a.dequeued.load() + q.FaultDrops())
      << "accepted elements vanished without an accounting entry";
}

TEST(StressQueueTest, BlockingEndsUnderContention) {
  FjordQueue<int> q(PullQueueOptions(8));
  QueueAccounting acct;
  constexpr int kPerProducer = 20000;
  std::vector<std::thread> producers, consumers;
  for (int p = 0; p < 3; ++p) {
    producers.emplace_back([&] {
      for (int i = 0; i < kPerProducer; ++i) {
        if (q.Enqueue(i)) {
          acct.accepted.fetch_add(1);
        } else {
          acct.rejected.fetch_add(1);
        }
      }
    });
  }
  for (int c = 0; c < 2; ++c) {
    consumers.emplace_back([&] {
      while (auto v = q.Dequeue()) acct.dequeued.fetch_add(1);
    });
  }
  for (auto& t : producers) t.join();
  q.Close();
  for (auto& t : consumers) t.join();
  EXPECT_EQ(acct.accepted.load(), 3u * kPerProducer);  // Blocking: all in.
  CheckConservation(q, acct);
}

TEST(StressQueueTest, NonBlockingFullQueueReportsRejectionNotLoss) {
  // Regression (per PushQueueOptions): a non-blocking enqueue on a full
  // queue must RETURN false, not silently drop. Under a saturating
  // producer/consumer race, accepted == dequeued exactly.
  FjordQueue<int> q(PushQueueOptions(4));
  QueueAccounting acct;
  std::atomic<bool> done{false};
  std::thread consumer([&] {
    while (!done.load(std::memory_order_acquire)) {
      if (q.Dequeue().has_value()) acct.dequeued.fetch_add(1);
    }
    DrainRemaining(&q, &acct);
  });
  constexpr int kAttempts = 200000;
  for (int i = 0; i < kAttempts; ++i) {
    if (q.Enqueue(i)) {
      acct.accepted.fetch_add(1);
    } else {
      acct.rejected.fetch_add(1);
    }
  }
  done.store(true, std::memory_order_release);
  consumer.join();
  EXPECT_GT(acct.rejected.load(), 0u);  // The queue really filled up.
  EXPECT_EQ(acct.accepted.load() + acct.rejected.load(),
            static_cast<uint64_t>(kAttempts));
  CheckConservation(q, acct);
}

TEST(StressQueueTest, PushRacingCloseNeverLosesAcceptedElements) {
  // Satellite: Push vs Close() race. Contract: an Enqueue returning true
  // is observable by consumers; one returning false inserted nothing.
  for (uint64_t round = 0; round < 20; ++round) {
    FjordQueue<int> q(ExchangeQueueOptions(64));
    QueueAccounting acct;
    StressRunner runner({/*num_threads=*/3,
                         /*budget=*/std::chrono::milliseconds(10),
                         /*seed=*/round + 1});
    std::atomic<bool> closed{false};
    runner.RunOnce([&](size_t thread, Rng& rng) {
      if (thread == 0) {
        // Close at a random point mid-traffic.
        for (uint64_t spin = rng.NextBounded(5000); spin > 0; --spin) {
        }
        q.Close();
        closed.store(true, std::memory_order_release);
        // After Close, every Enqueue must fail.
        EXPECT_FALSE(q.Enqueue(-1));
      } else {
        for (int i = 0; i < 5000; ++i) {
          if (q.Enqueue(i)) {
            // Accepted: must not have happened after close completed...
            acct.accepted.fetch_add(1);
          } else {
            acct.rejected.fetch_add(1);
            if (closed.load(std::memory_order_acquire)) break;
          }
        }
      }
    });
    DrainRemaining(&q, &acct);
    EXPECT_EQ(acct.accepted.load(), acct.dequeued.load())
        << "round " << round
        << ": accepted tuples silently dropped by the Close race";
  }
}

TEST(StressQueueTest, FaultedQueueUnderContentionConservesAccounting) {
  // Fault hooks fire under the queue lock while real threads race: TSan
  // checks the locking, the math checks conservation (drop is counted,
  // delay is released by Close, reorder moves but never loses).
  FaultInjector fi(1234);
  FaultInjector::QueueFaultProfile profile;
  profile.drop = 0.05;
  profile.delay = 0.05;
  profile.reorder = 0.10;
  QueueOptions opts = ExchangeQueueOptions(32);
  opts.faults = fi.MakeQueueHooks(profile, profile);
  FjordQueue<int> q(opts);
  QueueAccounting acct;

  std::vector<std::thread> producers;
  for (int p = 0; p < 2; ++p) {
    producers.emplace_back([&] {
      for (int i = 0; i < 20000; ++i) {
        if (q.Enqueue(i)) {
          acct.accepted.fetch_add(1);
        } else {
          acct.rejected.fetch_add(1);
        }
      }
    });
  }
  std::thread consumer([&] {
    while (auto v = q.Dequeue()) acct.dequeued.fetch_add(1);
  });
  for (auto& t : producers) t.join();
  q.Close();
  consumer.join();
  DrainRemaining(&q, &acct);
  EXPECT_GT(q.FaultDrops(), 0u);
  EXPECT_EQ(q.DelayedCount(), 0u);  // Close released all delays.
  CheckConservation(q, acct);
}

TEST(StressQueueTest, MixedBatchAndSingleProducersConserve) {
  // Batch and single-element operations race on both ends of one queue:
  // EnqueueBatch/DequeueUpTo must honor the same conservation contract as
  // their per-element forms, under blocking (producers) semantics.
  FjordQueue<int> q(ExchangeQueueOptions(32));
  QueueAccounting acct;
  constexpr int kPerProducer = 20000;
  std::vector<std::thread> producers, consumers;
  for (int p = 0; p < 2; ++p) {
    producers.emplace_back([&, p] {
      std::vector<int> batch;
      for (int i = 0; i < kPerProducer; ++i) {
        if ((p + i) % 3 == 0) {
          if (q.Enqueue(i)) {
            acct.accepted.fetch_add(1);
          } else {
            acct.rejected.fetch_add(1);
          }
          continue;
        }
        batch.push_back(i);
        if (batch.size() == 16) {
          // Retry the rejected suffix a bounded number of times (it stays
          // in `batch`), then count whatever never made it as rejected.
          for (int retry = 0; retry < 4 && !batch.empty(); ++retry) {
            acct.accepted.fetch_add(q.EnqueueBatch(std::move(batch)));
          }
          acct.rejected.fetch_add(batch.size());
          batch.clear();
        }
      }
      const size_t tail = batch.size();
      const size_t in = q.EnqueueBatch(std::move(batch));
      acct.accepted.fetch_add(in);
      acct.rejected.fetch_add(tail - in);
    });
  }
  for (int c = 0; c < 2; ++c) {
    consumers.emplace_back([&, c] {
      std::vector<int> out;
      while (true) {
        if (c == 0) {
          out.clear();
          const size_t n = q.DequeueUpTo(8, &out);
          if (n == 0) break;  // Closed and drained.
          acct.dequeued.fetch_add(n);
        } else {
          auto v = q.Dequeue();
          if (!v.has_value()) break;
          acct.dequeued.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : producers) t.join();
  q.Close();
  for (auto& t : consumers) t.join();
  DrainRemaining(&q, &acct);
  CheckConservation(q, acct);
}

TEST(StressQueueTest, FaultedBatchOpsUnderContentionConserve) {
  // Fault hooks fire per ELEMENT inside batch operations while threads
  // race — the batch paths must keep the same accounting as singles.
  FaultInjector fi(99);
  FaultInjector::QueueFaultProfile profile;
  profile.drop = 0.05;
  profile.delay = 0.05;
  profile.reorder = 0.10;
  QueueOptions opts = ExchangeQueueOptions(32);
  opts.faults = fi.MakeQueueHooks(profile, profile);
  FjordQueue<int> q(opts);
  QueueAccounting acct;

  std::vector<std::thread> producers;
  for (int p = 0; p < 2; ++p) {
    producers.emplace_back([&] {
      std::vector<int> batch;
      for (int i = 0; i < 20000; ++i) {
        batch.push_back(i);
        if (batch.size() == 8) {
          acct.accepted.fetch_add(q.EnqueueBatch(std::move(batch)));
          batch.clear();  // Rejected suffix counts as rejected.
        }
      }
      acct.accepted.fetch_add(q.EnqueueBatch(std::move(batch)));
    });
  }
  std::thread consumer([&] {
    std::vector<int> out;
    while (true) {
      out.clear();
      const size_t n = q.DequeueUpTo(8, &out);
      if (n == 0) break;
      acct.dequeued.fetch_add(n);
    }
  });
  for (auto& t : producers) t.join();
  q.Close();
  consumer.join();
  DrainRemaining(&q, &acct);
  EXPECT_GT(q.FaultDrops(), 0u);
  EXPECT_EQ(q.DelayedCount(), 0u);  // Close released all delays.
  CheckConservation(q, acct);
}

TEST(StressQueueTest, RandomizedMixedOpsInterleavings) {
  // StressRunner drives a random mix of operations against one queue from
  // several threads under a small time budget — a scattershot of
  // interleavings for the sanitizers to chew on.
  FjordQueue<int> q(PushQueueOptions(16));
  QueueAccounting acct;
  StressRunner runner(
      {/*num_threads=*/4, /*budget=*/std::chrono::milliseconds(150),
       /*seed=*/7});
  const uint64_t iterations = runner.Run([&](size_t, Rng& rng) {
    switch (rng.NextBounded(8)) {
      case 0:
      case 1:
      case 2:
        if (q.Enqueue(static_cast<int>(rng.NextBounded(1000)))) {
          acct.accepted.fetch_add(1);
        }
        break;
      case 3:
      case 4:
      case 5:
        if (q.Dequeue().has_value()) acct.dequeued.fetch_add(1);
        break;
      case 6:
        q.Size();
        q.Empty();
        break;
      default:
        q.Exhausted();
        q.FaultDrops();
        break;
    }
  });
  EXPECT_GT(iterations, 0u);
  DrainRemaining(&q, &acct);
  CheckConservation(q, acct);
}

}  // namespace
}  // namespace tcq
