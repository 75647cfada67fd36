#include "fjords/queue.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "tuple/tuple.h"
#include "tuple/value.h"

namespace tcq {
namespace {

TEST(FjordQueueTest, FifoOrder) {
  FjordQueue<int> q(PullQueueOptions(16));
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(q.Enqueue(i));
  for (int i = 0; i < 10; ++i) {
    auto v = q.Dequeue();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
}

TEST(FjordQueueTest, PushQueueNonBlockingDequeueOnEmpty) {
  FjordQueue<int> q(PushQueueOptions(4));
  EXPECT_FALSE(q.Dequeue().has_value());  // Returns control immediately.
}

TEST(FjordQueueTest, PushQueueNonBlockingEnqueueOnFull) {
  FjordQueue<int> q(PushQueueOptions(2));
  EXPECT_TRUE(q.Enqueue(1));
  EXPECT_TRUE(q.Enqueue(2));
  EXPECT_FALSE(q.Enqueue(3));  // Full, non-blocking: rejected.
  EXPECT_EQ(q.Size(), 2u);
}

TEST(FjordQueueTest, CloseWakesBlockedConsumer) {
  FjordQueue<int> q(PullQueueOptions(4));
  std::atomic<bool> returned{false};
  std::thread consumer([&] {
    auto v = q.Dequeue();  // Blocks until close.
    EXPECT_FALSE(v.has_value());
    returned.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(returned.load());
  q.Close();
  consumer.join();
  EXPECT_TRUE(returned.load());
}

TEST(FjordQueueTest, CloseDrainsRemainingItems) {
  FjordQueue<int> q(PullQueueOptions(4));
  q.Enqueue(1);
  q.Enqueue(2);
  q.Close();
  EXPECT_FALSE(q.Enqueue(3));  // No enqueue after close.
  EXPECT_EQ(*q.Dequeue(), 1);
  EXPECT_EQ(*q.Dequeue(), 2);
  EXPECT_FALSE(q.Dequeue().has_value());
  EXPECT_TRUE(q.Exhausted());
}

TEST(FjordQueueTest, BlockingEnqueueWaitsForSpace) {
  FjordQueue<int> q(PullQueueOptions(1));
  ASSERT_TRUE(q.Enqueue(1));
  std::atomic<bool> enqueued{false};
  std::thread producer([&] {
    EXPECT_TRUE(q.Enqueue(2));  // Blocks until space.
    enqueued.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(enqueued.load());
  EXPECT_EQ(*q.Dequeue(), 1);
  producer.join();
  EXPECT_TRUE(enqueued.load());
  EXPECT_EQ(*q.Dequeue(), 2);
}

TEST(FjordQueueTest, ExchangeSemantics) {
  // Exchange [Graf93]: producer never blocks (non-blocking enqueue),
  // consumer blocks for data.
  FjordQueue<int> q(ExchangeQueueOptions(2));
  EXPECT_TRUE(q.Enqueue(1));
  EXPECT_TRUE(q.Enqueue(2));
  EXPECT_FALSE(q.Enqueue(3));  // Full: rejected, not blocked.
  EXPECT_EQ(*q.Dequeue(), 1);
}

TEST(FjordQueueTest, ConcurrentProducersConsumersDeliverAll) {
  FjordQueue<int> q(PullQueueOptions(64));
  constexpr int kPerProducer = 2000;
  constexpr int kProducers = 4;
  constexpr int kConsumers = 3;

  std::atomic<int64_t> sum{0};
  std::atomic<int> consumed{0};
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&q, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        EXPECT_TRUE(q.Enqueue(p * kPerProducer + i));
      }
    });
  }
  std::vector<std::thread> consumers;
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&] {
      while (auto v = q.Dequeue()) {
        sum.fetch_add(*v);
        consumed.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  q.Close();
  for (auto& t : consumers) t.join();

  const int total = kProducers * kPerProducer;
  EXPECT_EQ(consumed.load(), total);
  EXPECT_EQ(sum.load(), int64_t{total} * (total - 1) / 2);
}

TEST(FjordQueueTest, EnqueueBatchPreservesFifoOrder) {
  FjordQueue<int> q(PullQueueOptions(16));
  std::vector<int> batch = {1, 2, 3, 4, 5};
  EXPECT_EQ(q.EnqueueBatch(std::move(batch)), 5u);
  EXPECT_TRUE(batch.empty());  // All accepted elements consumed.
  for (int i = 1; i <= 5; ++i) EXPECT_EQ(*q.Dequeue(), i);
}

TEST(FjordQueueTest, EnqueueBatchNonBlockingAcceptsPrefix) {
  FjordQueue<int> q(PushQueueOptions(3));
  std::vector<int> batch = {1, 2, 3, 4, 5};
  EXPECT_EQ(q.EnqueueBatch(std::move(batch)), 3u);
  // The rejected suffix stays with the producer, in order, for retry.
  EXPECT_EQ(batch, (std::vector<int>{4, 5}));
  EXPECT_EQ(*q.Dequeue(), 1);
  EXPECT_EQ(q.EnqueueBatch(std::move(batch)), 1u);
  EXPECT_EQ(batch, (std::vector<int>{5}));
}

TEST(FjordQueueTest, EnqueueBatchOnClosedQueueAcceptsNothing) {
  FjordQueue<int> q(PullQueueOptions(8));
  q.Close();
  std::vector<int> batch = {1, 2};
  EXPECT_EQ(q.EnqueueBatch(std::move(batch)), 0u);
  EXPECT_EQ(batch.size(), 2u);
}

TEST(FjordQueueTest, DequeueUpToTakesAtMostWhatIsPresent) {
  FjordQueue<int> q(PushQueueOptions(16));
  for (int i = 0; i < 5; ++i) q.Enqueue(i);
  std::vector<int> out;
  EXPECT_EQ(q.DequeueUpTo(3, &out), 3u);
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(q.DequeueUpTo(10, &out), 2u);  // Appends; never waits to fill.
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(q.DequeueUpTo(1, &out), 0u);  // Empty, non-blocking.
}

TEST(FjordQueueTest, DequeueUpToOnClosedQueueDrainsThenReportsEos) {
  FjordQueue<int> q(PullQueueOptions(8));
  q.Enqueue(1);
  q.Enqueue(2);
  q.Close();
  std::vector<int> out;
  EXPECT_EQ(q.DequeueUpTo(8, &out), 2u);
  EXPECT_EQ(q.DequeueUpTo(8, &out), 0u);  // Closed and drained: no wait.
  EXPECT_TRUE(q.Exhausted());
}

TEST(FjordQueueTest, BlockingDequeueUpToWaitsForFirstElement) {
  FjordQueue<int> q(PullQueueOptions(8));
  std::vector<int> out;
  std::atomic<bool> got{false};
  std::thread consumer([&] {
    EXPECT_EQ(q.DequeueUpTo(4, &out), 2u);  // Takes what's there on wake.
    got.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(got.load());
  std::vector<int> batch = {7, 8};
  q.EnqueueBatch(std::move(batch));
  consumer.join();
  EXPECT_EQ(out, (std::vector<int>{7, 8}));
}

TEST(FjordQueueTest, BlockingEnqueueBatchWaitsPerElementAndCloseUnblocks) {
  FjordQueue<int> q(PullQueueOptions(2));
  std::atomic<size_t> accepted{SIZE_MAX};
  std::thread producer([&] {
    std::vector<int> batch = {1, 2, 3, 4};
    accepted.store(q.EnqueueBatch(std::move(batch)));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(accepted.load(), SIZE_MAX);  // Blocked on the third element.
  EXPECT_EQ(*q.Dequeue(), 1);            // Batch prefix is visible pre-wait.
  q.Close();                             // Wakes the producer mid-batch.
  producer.join();
  const size_t n = accepted.load();
  EXPECT_GE(n, 2u);  // 1 and 2 were in before the close...
  EXPECT_LT(n, 4u);  // ...but the close cut the batch short.
}

TEST(FjordQueueTest, BatchFaultHooksFirePerElement) {
  // Hooks see one decision per element even when the elements arrive in a
  // single EnqueueBatch — drop the 2nd, delay the 4th for two enqueues.
  auto hooks = std::make_shared<QueueFaultHooks>();
  int enqueue_no = 0;
  hooks->on_enqueue = [&enqueue_no]() {
    ++enqueue_no;
    QueueFaultDecision d;
    if (enqueue_no == 2) d.action = QueueFaultDecision::Action::kDrop;
    if (enqueue_no == 4) {
      d.action = QueueFaultDecision::Action::kDelay;
      d.arg = 2;
    }
    return d;
  };
  QueueOptions opts = PushQueueOptions(16);
  opts.faults = hooks;
  FjordQueue<int> q(opts);
  std::vector<int> batch = {1, 2, 3, 4, 5};
  EXPECT_EQ(q.EnqueueBatch(std::move(batch)), 5u);  // Drop looks accepted.
  EXPECT_EQ(enqueue_no, 5);
  EXPECT_EQ(q.FaultDrops(), 1u);
  EXPECT_EQ(q.DelayedCount(), 1u);  // 4 held back...
  EXPECT_EQ(q.Size(), 3u);          // ...so only 1, 3, 5 are visible.
  // Element 5's batch slot already aged the countdown once (2 -> 1); the
  // next enqueue operation expires it and releases 4 at the back.
  q.Enqueue(6);
  EXPECT_EQ(q.DelayedCount(), 0u);
  q.Enqueue(7);
  std::vector<int> out;
  EXPECT_EQ(q.DequeueUpTo(16, &out), 6u);
  EXPECT_EQ(out, (std::vector<int>{1, 3, 5, 4, 6, 7}));
}

TEST(FjordQueueTest, EnqueueBatchRejectedSuffixIsNeverMovedFrom) {
  // Move-only payload: if the queue moved from an element before deciding
  // to reject it, the suffix would hold nullptrs and the retry would lose
  // data. `int` payloads cannot catch this — a moved-from int keeps its
  // value — so this is the integrity check for the retry contract.
  FjordQueue<std::unique_ptr<int>> q(PushQueueOptions(2));
  std::vector<std::unique_ptr<int>> batch;
  for (int i = 1; i <= 5; ++i) batch.push_back(std::make_unique<int>(i));
  EXPECT_EQ(q.EnqueueBatch(std::move(batch)), 2u);
  ASSERT_EQ(batch.size(), 3u);
  for (size_t i = 0; i < batch.size(); ++i) {
    ASSERT_NE(batch[i], nullptr);
    EXPECT_EQ(*batch[i], static_cast<int>(i + 3));
  }
  // Retry delivers the suffix intact: every element arrives exactly once.
  EXPECT_EQ(**q.Dequeue(), 1);
  EXPECT_EQ(**q.Dequeue(), 2);
  EXPECT_EQ(q.EnqueueBatch(std::move(batch)), 2u);
  ASSERT_EQ(batch.size(), 1u);
  ASSERT_NE(batch[0], nullptr);
  EXPECT_EQ(*batch[0], 5);
}

TEST(FjordQueueTest, EnqueueBatchOnClosedQueueLeavesElementsIntact) {
  FjordQueue<std::unique_ptr<int>> q(PullQueueOptions(4));
  q.Close();
  std::vector<std::unique_ptr<int>> batch;
  batch.push_back(std::make_unique<int>(1));
  batch.push_back(std::make_unique<int>(2));
  EXPECT_EQ(q.EnqueueBatch(std::move(batch)), 0u);
  ASSERT_EQ(batch.size(), 2u);
  ASSERT_NE(batch[0], nullptr);
  EXPECT_EQ(*batch[0], 1);
  ASSERT_NE(batch[1], nullptr);
  EXPECT_EQ(*batch[1], 2);
}

TEST(FjordQueueTest, EnqueueBatchTupleSuffixStaysValidForRetry) {
  // The production payload and the exact SourceModule carry_ retry path:
  // fill a non-blocking edge, batch past capacity, and require every
  // rejected tuple to still be a readable, correct tuple before retrying.
  FjordQueue<Tuple> q(PushQueueOptions(2));
  std::vector<Tuple> batch;
  for (int i = 1; i <= 5; ++i) {
    batch.push_back(Tuple::Make({Value::Int64(i)}, /*ts=*/i));
  }
  EXPECT_EQ(q.EnqueueBatch(std::move(batch)), 2u);
  ASSERT_EQ(batch.size(), 3u);
  for (size_t i = 0; i < batch.size(); ++i) {
    ASSERT_EQ(batch[i].arity(), 1u);
    EXPECT_EQ(batch[i].cell(0).int64_value(), static_cast<int64_t>(i + 3));
    EXPECT_EQ(batch[i].timestamp(), static_cast<Timestamp>(i + 3));
  }
  q.Dequeue();
  q.Dequeue();
  EXPECT_EQ(q.EnqueueBatch(std::move(batch)), 2u);
  EXPECT_EQ(q.Dequeue()->cell(0).int64_value(), 3);
  EXPECT_EQ(q.Dequeue()->cell(0).int64_value(), 4);
}

TEST(FjordQueueTest, SizeTracksContents) {
  FjordQueue<int> q(PullQueueOptions(8));
  EXPECT_TRUE(q.Empty());
  q.Enqueue(1);
  EXPECT_EQ(q.Size(), 1u);
  q.Dequeue();
  EXPECT_TRUE(q.Empty());
}

TEST(FjordQueueTest, EveryVisibleEnqueueAndCloseWakesTheConsumer) {
  // The wake lives at the queue edge: each enqueue flavour that makes an
  // element visible moves the consumer's waker sequence, as does Close;
  // a rejected enqueue makes nothing visible and does not.
  auto waker = std::make_shared<Waker>();
  QueueOptions options = PushQueueOptions(3);
  options.waker = waker;
  FjordQueue<int> q(options);
  uint64_t seq = waker->Snapshot();
  auto woke = [&] {
    const uint64_t now = waker->Snapshot();
    const bool moved = now != seq;
    seq = now;
    return moved;
  };
  EXPECT_TRUE(q.Enqueue(1));
  EXPECT_TRUE(woke());
  EXPECT_EQ(q.EnqueueBatch(std::vector<int>{2}), 1u);
  EXPECT_TRUE(woke());
  int three = 3;
  EXPECT_EQ(q.TryEnqueue(three), FjordQueue<int>::TryResult::kAccepted);
  EXPECT_TRUE(woke());
  EXPECT_FALSE(q.Enqueue(4));  // Full, non-blocking: rejected.
  EXPECT_FALSE(woke());
  q.Close();
  EXPECT_TRUE(woke());
  // Nobody was parked, so no wake cost a park.
  EXPECT_EQ(waker->parks(), 0u);
}

TEST(FjordQueueTest, ParkReturnsAtOnceForAWakeBeforeIt) {
  // A wake between the snapshot and the park (the "found no work, about
  // to sleep" window) must not be lost: the park returns woken at once.
  Waker waker;
  const uint64_t seen = waker.Snapshot();
  waker.Wake();
  EXPECT_TRUE(waker.Park(seen, std::chrono::seconds(10)));
  // Without a wake, the bound ends the park.
  EXPECT_FALSE(waker.Park(waker.Snapshot(), std::chrono::microseconds(100)));
  EXPECT_EQ(waker.parks(), 2u);
  EXPECT_EQ(waker.woken_parks(), 1u);
}

}  // namespace
}  // namespace tcq
