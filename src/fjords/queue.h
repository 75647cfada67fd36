#ifndef TCQ_FJORDS_QUEUE_H_
#define TCQ_FJORDS_QUEUE_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "common/logging.h"
#include "fjords/waker.h"
#include "telemetry/metrics.h"

namespace tcq {

namespace queue_internal {
/// Process-wide Fjord-edge telemetry, aggregated across every queue
/// instance (DESIGN.md §10). Registered once; the struct caches raw
/// pointers so hot-path updates never touch the registry lock.
struct EdgeMetrics {
  Counter* enqueued;         ///< Elements accepted (any mode).
  Counter* dequeued;         ///< Elements handed to consumers.
  Counter* rejected;         ///< Non-blocking enqueues refused (full/closed).
  Counter* producer_blocks;  ///< Times a producer slept for space.
  Counter* consumer_blocks;  ///< Times a consumer slept for data.
  Counter* closes;           ///< Queues closed (end-of-stream markers).
  Histogram* depth;          ///< Queue length observed after each enqueue.

  static EdgeMetrics& Get() {
    static EdgeMetrics m = [] {
      MetricRegistry& r = MetricRegistry::Global();
      return EdgeMetrics{r.GetCounter("tcq.queue.enqueued"),
                         r.GetCounter("tcq.queue.dequeued"),
                         r.GetCounter("tcq.queue.rejected"),
                         r.GetCounter("tcq.queue.producer_blocks"),
                         r.GetCounter("tcq.queue.consumer_blocks"),
                         r.GetCounter("tcq.queue.closes"),
                         r.GetHistogram("tcq.queue.depth")};
    }();
    return m;
  }
};
}  // namespace queue_internal

/// Blocking behaviour of one end of a Fjord queue (§2.3 of the paper).
enum class QueueEnd {
  kBlocking,     ///< The call waits (producer for space, consumer for data).
  kNonBlocking,  ///< The call returns immediately, reporting failure.
};

/// One fault decision for a single queue operation, drawn by a fault hook
/// (see QueueFaultHooks). Production queues never see these; the testing
/// FaultInjector uses them to emulate an uncertain world at either end of
/// a Fjord edge — lossy wrappers, slow consumers, reordering transports.
struct QueueFaultDecision {
  enum class Action {
    kNone,     ///< Operation proceeds normally.
    kDrop,     ///< Enqueue: element silently discarded (caller sees success).
               ///< Dequeue: element discarded; the next one is returned.
    kDelay,    ///< Enqueue: element held back and released after `arg`
               ///< later enqueue operations (Close releases all).
               ///< Dequeue (non-blocking only): pretend the queue is empty.
    kReorder,  ///< Enqueue: insert at offset `arg` instead of the back.
               ///< Dequeue: remove from offset `arg` instead of the front.
  };
  Action action = Action::kNone;
  /// kReorder: position offset (taken modulo the legal range).
  /// kDelay on enqueue: number of later enqueues to hold the element back.
  size_t arg = 0;
};

/// Fault hooks consulted under the queue lock, once per operation that
/// would otherwise succeed. Unset hooks mean no faults. Hooks must be
/// cheap and thread-safe: concurrent producers/consumers reach them while
/// holding the queue mutex, but distinct queues may share one hook object.
struct QueueFaultHooks {
  std::function<QueueFaultDecision()> on_enqueue;
  std::function<QueueFaultDecision()> on_dequeue;
};

/// Configuration of a Fjord queue. The paper's three named flavors:
///  * pull-queue:     blocking enqueue + blocking dequeue
///  * push-queue:     non-blocking enqueue + non-blocking dequeue
///  * Exchange:       non-blocking enqueue + blocking dequeue [Graf93]
struct QueueOptions {
  size_t capacity = 1024;
  QueueEnd enqueue = QueueEnd::kBlocking;
  QueueEnd dequeue = QueueEnd::kBlocking;
  /// Optional fault injection (testing only; see QueueFaultHooks).
  std::shared_ptr<QueueFaultHooks> faults;
  /// Optional consumer waker: woken whenever an enqueue makes elements
  /// visible and on Close, so an Execution Object parked on it resumes at
  /// once (the wake lives at the queue edge, so no producer can forget it).
  std::shared_ptr<Waker> waker;
};

/// A bounded MPMC queue connecting a producer module to a consumer module.
/// Fjords let plans mix push and pull edges so that operators can be written
/// agnostic to whether their inputs are streamed or static.
///
/// End-of-stream: the producer calls Close(); consumers then drain the
/// remaining elements and observe closed() + empty.
template <typename T>
class FjordQueue {
 public:
  explicit FjordQueue(QueueOptions options = {}) : options_(options) {
    TCQ_CHECK(options_.capacity > 0) << "queue capacity must be positive";
  }

  FjordQueue(const FjordQueue&) = delete;
  FjordQueue& operator=(const FjordQueue&) = delete;

  const QueueOptions& options() const { return options_; }

  /// Inserts an element according to the configured enqueue mode.
  /// Returns false only when the element was not inserted: the queue is
  /// closed, or it is full in non-blocking mode.
  ///
  /// Racing Close(): the two calls serialize on the queue mutex. An
  /// Enqueue that wins the race inserts normally (consumers drain it);
  /// one that loses — including a blocking producer woken by Close —
  /// returns false with the element NOT inserted. Elements are never
  /// silently dropped by this race: a true return means the element is
  /// (or was) observable by consumers, a false return means it never was.
  ///
  /// Capacity: injected kDelay releases re-enter at the back regardless
  /// of capacity, so items_.size() may transiently overshoot capacity by
  /// at most the number of elements held back at release time. The fresh
  /// element itself is always gated against the POST-release size: a
  /// blocking producer whose slot was consumed by a release goes back to
  /// waiting instead of piling on (rechecked in a loop below).
  bool Enqueue(T item) {
    std::unique_lock<std::mutex> lock(mu_);
    size_t added = 0;
    const bool ok = EnqueueOneLocked(std::move(item), &lock, &added);
    TCQ_METRIC(RecordEnqueueLocked(ok ? 1 : 0, ok ? 0 : 1));
    lock.unlock();
    NotifyEnqueued(added);
    return ok;
  }

  /// Inserts the elements of `items` in order under a single mutex
  /// acquisition, amortizing the per-element lock/notify round-trip
  /// (§4.3 batching at the dataflow edge). Fault hooks are consulted once
  /// PER element and delay countdowns age once per element — exactly as
  /// if each element were enqueued individually; only the locking and
  /// notification granularity changes.
  ///
  /// Returns the number of elements accepted — always a prefix of
  /// `items`, in order. Accepted elements are erased from `items`; a
  /// non-accepted suffix (queue closed, or full in non-blocking mode)
  /// REMAINS in `items`, each element intact (never moved-from —
  /// rejection happens before any move), so the producer
  /// can retry or account for it. Blocking mode waits for space per
  /// element and accepts everything unless the queue closes mid-batch.
  size_t EnqueueBatch(std::vector<T>&& items) {
    size_t accepted = 0;
    size_t added = 0;
    {
      std::unique_lock<std::mutex> lock(mu_);
      for (T& item : items) {
        if (!EnqueueOneLocked(std::move(item), &lock, &added)) break;
        ++accepted;
      }
      TCQ_METRIC(RecordEnqueueLocked(accepted, items.size() - accepted));
    }
    NotifyEnqueued(added);
    items.erase(items.begin(), items.begin() + static_cast<ptrdiff_t>(accepted));
    return accepted;
  }

  /// Result of a TryEnqueue attempt: kFull is retryable, kClosed is EOS.
  enum class TryResult { kAccepted, kFull, kClosed };

  /// Non-blocking insert attempt regardless of the configured enqueue
  /// end: never waits for space and never consults fault hooks. On kFull
  /// or kClosed the element is left intact in the caller for retry. This
  /// is the control-path flavor — a barrier closure bound for a consumer
  /// that may have died must be able to give up instead of blocking
  /// forever on a full queue nobody will ever drain.
  TryResult TryEnqueue(T& item) {
    TryResult result;
    size_t added = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_) {
        result = TryResult::kClosed;
      } else {
        added += ReleaseExpiredLocked();
        if (items_.size() >= options_.capacity) {
          result = TryResult::kFull;
        } else {
          items_.push_back(std::move(item));
          ++added;
          TCQ_METRIC(RecordEnqueueLocked(1, 0));
          result = TryResult::kAccepted;
        }
      }
    }
    NotifyEnqueued(added);
    return result;
  }

  /// Removes the next element according to the configured dequeue mode.
  /// Returns nullopt when no element is available: queue empty in
  /// non-blocking mode, or closed and fully drained in blocking mode.
  std::optional<T> Dequeue() {
    std::unique_lock<std::mutex> lock(mu_);
    std::optional<T> out;
    size_t removed = 0;
    // Loop: a kDrop fault consumes an element without yielding one, so we
    // go back to waiting (blocking) or give up (non-blocking, empty).
    while (WaitForElementLocked(&lock, &removed)) {
      bool stop = false;
      out = DequeueOneLocked(&removed, &stop);
      if (out.has_value() || stop) break;
    }
    TCQ_METRIC(queue_internal::EdgeMetrics::Get().dequeued->Add(
        out.has_value() ? 1 : 0));
    lock.unlock();
    NotifyDequeued(removed);
    return out;
  }

  /// Removes up to `max_elements` elements under a single mutex
  /// acquisition, appending them to *out in dequeue order. Dequeue fault
  /// hooks are consulted once per removed element (kDrop discards and
  /// moves on; kDelay in non-blocking mode ends the batch early,
  /// pretending the rest of the queue is empty; kReorder removes from
  /// the faulted offset). In blocking mode the call waits until at least
  /// ONE element is available (or the queue closes); it never waits to
  /// fill the batch — whatever is present when it wakes is the batch.
  /// Returns the number of elements appended; 0 means empty
  /// (non-blocking), or closed and fully drained.
  size_t DequeueUpTo(size_t max_elements, std::vector<T>* out) {
    size_t taken = 0;
    size_t removed = 0;
    {
      std::unique_lock<std::mutex> lock(mu_);
      bool stop = false;
      // Outer loop mirrors Dequeue: if kDrop faults consumed everything
      // before we took a single element, a blocking consumer goes back
      // to waiting — the contract promises at least one element or EOS.
      while (taken == 0 && !stop && WaitForElementLocked(&lock, &removed)) {
        while (taken < max_elements && !items_.empty()) {
          std::optional<T> one = DequeueOneLocked(&removed, &stop);
          if (one.has_value()) {
            out->push_back(std::move(*one));
            ++taken;
          }
          if (stop) break;
        }
      }
      TCQ_METRIC(queue_internal::EdgeMetrics::Get().dequeued->Add(taken));
    }
    NotifyDequeued(removed);
    return taken;
  }

  /// Non-blocking peek at emptiness (racy by nature; for scheduling hints).
  bool Empty() const {
    std::lock_guard<std::mutex> lock(mu_);
    return items_.empty();
  }

  size_t Size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return items_.size();
  }

  /// Elements discarded by injected kDrop faults (either end).
  size_t FaultDrops() const {
    std::lock_guard<std::mutex> lock(mu_);
    return fault_drops_;
  }

  /// Elements currently held back by injected kDelay faults.
  size_t DelayedCount() const {
    std::lock_guard<std::mutex> lock(mu_);
    return delayed_.size();
  }

  /// Marks end-of-stream. Wakes all blocked producers and consumers.
  /// Releases every delayed element first, so an injected delay is a
  /// delay — never a loss — over the life of the stream.
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (Delayed& d : delayed_) items_.push_back(std::move(d.item));
      delayed_.clear();
      if (!closed_) {
        TCQ_METRIC(queue_internal::EdgeMetrics::Get().closes->Add(1));
      }
      closed_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
    if (options_.waker != nullptr) options_.waker->Wake();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
  }

  /// True once the stream is finished: closed and drained.
  bool Exhausted() const {
    std::lock_guard<std::mutex> lock(mu_);
    return closed_ && items_.empty();
  }

 private:
  struct Delayed {
    T item;
    size_t countdown;  ///< Enqueue operations left before release.
  };

#ifndef TCQ_METRICS_DISABLED
  /// Books one enqueue call's outcome (lock held: items_.size() is exact).
  void RecordEnqueueLocked(size_t accepted, size_t rejected) {
    queue_internal::EdgeMetrics& m = queue_internal::EdgeMetrics::Get();
    if (accepted > 0) m.enqueued->Add(accepted);
    if (rejected > 0) m.rejected->Add(rejected);
    m.depth->Record(items_.size());
  }
#endif

  /// Ages the held-back elements — "held for N later enqueues" counts the
  /// current enqueue, so an element delayed now must survive at least
  /// until the next one. Expired elements release at the back, ignoring
  /// capacity (the documented overshoot). Returns the number released.
  size_t ReleaseExpiredLocked() {
    size_t added = 0;
    for (auto it = delayed_.begin(); it != delayed_.end();) {
      if (--it->countdown == 0) {
        items_.push_back(std::move(it->item));
        ++added;
        it = delayed_.erase(it);
      } else {
        ++it;
      }
    }
    return added;
  }

  /// Core of Enqueue/EnqueueBatch for one element, called with the lock
  /// held (may release it while waiting for space). *added accumulates
  /// the number of elements made visible to consumers, for notification
  /// after unlock. Returns false when the element was not inserted.
  ///
  /// Takes the element by rvalue reference and only moves from it at the
  /// actual insertion/delay point, AFTER the closed and capacity gates:
  /// a rejected element is left intact in the caller, which is what lets
  /// EnqueueBatch honor its retryable-suffix contract for move-only or
  /// move-invalidating payloads (e.g. Tuple).
  bool EnqueueOneLocked(T&& item, std::unique_lock<std::mutex>* lock,
                        size_t* added) {
    if (closed_) return false;
    // Age countdowns once per element, BEFORE the capacity gate, so the
    // fresh element is admitted against the post-release size. (An
    // element rejected below still counts as one enqueue operation for
    // delay aging: the operation reached the queue.)
    *added += ReleaseExpiredLocked();
    // Capacity recheck loop: a blocking producer woken with space must
    // re-test, since delayed releases — its own aging above, or another
    // producer's while it waited — may have re-filled the queue.
    while (items_.size() >= options_.capacity) {
      if (options_.enqueue == QueueEnd::kNonBlocking) return false;
      TCQ_METRIC(queue_internal::EdgeMetrics::Get().producer_blocks->Add(1));
      // About to sleep: wake consumers for anything already made
      // visible (delayed releases, earlier batch elements) — they are
      // what will free up space. Holding the notifications until the
      // post-unlock NotifyEnqueued would deadlock a full queue whose
      // only consumer is blocked on not_empty_.
      if (*added > 0) {
        not_empty_.notify_all();
        if (options_.waker != nullptr) options_.waker->Wake();
        *added = 0;
      }
      not_full_.wait(*lock, [&] {
        return items_.size() < options_.capacity || closed_;
      });
      if (closed_) return false;
    }
    QueueFaultDecision fault;
    if (options_.faults != nullptr && options_.faults->on_enqueue) {
      fault = options_.faults->on_enqueue();
    }
    switch (fault.action) {
      case QueueFaultDecision::Action::kDrop:
        // The producer believes the element was delivered.
        ++fault_drops_;
        break;
      case QueueFaultDecision::Action::kDelay:
        delayed_.push_back(
            Delayed{std::move(item), fault.arg == 0 ? 1 : fault.arg});
        break;
      case QueueFaultDecision::Action::kReorder:
        items_.insert(items_.begin() +
                          static_cast<ptrdiff_t>(fault.arg %
                                                 (items_.size() + 1)),
                      std::move(item));
        ++(*added);
        break;
      case QueueFaultDecision::Action::kNone:
        items_.push_back(std::move(item));
        ++(*added);
        break;
    }
    return true;
  }

  /// Blocks (in blocking-dequeue mode) until an element is present or the
  /// queue closes. Returns true when at least one element is available.
  /// Flushes pending not_full_ notifications (from kDrop faults) before
  /// sleeping: the blocked producers they would wake are what will
  /// produce the element this consumer is about to wait for.
  bool WaitForElementLocked(std::unique_lock<std::mutex>* lock,
                            size_t* removed) {
    if (!items_.empty()) return true;
    if (options_.dequeue == QueueEnd::kNonBlocking) return false;
    if (*removed > 0) {
      not_full_.notify_all();
      *removed = 0;
    }
    if (!closed_) {
      TCQ_METRIC(queue_internal::EdgeMetrics::Get().consumer_blocks->Add(1));
    }
    not_empty_.wait(*lock, [&] { return !items_.empty() || closed_; });
    return !items_.empty();  // Empty here means closed and drained.
  }

  /// Removes one element under the lock, consulting the dequeue fault
  /// hook. Returns nullopt with *stop=false when the element was a kDrop
  /// casualty (caller should try again if it still wants one), and
  /// nullopt with *stop=true when a kDelay fault says to pretend the
  /// queue is empty (non-blocking mode only — the blocking contract
  /// promises an element once one is present).
  std::optional<T> DequeueOneLocked(size_t* removed, bool* stop) {
    QueueFaultDecision fault;
    if (options_.faults != nullptr && options_.faults->on_dequeue) {
      fault = options_.faults->on_dequeue();
    }
    if (fault.action == QueueFaultDecision::Action::kDrop) {
      items_.pop_front();
      ++fault_drops_;
      ++(*removed);
      return std::nullopt;  // The consumer transparently gets the next one.
    }
    if (fault.action == QueueFaultDecision::Action::kDelay &&
        options_.dequeue == QueueEnd::kNonBlocking) {
      *stop = true;
      return std::nullopt;
    }
    size_t idx = 0;
    if (fault.action == QueueFaultDecision::Action::kReorder) {
      idx = fault.arg % items_.size();
    }
    std::optional<T> out = std::move(items_[idx]);
    items_.erase(items_.begin() + static_cast<ptrdiff_t>(idx));
    ++(*removed);
    return out;
  }

  void NotifyEnqueued(size_t added) {
    if (added > 1) {
      not_empty_.notify_all();
    } else if (added == 1) {
      not_empty_.notify_one();
    }
    if (added > 0 && options_.waker != nullptr) options_.waker->Wake();
  }

  void NotifyDequeued(size_t removed) {
    if (removed > 1) {
      not_full_.notify_all();
    } else if (removed == 1) {
      not_full_.notify_one();
    }
  }

  const QueueOptions options_;
  mutable std::mutex mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<T> items_;
  std::deque<Delayed> delayed_;
  size_t fault_drops_ = 0;
  bool closed_ = false;
};

/// Convenience constructors for the paper's three queue flavors.
inline QueueOptions PullQueueOptions(size_t capacity = 1024) {
  return QueueOptions{capacity, QueueEnd::kBlocking, QueueEnd::kBlocking,
                      nullptr, nullptr};
}
inline QueueOptions PushQueueOptions(size_t capacity = 1024) {
  return QueueOptions{capacity, QueueEnd::kNonBlocking,
                      QueueEnd::kNonBlocking, nullptr, nullptr};
}
inline QueueOptions ExchangeQueueOptions(size_t capacity = 1024) {
  return QueueOptions{capacity, QueueEnd::kNonBlocking, QueueEnd::kBlocking,
                      nullptr, nullptr};
}

}  // namespace tcq

#endif  // TCQ_FJORDS_QUEUE_H_
