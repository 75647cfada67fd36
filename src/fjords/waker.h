#ifndef TCQ_FJORDS_WAKER_H_
#define TCQ_FJORDS_WAKER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>

#include "telemetry/metrics.h"

namespace tcq {

/// The park/wake pairing between Fjord producers and the Execution Object
/// that consumes their queues (DESIGN.md §11). An idle EO parks on its
/// Waker instead of sleeping on a timer; every producer that makes work
/// visible calls Wake(), which ends the park.
///
/// Protocol: the consumer takes Snapshot() BEFORE the round that finds no
/// work, then calls Park(snapshot, bound). A Wake() anywhere after the
/// snapshot moves the sequence, so the park returns at once — no wake is
/// lost between "found nothing" and "went to sleep". Wake() notifies the
/// condition variable only while a consumer is actually parked: against a
/// busy consumer a producer pays one atomic increment and one load, never
/// a lock or a syscall. The bound keeps correctness independent of wakes
/// (a site that forgets to wake degrades to a timed poll).
///
/// Why no wake can be missed: Park publishes `parked_` and then reads
/// `seq_`; Wake bumps `seq_` and then reads `parked_` — all sequentially
/// consistent, so at least one side sees the other. If the parker saw the
/// old sequence, the producer sees it parked, takes `mu_` (which the
/// parker holds until the wait atomically releases it) and notifies.
class Waker {
 public:
  Waker() = default;
  Waker(const Waker&) = delete;
  Waker& operator=(const Waker&) = delete;

  /// Producer side: call after the work is visible (e.g. after the queue
  /// insert). Cheap when the consumer is not parked.
  void Wake() {
    seq_.fetch_add(1, std::memory_order_seq_cst);
    if (parked_.load(std::memory_order_seq_cst) == 0) return;
    { std::lock_guard<std::mutex> lock(mu_); }
    cv_.notify_all();
  }

  /// Consumer side: the sequence to hand to Park, read before looking for
  /// work.
  uint64_t Snapshot() const { return seq_.load(std::memory_order_seq_cst); }

  /// Consumer side: blocks until a Wake() after `seen` or until `bound`
  /// elapses. Returns true when a wake ended the park (including one that
  /// arrived before the call).
  bool Park(uint64_t seen, std::chrono::microseconds bound) {
    bool woken;
    {
      std::unique_lock<std::mutex> lock(mu_);
      parked_.fetch_add(1, std::memory_order_seq_cst);
      woken = cv_.wait_for(lock, bound, [&] {
        return seq_.load(std::memory_order_seq_cst) != seen;
      });
      parked_.fetch_sub(1, std::memory_order_seq_cst);
    }
    parks_.Add(1);
    if (woken) woken_parks_.Add(1);
    if (parks_metric_ != nullptr) {
      TCQ_METRIC(parks_metric_->Add(1));
      if (woken) TCQ_METRIC(woken_parks_metric_->Add(1));
    }
    return woken;
  }

  /// True while a consumer is parked (tests use it to wake a real park).
  bool parked() const { return parked_.load(std::memory_order_seq_cst) != 0; }

  /// Parks by this waker, and how many a wake (not the bound) ended.
  uint64_t parks() const { return parks_.value(); }
  uint64_t woken_parks() const { return woken_parks_.value(); }

  /// Mirrors the two park counts into registry counters as well (both
  /// non-null). Set before the consumer starts parking.
  void MirrorTo(Counter* parks, Counter* woken_parks) {
    parks_metric_ = parks;
    woken_parks_metric_ = woken_parks;
  }

 private:
  std::atomic<uint64_t> seq_{0};
  std::atomic<uint32_t> parked_{0};
  std::mutex mu_;
  std::condition_variable cv_;
  Counter parks_;
  Counter woken_parks_;
  Counter* parks_metric_ = nullptr;
  Counter* woken_parks_metric_ = nullptr;
};

}  // namespace tcq

#endif  // TCQ_FJORDS_WAKER_H_
