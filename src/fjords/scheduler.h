#ifndef TCQ_FJORDS_SCHEDULER_H_
#define TCQ_FJORDS_SCHEDULER_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "fjords/module.h"
#include "fjords/waker.h"

namespace tcq {

/// An Execution Object (§4.2.2): one system thread providing execution
/// context for a set of non-preemptive Dispatch Units (FjordModules),
/// scheduled round-robin. Modules can be added while the EO runs (dynamic
/// fold-in of fresh query plans).
///
/// Idling: when a full round finds no work, the EO parks on its Waker
/// until a producer wakes it or idle_sleep_micros elapses. Producers wake
/// it through the queues they feed (QueueOptions::waker) or by calling
/// waker().Wake(); AddModule and Stop wake it themselves. A queue with no
/// waker still gets polled at the idle_sleep_micros bound.
class ExecutionObject {
 public:
  struct Options {
    /// Tuples each module may process per quantum (the batching knob of
    /// §4.3 at the scheduler level).
    size_t quantum = 64;
    /// Longest park, in microseconds, when a full round finds no work. A
    /// wake ends the park early; this bound only matters without one.
    size_t idle_sleep_micros = 50;
  };

  explicit ExecutionObject(std::string name);
  /// `waker` is the one this EO parks on; null makes a private one. Pass a
  /// shared waker when the EO may be replaced while producers keep waking
  /// it (a failed-over shard's fresh EO inherits the dead one's waker).
  ExecutionObject(std::string name, Options options,
                  std::shared_ptr<Waker> waker = nullptr);
  ~ExecutionObject();

  ExecutionObject(const ExecutionObject&) = delete;
  ExecutionObject& operator=(const ExecutionObject&) = delete;

  const std::string& name() const { return name_; }

  /// Registers a module. Safe to call before Start() or while running,
  /// from any thread.
  void AddModule(FjordModulePtr module);

  /// Launches the scheduling thread. Checks that the EO is not already
  /// running. Start/Stop/Join serialize on an internal lifecycle mutex,
  /// so concurrent callers see a consistent thread state.
  void Start();

  /// Requests shutdown and joins the thread. Idempotent and safe to call
  /// concurrently from multiple threads.
  void Stop();

  /// Blocks until every registered module reports kDone, then stops.
  void Join();

  /// Runs the scheduling loop on the caller's thread until all modules are
  /// done (single-threaded mode; used by tests and deterministic benches).
  void RunToCompletion();

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// What this EO parks on while idle; wake it after making work visible.
  Waker& waker() { return *waker_; }

  /// Total Step() calls that returned kDidWork (scheduling statistic).
  uint64_t work_quanta() const {
    return work_quanta_.load(std::memory_order_relaxed);
  }

 private:
  /// One pass over all live modules. Returns true if any module did work;
  /// sets *all_done if every module has finished.
  bool RunRound(bool* all_done);
  void ThreadMain();
  void DrainPending();

  /// Parks until woken or the idle bound elapses (`seen` is the waker
  /// sequence read before the round that found no work).
  void Park(uint64_t seen);

  const std::string name_;
  const Options options_;
  const std::shared_ptr<Waker> waker_;

  std::mutex pending_mu_;
  std::vector<FjordModulePtr> pending_;

  std::vector<FjordModulePtr> modules_;  // Owned by the scheduler thread.
  std::vector<bool> done_;

  std::mutex lifecycle_mu_;  ///< Serializes Start/Stop (guards thread_).
  std::thread thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};
  std::atomic<bool> all_done_{false};
  std::atomic<uint64_t> work_quanta_{0};
  /// Modules registered but not yet kDone — includes still-pending ones,
  /// so completion checks cannot race a concurrent AddModule: the count
  /// rises in AddModule before the module is visible anywhere else.
  std::atomic<uint64_t> incomplete_{0};
  std::atomic<uint64_t> total_added_{0};
};

}  // namespace tcq

#endif  // TCQ_FJORDS_SCHEDULER_H_
