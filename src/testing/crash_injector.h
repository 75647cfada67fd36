#ifndef TCQ_TESTING_CRASH_INJECTOR_H_
#define TCQ_TESTING_CRASH_INJECTOR_H_

#include <cstdint>
#include <vector>

#include "cacq/sharded_engine.h"
#include "testing/fault_injector.h"

namespace tcq {

/// Deterministic crash-recovery driver for the sharded CACQ engine's
/// process-pair HA (DESIGN.md §13): scripts KillShard/FailoverShard pairs
/// against feed-slice boundaries. The schedule derives from a
/// FaultInjector seed, so one seed reproduces the entire crash pattern —
/// and the failover-equivalence suite can assert byte-identical results
/// across schedules.
class CrashInjector {
 public:
  struct Options {
    /// Crashes to script across the run. Each lands on a distinct shard
    /// at a distinct slice (FaultInjector::MakeKillSchedule), so it must
    /// be <= min(num_shards, horizon).
    size_t kills = 1;
    /// Feed-slice horizon the kills are drawn from, [1, horizon].
    uint64_t horizon = 10;
  };

  CrashInjector(uint64_t seed, size_t num_shards, Options options);

  CrashInjector(const CrashInjector&) = delete;
  CrashInjector& operator=(const CrashInjector&) = delete;

  /// Kills `shard` and immediately fails it over: requests the kill,
  /// waits for the worker to exit at its task boundary, then promotes the
  /// standby (blocking until recovery completes). The engine must be
  /// running with Options::num_replicas > 0. Crashes the test (CHECK) on
  /// any recovery failure — recovery is the property under test.
  static void CrashAndRecover(ShardedEngine* engine, size_t shard);

  /// Fires every scripted kill scheduled at `slice` (call once per feed
  /// slice, slices counted from 1). Returns how many fired.
  size_t MaybeCrash(ShardedEngine* engine, uint64_t slice);

  const std::vector<FaultInjector::NodeKill>& schedule() const {
    return schedule_;
  }
  uint64_t crashes_fired() const { return fired_; }

 private:
  FaultInjector injector_;
  std::vector<FaultInjector::NodeKill> schedule_;
  size_t next_ = 0;  ///< First schedule entry not yet fired.
  uint64_t fired_ = 0;
};

}  // namespace tcq

#endif  // TCQ_TESTING_CRASH_INJECTOR_H_
