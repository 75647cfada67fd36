#ifndef TCQ_TESTING_FAULT_INJECTOR_H_
#define TCQ_TESTING_FAULT_INJECTOR_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/rng.h"
#include "fjords/queue.h"
#include "tuple/tuple.h"

namespace tcq {

/// Deterministic fault injection for the engine's "uncertain world" test
/// targets (§3, §4.2 of the paper). One FaultInjector owns a seeded
/// tcq::Rng; every fault source derived from it (queue hooks, stream
/// perturbations) draws from child generators seeded by the parent, so a
/// single seed reproduces the entire fault schedule —
/// the property the stress suite's reproducibility assertions rely on.
///
/// Every decision is appended to a trace (a compact human-readable code),
/// letting tests assert that two injectors with the same seed produced
/// byte-identical schedules.
class FaultInjector {
 public:
  explicit FaultInjector(uint64_t seed);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  // -- Fjord queues -------------------------------------------------------

  /// Per-operation fault probabilities for one end of a queue.
  struct QueueFaultProfile {
    double drop = 0.0;
    double delay = 0.0;
    double reorder = 0.0;
    /// Upper bound (inclusive) on the hold-back span of a kDelay.
    size_t max_delay = 4;
  };

  /// Hooks pluggable into QueueOptions::faults. Decisions are drawn from a
  /// dedicated child Rng under a hook-local mutex, so concurrent queue
  /// users observe the same decision SEQUENCE for a given seed (which
  /// operation receives which decision depends on thread interleaving;
  /// single-threaded drivers are fully deterministic). The returned hooks
  /// reference this injector: queues using them must not outlive it.
  std::shared_ptr<QueueFaultHooks> MakeQueueHooks(
      const QueueFaultProfile& enqueue, const QueueFaultProfile& dequeue);

  // -- Stream ingress -----------------------------------------------------

  /// Perturbations applied to an ordered tuple sequence before it is fed
  /// to Server::Push / PSoup::OnData.
  struct StreamFaultProfile {
    double duplicate = 0.0;  ///< Tuple delivered twice back-to-back.
    double late = 0.0;       ///< Timestamp pushed `late_by` behind.
    double swap = 0.0;       ///< Tuple swapped with its successor.
    Timestamp late_by = 5;
  };

  /// Returns `input` with duplicates / late timestamps / adjacent swaps
  /// injected per the profile. `ts_field` >= 0 rewrites that cell for late
  /// tuples (and keeps Tuple::timestamp() in sync); with ts_field < 0 only
  /// the tuple timestamp is rewritten. Deterministic in the seed.
  TupleVector Perturb(const TupleVector& input,
                      const StreamFaultProfile& profile, int ts_field);

  // -- Introspection ------------------------------------------------------

  /// All decisions drawn so far, in draw order, as compact codes (e.g.
  /// "enq:drop", "stream:late@7"). Thread-safe snapshot.
  std::vector<std::string> Trace() const;
  size_t TraceSize() const;

 private:
  struct HookState;  // Shared state behind one MakeQueueHooks result.

  void Record(std::string event);

  mutable std::mutex mu_;
  Rng rng_;
  std::vector<std::string> trace_;
  /// Keeps hook state alive as long as the injector (queues hold weak
  /// copies through the std::function captures' shared_ptr).
  std::vector<std::shared_ptr<HookState>> hooks_;
};

}  // namespace tcq

#endif  // TCQ_TESTING_FAULT_INJECTOR_H_
