#ifndef TCQ_EDDY_OPERATOR_H_
#define TCQ_EDDY_OPERATOR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/bitset.h"
#include "eddy/routed_tuple.h"
#include "telemetry/metrics.h"

namespace tcq {

/// Outcome of routing one tuple to one operator.
struct EddyOpResult {
  /// The input tuple survives and continues routing (true for filters that
  /// pass, for SteM builds, etc.). When false the input is consumed: a
  /// filter dropped it, or a probe absorbed it (its matches live on).
  bool pass = false;
  /// Newly generated tuples (join matches). Each re-enters the Eddy; the
  /// Eddy recomputes their done-sets from their source composition.
  std::vector<RoutedTuple> outputs;
};

/// A module connected to an Eddy (§2.2). Operators are commutative
/// dataflow steps — selections, SteM builds/probes, grouped filters —
/// that the Eddy is free to order per tuple.
class EddyOperator {
 public:
  explicit EddyOperator(std::string name) : name_(std::move(name)) {}
  virtual ~EddyOperator() = default;

  EddyOperator(const EddyOperator&) = delete;
  EddyOperator& operator=(const EddyOperator&) = delete;

  const std::string& name() const { return name_; }

  /// True when this operator applies to tuples composed of exactly the
  /// given source set. A tuple completes once every applicable operator is
  /// in its done-set.
  virtual bool Eligible(const SmallBitset& sources) const = 0;

  /// Processes one tuple. Must be deterministic given operator state.
  virtual EddyOpResult Process(RoutedTuple& rt) = 0;

  /// Relative per-tuple cost hint (1 = cheap hash probe). Policies combine
  /// this with observed selectivity; synthetic-cost operators used by the
  /// adaptivity benchmarks override it.
  virtual double CostHint() const { return 1.0; }

  /// True for join probes (SteM probe, remote-index probe). A tuple visits
  /// exactly one join probe: after that visit all probe operators are
  /// marked done for it, and its match outputs (which have the probes
  /// cleared again) carry the remaining join work. Combined with
  /// arrival-sequence dedup this yields each join result exactly once,
  /// independent of routing order [MSHR02].
  virtual bool IsJoinProbe() const { return false; }

 private:
  std::string name_;
};

using EddyOperatorPtr = std::shared_ptr<EddyOperator>;

/// Per-operator routing statistics the Eddy maintains and policies read.
/// The counters are telemetry primitives (relaxed atomics), so snapshot
/// readers — KnobController, Server::SnapshotMetrics, the tcq.metrics
/// introspection stream — can observe them without synchronizing with
/// the routing thread; existing field-style call sites read through the
/// Counter's implicit conversion. `tickets` stays a plain double: it is
/// policy-private adaptivity state, mutated only on the routing thread.
struct EddyOpStats {
  Counter routed;    ///< Tuples routed to the operator.
  Counter passed;    ///< Inputs that survived (pass == true).
  Counter produced;  ///< New tuples generated.
  /// Lottery tickets [AH00]: credited on consumption, debited on return,
  /// decayed periodically so the policy tracks drift.
  double tickets = 1.0;
};

}  // namespace tcq

#endif  // TCQ_EDDY_OPERATOR_H_
