#include "eddy/policy.h"

#include <algorithm>

#include "common/logging.h"

namespace tcq {

void RoutingPolicy::Observe(size_t op, bool passed,
                            std::vector<EddyOpStats>* stats) {
  // Default ticket bookkeeping (used even by policies that ignore it, so
  // that switching policies mid-run starts from live statistics).
  EddyOpStats& s = (*stats)[op];
  s.tickets += 1.0;
  if (passed) s.tickets -= 1.0;
  if (s.tickets < 0.0) s.tickets = 0.0;
}

size_t FixedPolicy::Choose(const std::vector<size_t>& eligible,
                           const std::vector<EddyOpStats>& stats,
                           const std::vector<double>& cost_hints) {
  (void)stats;
  (void)cost_hints;
  TCQ_DCHECK(!eligible.empty());
  size_t best = eligible[0];
  size_t best_rank = SIZE_MAX;
  for (size_t op : eligible) {
    const size_t rank = op < priority_.size() ? priority_[op] : op;
    if (rank < best_rank) {
      best_rank = rank;
      best = op;
    }
  }
  return best;
}

size_t RandomPolicy::Choose(const std::vector<size_t>& eligible,
                            const std::vector<EddyOpStats>& stats,
                            const std::vector<double>& cost_hints) {
  (void)stats;
  (void)cost_hints;
  TCQ_DCHECK(!eligible.empty());
  return eligible[rng_.NextBounded(eligible.size())];
}

size_t LotteryPolicy::Choose(const std::vector<size_t>& eligible,
                             const std::vector<EddyOpStats>& stats,
                             const std::vector<double>& cost_hints) {
  TCQ_DCHECK(!eligible.empty());
  ++decisions_;
  // Weight = (tickets + exploration floor) / cost. Selective (ticket-rich)
  // and cheap operators win more lotteries.
  double total = 0.0;
  std::vector<double>& weights = weights_scratch_;
  weights.assign(eligible.size(), 0.0);
  for (size_t i = 0; i < eligible.size(); ++i) {
    const size_t op = eligible[i];
    const double cost = std::max(cost_hints[op], 1e-9);
    weights[i] = (stats[op].tickets + options_.exploration) / cost;
    total += weights[i];
  }
  double draw = rng_.NextDouble() * total;
  for (size_t i = 0; i < eligible.size(); ++i) {
    draw -= weights[i];
    if (draw <= 0.0) return eligible[i];
  }
  return eligible.back();
}

void LotteryPolicy::Observe(size_t op, bool passed,
                            std::vector<EddyOpStats>* stats) {
  EddyOpStats& s = (*stats)[op];
  s.tickets += 1.0;
  if (passed) s.tickets -= 1.0;
  if (s.tickets < 0.0) s.tickets = 0.0;
  if (s.tickets > options_.max_tickets) s.tickets = options_.max_tickets;
  // Once per multiple of decay_interval the decision count has passed:
  // decisions served from a cache, and fixed-route visits, observe
  // without deciding, so several calls may see the count on one multiple.
  if (options_.decay_interval > 0) {
    const uint64_t interval = decisions_ / options_.decay_interval;
    for (; decayed_ < interval; ++decayed_) {
      for (EddyOpStats& t : *stats) t.tickets *= options_.decay;
    }
  }
}

std::unique_ptr<RoutingPolicy> MakePolicy(const std::string& name,
                                          uint64_t seed) {
  if (name == "random") return std::make_unique<RandomPolicy>(seed);
  if (name == "lottery") return std::make_unique<LotteryPolicy>(seed);
  if (name == "fixed") {
    return std::make_unique<FixedPolicy>(std::vector<size_t>{});
  }
  TCQ_LOG(Warn) << "unknown policy '" << name << "', using lottery";
  return std::make_unique<LotteryPolicy>(seed);
}

}  // namespace tcq
