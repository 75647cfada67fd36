#include "modules/query_index.h"

#include <algorithm>

#include "common/logging.h"

namespace tcq {

void QueryIndex::Add(size_t slot, std::span<const FactorPlan> factors) {
  if (factors.empty()) return;
  if (slot >= slots_.size()) slots_.resize(slot + 1);
  Slot& s = slots_[slot];
  for (const FactorPlan& f : factors) {
    if (f.kind == FactorPlan::Kind::kResidual) {
      TCQ_CHECK(f.bound != nullptr) << "residual factor is not bound";
      s.residuals.push_back(f.bound);
      if (residual_slots_.size_bits() <= slot) residual_slots_.Resize(slot + 1);
      residual_slots_.Set(slot);
      continue;
    }
    TCQ_CHECK(f.kind == FactorPlan::Kind::kGrouped) << "join factor in index";
    auto it = std::find_if(
        columns_.begin(), columns_.end(),
        [&](const Column& c) { return c.column == f.column; });
    if (it == columns_.end()) {
      // Classification gives a grouped constant its column's type.
      columns_.push_back(Column{f.column, GroupedFilter(f.constant.type())});
      it = columns_.end() - 1;
    }
    it->filter.AddPredicate(static_cast<QueryId>(slot), f.op, f.constant);
    s.columns.push_back(static_cast<uint32_t>(it - columns_.begin()));
  }
}

void QueryIndex::Remove(size_t slot) {
  if (slot >= slots_.size()) return;
  Slot& s = slots_[slot];
  for (const uint32_t c : s.columns) {
    columns_[c].filter.RemoveQuery(static_cast<QueryId>(slot));
  }
  s.columns.clear();
  s.residuals.clear();
  if (slot < residual_slots_.size_bits()) residual_slots_.Clear(slot);
}

void QueryIndex::Narrow(const Tuple& t, SmallBitset* candidates) const {
  if (candidates->size_bits() < slots_.size()) {
    candidates->Resize(slots_.size());
  }
  for (const Column& c : columns_) {
    if (candidates->None()) return;
    c.filter.Apply(t.cell(c.column), candidates);
  }
  residual_slots_.ForEachSet([&](size_t slot) {
    if (!candidates->Test(slot)) return;
    for (const ExprPtr& e : slots_[slot].residuals) {
      const Value keep = e->Eval(t);
      if (keep.is_null() || !keep.bool_value()) {
        candidates->Clear(slot);
        return;
      }
    }
  });
}

}  // namespace tcq
