#include "stem/stem.h"

#include "common/logging.h"

namespace tcq {

namespace stem_internal {

AggregateMetrics& AggregateMetrics::Get() {
  static AggregateMetrics* m = [] {
    MetricRegistry& reg = MetricRegistry::Global();
    auto* agg = new AggregateMetrics();
    agg->inserts = reg.GetCounter("tcq.stem.inserts");
    agg->probes = reg.GetCounter("tcq.stem.probes");
    agg->matches = reg.GetCounter("tcq.stem.matches");
    agg->evictions = reg.GetCounter("tcq.stem.evictions");
    agg->scanned = reg.GetCounter("tcq.stem.scanned");
    agg->resident_bytes = reg.GetGauge("tcq.stem.resident_bytes");
    return agg;
  }();
  return *m;
}

}  // namespace stem_internal

namespace {
/// Adjusts tcq.stem.resident_bytes (no-op under disabled metrics).
void TrackResidentBytes(int64_t delta) {
  TCQ_METRIC(stem_internal::AggregateMetrics::Get().resident_bytes->Add(
      delta));
  (void)delta;
}
}  // namespace

SteM::SteM(std::string name, SchemaPtr schema, int key_field)
    : name_(std::move(name)), schema_(std::move(schema)),
      key_field_(key_field) {
  TCQ_CHECK(schema_ != nullptr);
  TCQ_CHECK(key_field_ < static_cast<int>(schema_->num_fields()));
}

SteM::~SteM() {
  TrackResidentBytes(-resident_bytes_);  // Gauge hygiene.
}

void SteM::Insert(const Tuple& tuple, const SmallBitset& lineage) {
  TCQ_DCHECK(tuple.arity() == schema_->num_fields())
      << name_ << ": arity mismatch";
  if (tuple.retraction()) {
    // Retraction-cancel (DESIGN.md §15): delete the matching stored
    // assertion, whatever lineage it narrowed to, so future probes no
    // longer join against it. Unmatched retractions (assertion never
    // stored, already evicted, or already cancelled) are dropped —
    // counted by the ingress layer.
    if (key_field_ >= 0) {
      const Value& key = tuple.cell(static_cast<size_t>(key_field_));
      auto [b, end] = index_.equal_range(key);
      for (auto it = b; it != end; ++it) {
        const Entry* e = LiveAt(it->second);
        if (e != nullptr && e->tuple.PayloadEquals(tuple)) {
          Evict(entries_[static_cast<size_t>(it->second - base_id_)]);
          break;
        }
      }
    } else {
      for (Entry& e : entries_) {
        if (!e.dead && e.tuple.PayloadEquals(tuple)) {
          Evict(e);
          break;
        }
      }
    }
    CompactFront();
    return;
  }
  const uint64_t id = base_id_ + entries_.size();
  if (key_field_ >= 0) {
    index_.emplace(tuple.cell(static_cast<size_t>(key_field_)), id);
  }
  entries_.push_back(Entry{tuple, lineage, false});
  ++live_;
  const int64_t bytes = static_cast<int64_t>(tuple.ApproxBytes());
  resident_bytes_ += bytes;
  TrackResidentBytes(bytes);
  ++stats_.inserts;
  TCQ_METRIC(stem_internal::AggregateMetrics::Get().inserts->Add(1));
}

void SteM::CountProbe(uint64_t scanned) const {
  ++stats_.probes;
  stats_.scanned += scanned;
  TCQ_METRIC(stem_internal::AggregateMetrics::Get().probes->Add(1));
  TCQ_METRIC(stem_internal::AggregateMetrics::Get().scanned->Add(scanned));
}

void SteM::RecordMatches(uint64_t n) const {
  if (n == 0) return;
  stats_.matches += n;
  TCQ_METRIC(stem_internal::AggregateMetrics::Get().matches->Add(n));
}

void SteM::Kill(Entry& e) {
  e.dead = true;
  --live_;
  const int64_t bytes = static_cast<int64_t>(e.tuple.ApproxBytes());
  resident_bytes_ -= bytes;
  TrackResidentBytes(-bytes);
}

void SteM::Evict(Entry& e) {
  Kill(e);
  ++stats_.evictions;
  TCQ_METRIC(stem_internal::AggregateMetrics::Get().evictions->Add(1));
}

void SteM::CompactFront() {
  while (!entries_.empty() && entries_.front().dead) {
    // Remove the index entry of the departing id.
    if (key_field_ >= 0) {
      const Value& key =
          entries_.front().tuple.cell(static_cast<size_t>(key_field_));
      auto [b, end] = index_.equal_range(key);
      for (auto it = b; it != end;) {
        it = (it->second == base_id_) ? index_.erase(it) : std::next(it);
      }
    }
    entries_.pop_front();
    ++base_id_;
  }
}

size_t SteM::EvictBefore(Timestamp ts) {
  size_t n = 0;
  for (Entry& e : entries_) {
    if (e.dead || e.tuple.timestamp() >= ts) continue;
    Evict(e);
    ++n;
  }
  CompactFront();
  return n;
}

std::vector<SteM::ExtractedEntry> SteM::CopyAll() const {
  std::vector<ExtractedEntry> out;
  out.reserve(live_);
  for (const Entry& e : entries_) {
    if (!e.dead) out.push_back(ExtractedEntry{e.tuple, e.lineage});
  }
  return out;
}

void SteM::ClearAll() {
  for (Entry& e : entries_) {
    if (!e.dead) Kill(e);
  }
  CompactFront();
}

void SteM::ScrubQuery(size_t q) {
  for (Entry& e : entries_) {
    if (!e.dead && q < e.lineage.size_bits()) e.lineage.Clear(q);
  }
}

}  // namespace tcq
