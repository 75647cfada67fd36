#include "ingress/wrapper.h"

#include <algorithm>

#include "common/logging.h"
#include "spool/spool.h"

namespace tcq {

SourceModule::SourceModule(std::string name,
                           std::unique_ptr<TupleSource> source,
                           TupleQueuePtr out)
    : SourceModule(std::move(name), std::move(source), std::move(out),
                   Options()) {}

SourceModule::SourceModule(std::string name,
                           std::unique_ptr<TupleSource> source,
                           TupleQueuePtr out, Options options)
    : FjordModule(std::move(name)),
      source_(std::move(source)),
      out_(std::move(out)),
      options_(options) {
  TCQ_CHECK(source_ != nullptr && out_ != nullptr);
}

FjordModule::StepResult SourceModule::Step(size_t max_tuples) {
  if (done_) return StepResult::kDone;
  if (stall_remaining_ > 0) {
    --stall_remaining_;
    return StepResult::kIdle;  // Mid-stall: remote source is silent.
  }
  const size_t budget = std::min(max_tuples, options_.tuples_per_step);
  // Pull fresh tuples behind any carried-over backlog, then offer the
  // whole batch to the output edge in one EnqueueBatch (one lock, one
  // notification). A rejected suffix (full non-blocking edge) stays in
  // carry_ and is retried next quantum instead of being dropped.
  while (!exhausted_ && carry_.size() < budget) {
    auto t = source_->Next();
    if (!t.has_value()) {
      exhausted_ = true;
      break;
    }
    carry_.push_back(std::move(*t));
  }
  size_t produced = 0;
  if (!carry_.empty()) {
    produced = out_->EnqueueBatch(std::move(carry_));
    produced_ += produced;
    if (!carry_.empty() && out_->closed()) {
      carry_.clear();  // Downstream gave up; the backlog has no taker.
    }
  }
  if (exhausted_ && carry_.empty()) {
    out_->Close();
    done_ = true;
    return produced > 0 ? StepResult::kDidWork : StepResult::kDone;
  }
  if (options_.stall_every > 0) {
    if (++steps_since_stall_ >= options_.stall_every) {
      steps_since_stall_ = 0;
      stall_remaining_ = options_.stall_for;
    }
  }
  return produced > 0 ? StepResult::kDidWork : StepResult::kIdle;
}

void ReorderBuffer::Offer(Tuple t, std::vector<Tuple>* released) {
  const Timestamp ts = t.timestamp();
  if (ts > raw_) raw_ = ts;
  if (max_disorder_ == 0 && buffer_.empty()) {
    // Classic in-order path: nothing can overtake this tuple.
    released->push_back(std::move(t));
    return;
  }
  // Stable ordered insert: equal timestamps keep arrival order, so the
  // release sequence is the stable timestamp sort of the arrivals.
  if (buffer_.empty() || buffer_.back().timestamp() <= ts) {
    buffer_.push_back(std::move(t));
  } else {
    const auto pos = std::upper_bound(
        buffer_.begin(), buffer_.end(), ts,
        [](Timestamp v, const Tuple& u) { return v < u.timestamp(); });
    buffer_.insert(pos, std::move(t));
  }
  // Release everything the bound proves safe. The guard avoids signed
  // underflow when raw_ is still near kMinTimestamp.
  if (raw_ >= kMinTimestamp + max_disorder_) {
    ReleaseThrough(raw_ - max_disorder_, released);
  }
}

void ReorderBuffer::Punctuate(Timestamp ts, std::vector<Tuple>* released) {
  if (ts > raw_) raw_ = ts;
  ReleaseThrough(ts, released);
}

void ReorderBuffer::Flush(std::vector<Tuple>* released) {
  for (Tuple& t : buffer_) released->push_back(std::move(t));
  buffer_.clear();
}

void ReorderBuffer::ReleaseThrough(Timestamp ts,
                                   std::vector<Tuple>* released) {
  while (!buffer_.empty() && buffer_.front().timestamp() <= ts) {
    released->push_back(std::move(buffer_.front()));
    buffer_.pop_front();
  }
}

Archive::Archive(Timestamp retention_span)
    : retention_span_(retention_span) {
  TCQ_CHECK(retention_span_ > 0);
}

void Archive::AttachSpool(Spool* spool, std::string key,
                          size_t resident_limit) {
  TCQ_CHECK(spool != nullptr);
  TCQ_CHECK(resident_limit > 0) << "archive needs a resident tail";
  TCQ_CHECK(!hook_) << "spool already attached";
  hook_ = std::make_unique<SpoolHook>();
  hook_->spool = spool;
  hook_->key = std::move(key);
  hook_->resident_limit = resident_limit;
  // Adopt history already on disk (server restart): it is by definition
  // older than anything this process will append.
  hook_->spooled = spool->records(hook_->key);
  hook_->frontier = spool->main_frontier(hook_->key);
  TCQ_CHECK(tuples_.empty() ||
            tuples_.front().timestamp() >= hook_->frontier)
      << "spooled history must predate resident tuples";
  DemoteOverflow();
}

void Archive::TrimSpan() {
  if (retention_span_ == kMaxTimestamp) return;
  const Timestamp cutoff = max_ts_ - retention_span_ + 1;
  while (!tuples_.empty() && tuples_.front().timestamp() < cutoff) {
    PopFront();
  }
  if (cutoff <= floor_) return;
  // The floor gives exact logical retention; physical segment drops are
  // free to lag at whole-segment granularity.
  floor_ = cutoff;
  if (hook_ && hook_->spooled > 0) {
    TCQ_CHECK(hook_->spool->EvictBefore(hook_->key, cutoff).ok());
    hook_->spooled = hook_->spool->records(hook_->key);
  }
}

void Archive::PopFront() {
  resident_bytes_ -= static_cast<int64_t>(tuples_.front().ApproxBytes());
  tuples_.pop_front();
}

void Archive::DemoteFront() {
  const Tuple& victim = tuples_.front();
  TCQ_CHECK(hook_->spool->Append(hook_->key, victim).ok())
      << "spool demotion failed";
  hook_->frontier = std::max(hook_->frontier, victim.timestamp());
  ++hook_->spooled;
  PopFront();
}

void Archive::DemoteOverflow() {
  while (tuples_.size() > hook_->resident_limit) DemoteFront();
}

void Archive::Append(const Tuple& t) {
  TCQ_CHECK(tuples_.empty() || t.timestamp() >= tuples_.back().timestamp())
      << "archive requires timestamp-ordered appends";
  tuples_.push_back(t);
  resident_bytes_ += static_cast<int64_t>(t.ApproxBytes());
  if (t.timestamp() > max_ts_) max_ts_ = t.timestamp();
  if (retention_span_ != kMaxTimestamp) TrimSpan();
  if (hook_) DemoteOverflow();
}

std::deque<Tuple>::const_iterator Archive::LowerBound(Timestamp lo) const {
  return std::lower_bound(
      tuples_.begin(), tuples_.end(), lo,
      [](const Tuple& t, Timestamp ts) { return t.timestamp() < ts; });
}

TupleVector Archive::Scan(Timestamp lo, Timestamp hi) const {
  TupleVector out;
  ScanApply(lo, hi, [&](const Tuple& t) { out.push_back(t); });
  return out;
}

void Archive::InsertOrdered(const Tuple& t) {
  if (t.timestamp() < floor_) return;  // Expired straggler.
  NoteRewrite(t.timestamp());
  if (hook_ && hook_->spooled > 0) {
    // A straggler older than every resident tuple (or, with none resident,
    // older than the newest spooled one) belongs in the spool's late run,
    // which stitches it to the exact upper-bound position the unsplit
    // deque would have used (every tuple with ts <= its own is already
    // spooled, every resident one is strictly newer).
    if (tuples_.empty() ? t.timestamp() < hook_->frontier
                        : t.timestamp() < tuples_.front().timestamp()) {
      TCQ_CHECK(hook_->spool->Append(hook_->key, t).ok())
          << "spool late insert failed";
      hook_->frontier = std::max(hook_->frontier, t.timestamp());
      ++hook_->spooled;
      return;
    }
  }
  if (tuples_.empty() || t.timestamp() >= tuples_.back().timestamp()) {
    Append(t);
    return;
  }
  const auto pos = std::upper_bound(
      tuples_.begin(), tuples_.end(), t.timestamp(),
      [](Timestamp ts, const Tuple& u) { return ts < u.timestamp(); });
  tuples_.insert(pos, t);
  resident_bytes_ += static_cast<int64_t>(t.ApproxBytes());
  // max_ts_ unchanged (the straggler is older by definition); retention
  // may still discard it immediately when it falls outside the span.
  if (retention_span_ != kMaxTimestamp) TrimSpan();
  if (hook_) DemoteOverflow();
}

std::shared_ptr<Timestamp> Archive::WatchRewrites() const {
  auto mark = std::make_shared<Timestamp>(kMaxTimestamp);
  rewrite_marks_.push_back(mark);
  return mark;
}

void Archive::NoteRewrite(Timestamp ts) {
  std::erase_if(rewrite_marks_, [ts](const std::weak_ptr<Timestamp>& weak) {
    const std::shared_ptr<Timestamp> mark = weak.lock();
    if (mark != nullptr) *mark = std::min(*mark, ts);
    return mark == nullptr;
  });
}

bool Archive::CancelMatching(const Tuple& t) {
  // Scan the timestamp-equal range newest-first so a duplicate payload
  // cancels its most recent assertion.
  auto lo = LowerBound(t.timestamp());
  auto hi = std::upper_bound(
      tuples_.begin(), tuples_.end(), t.timestamp(),
      [](Timestamp ts, const Tuple& u) { return ts < u.timestamp(); });
  for (auto it = hi; it != lo;) {
    --it;
    if (it->PayloadEquals(t)) {
      resident_bytes_ -= static_cast<int64_t>(it->ApproxBytes());
      tuples_.erase(it);
      NoteRewrite(t.timestamp());
      return true;
    }
  }
  // Resident misses fall through to demoted history: every spooled record
  // is older than every resident one, so checking resident first keeps
  // the newest-match contract.
  if (hook_ && hook_->spooled > 0 && t.timestamp() <= hook_->frontier &&
      t.timestamp() >= floor_) {
    auto cancelled = hook_->spool->Cancel(hook_->key, t);
    TCQ_CHECK(cancelled.ok()) << "spool cancel failed: "
                              << cancelled.status();
    if (*cancelled) {
      --hook_->spooled;
      NoteRewrite(t.timestamp());
      return true;
    }
  }
  return false;
}

void Archive::EvictBefore(Timestamp ts) {
  // With a spool, demote rather than free: the tuples leave RAM but stay
  // scannable.
  if (!hook_) floor_ = std::max(floor_, ts);
  while (!tuples_.empty() && tuples_.front().timestamp() < ts) {
    if (hook_) {
      DemoteFront();
    } else {
      PopFront();
    }
  }
}

void Archive::ScanSpool(Timestamp lo, Timestamp hi,
                        const std::function<bool(const Tuple&)>& fn) const {
  TCQ_CHECK(hook_->spool->Scan(hook_->key, lo, hi, fn).ok())
      << "spool scan failed";
}

Timestamp Archive::ScanChunk(Timestamp lo, Timestamp hi, size_t max_records,
                             TupleVector* out) const {
  if (hook_) {
    if (lo < floor_) lo = floor_;
    if (hook_->spooled > 0 && lo <= hook_->frontier) {
      auto next = hook_->spool->ScanChunk(hook_->key, lo, hi, max_records,
                                          out);
      TCQ_CHECK(next.ok()) << "spool scan failed: " << next.status();
      // More spool to go: stop here; the resident region waits its turn.
      if (*next != kMaxTimestamp) return *next;
      // Spool region exhausted: continue into the resident tail below,
      // same chunk — an equal-timestamp run straddling the boundary must
      // not split.
    }
  }
  for (auto it = LowerBound(lo); it != tuples_.end(); ++it) {
    if (it->timestamp() > hi) break;
    if (out->size() >= max_records && !out->empty() &&
        it->timestamp() != out->back().timestamp()) {
      return it->timestamp();
    }
    out->push_back(*it);
  }
  return kMaxTimestamp;
}

Timestamp Archive::min_timestamp() const {
  if (hook_ && hook_->spooled > 0) {
    return std::max(floor_,
                    hook_->spool->min_timestamp(hook_->key));
  }
  return tuples_.empty() ? kMaxTimestamp : tuples_.front().timestamp();
}

Timestamp Archive::max_timestamp() const {
  if (!tuples_.empty()) return tuples_.back().timestamp();
  return (hook_ && hook_->spooled > 0) ? hook_->frontier : kMinTimestamp;
}

}  // namespace tcq
