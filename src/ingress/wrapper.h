#ifndef TCQ_INGRESS_WRAPPER_H_
#define TCQ_INGRESS_WRAPPER_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/fifo.h"
#include "fjords/module.h"
#include "ingress/sources.h"

namespace tcq {

/// A streamer (§4.2.3): adapts a pull-style TupleSource into a Fjord
/// dataflow by producing into an output queue under scheduler control.
/// Stall behaviour models bursty or intermittently disconnected remote
/// sources — during a stall the module produces nothing, which is exactly
/// the situation Fjords' non-blocking queues must tolerate downstream.
class SourceModule : public FjordModule {
 public:
  struct Options {
    /// Max tuples produced per scheduling quantum (rate knob).
    size_t tuples_per_step = 64;
    /// After this many productive steps, stall... (0 = never stall).
    size_t stall_every = 0;
    /// ...for this many steps.
    size_t stall_for = 0;
  };

  SourceModule(std::string name, std::unique_ptr<TupleSource> source,
               TupleQueuePtr out);
  SourceModule(std::string name, std::unique_ptr<TupleSource> source,
               TupleQueuePtr out, Options options);

  StepResult Step(size_t max_tuples) override;

  uint64_t produced() const { return produced_; }

 private:
  std::unique_ptr<TupleSource> source_;
  TupleQueuePtr out_;
  Options options_;
  /// Tuples pulled from the source but not yet accepted by the output
  /// (non-blocking edge was full). Retried next quantum — a burst of
  /// backpressure delays tuples, it never loses them.
  std::vector<Tuple> carry_;
  uint64_t produced_ = 0;
  size_t steps_since_stall_ = 0;
  size_t stall_remaining_ = 0;
  bool exhausted_ = false;
  bool done_ = false;
};

/// What to do with an arrival whose timestamp is already below the safe
/// (released) watermark — i.e. later than the stream's declared disorder
/// bound (DESIGN.md §15).
enum class LatePolicy : uint8_t {
  kReject = 0,  ///< Refuse it (the classic hard-reject contract).
  kDrop = 1,    ///< Silently discard it, counting tcq.disorder.dropped.
  kIngestLate = 2,  ///< Ordered-insert into the archive; speculative
                    ///< queries revise, delayed queries see it only in
                    ///< windows not yet fired.
};

/// Bounded-disorder reorder buffer (§4 ingress wrappers; DESIGN.md §15):
/// holds arrivals whose timestamps may still be overtaken by earlier data,
/// and releases them in timestamp order once the raw high-water mark has
/// advanced past `ts + max_disorder`. With max_disorder == 0 every arrival
/// is released immediately (the classic in-order path, zero buffering).
///
/// Release rule: an arrival raising the raw watermark to M releases every
/// buffered tuple with timestamp <= M - max_disorder, in timestamp order
/// with ties in arrival order (stable). The release sequence is therefore
/// exactly the stable timestamp sort of the arrival sequence — the
/// foundation of the delayed-but-correct byte-identical-replay guarantee.
/// Punctuate(ts) is a heartbeat: the source asserts no future arrival has
/// timestamp <= ts, so everything buffered at or below ts flushes.
class ReorderBuffer {
 public:
  ReorderBuffer() = default;

  void set_max_disorder(Timestamp d) { max_disorder_ = d; }
  Timestamp max_disorder() const { return max_disorder_; }

  /// Accepts one stamped tuple and appends every tuple this arrival
  /// releases to `released`, in release (timestamp) order.
  void Offer(Tuple t, std::vector<Tuple>* released);

  /// Heartbeat punctuation: flushes buffered tuples with timestamp <= ts.
  void Punctuate(Timestamp ts, std::vector<Tuple>* released);

  /// Releases everything still buffered (stream close / final flush).
  void Flush(std::vector<Tuple>* released);

  /// Highest timestamp offered or punctuated so far.
  Timestamp raw_watermark() const { return raw_; }
  size_t buffered() const { return buffer_.size(); }

 private:
  void ReleaseThrough(Timestamp ts, std::vector<Tuple>* released);

  Timestamp max_disorder_ = 0;
  Timestamp raw_ = kMinTimestamp;
  /// Timestamp-ordered, ties in arrival order. A Fifo keeps its storage
  /// as tuples pass through; a straggler is inserted near the tail.
  Fifo<Tuple> buffer_;
};

class Spool;

/// The stream archive: retained history that has conceptually been
/// "spooled to disk in the background" (§1.1). Holds tuples in timestamp
/// order and serves window-driven scans — the "scanner operator driven by
/// window descriptors" of §4.2.3. Bounded by a retention span.
///
/// With AttachSpool the "conceptually" becomes literal (DESIGN.md §16):
/// only the newest `resident_limit` tuples stay in memory; older history
/// demotes to the spool's disk segments, and scans read the spool region
/// first, then the resident tail — reproducing the unsplit deque order
/// byte for byte. Without a spool every path below is exactly the legacy
/// in-memory archive (one null-pointer test on the hot append path).
class Archive {
 public:
  explicit Archive(Timestamp retention_span = kMaxTimestamp);

  /// Bounds resident memory: history beyond the newest `resident_limit`
  /// tuples demotes to `spool` under `key`. Adopts any records already
  /// spooled under the key (reopen), which must all be older than
  /// anything resident. Caller keeps `spool` alive past this archive.
  void AttachSpool(Spool* spool, std::string key, size_t resident_limit);

  /// Tuples held in memory (== size() when no spool is attached).
  size_t resident_size() const { return tuples_.size(); }
  /// Tuple::ApproxBytes summed over the tuples held in memory.
  int64_t resident_bytes() const { return resident_bytes_; }
  /// Live tuples demoted to the spool.
  size_t spooled_size() const { return hook_ ? hook_->spooled : 0; }

  void Append(const Tuple& t);

  /// Ordered insert for a beyond-bound straggler (LatePolicy::kIngestLate):
  /// places `t` at the upper bound of its timestamp so scans stay sorted.
  /// A straggler below floor() is dropped: that history is gone. Appending
  /// in-order data keeps using Append (O(1) and invariant-checked).
  void InsertOrdered(const Tuple& t);

  /// Removes the newest retained tuple whose payload (timestamp + cells)
  /// matches `t` — the archive half of retraction processing. Returns
  /// false when nothing matches (the assertion was never archived, already
  /// evicted, or already cancelled).
  bool CancelMatching(const Tuple& t);

  /// For a reader that keeps state over history it has already scanned:
  /// every InsertOrdered call and every matched CancelMatching lowers the
  /// returned mark to the timestamp it touched. The reader rescans when
  /// the mark falls inside what it holds, then resets it to kMaxTimestamp.
  /// The archive holds the mark weakly, so it lapses with the reader.
  std::shared_ptr<Timestamp> WatchRewrites() const;

  /// All retained tuples with timestamp in [lo, hi], in order.
  TupleVector Scan(Timestamp lo, Timestamp hi) const;

  /// Applies fn to retained tuples with timestamp in [lo, hi]: the
  /// spooled (older) region first, then the resident tail — exactly the
  /// order the unsplit in-memory deque would have.
  template <typename Fn>
  void ScanApply(Timestamp lo, Timestamp hi, Fn&& fn) const {
    if (hook_) {
      if (lo < floor_) lo = floor_;
      if (hook_->spooled > 0 && lo <= hook_->frontier) {
        ScanSpool(lo, hi, [&](const Tuple& t) {
          fn(t);
          return true;
        });
      }
    }
    for (auto it = LowerBound(lo); it != tuples_.end(); ++it) {
      if (it->timestamp() > hi) break;
      fn(*it);
    }
  }

  /// Chunked scan for replay: appends retained tuples in [lo, hi] to
  /// `out`, stopping at the first timestamp change once `max_records`
  /// are collected (an equal-timestamp run never splits across chunks,
  /// even where it straddles the spool/resident boundary). Returns the
  /// next lo to resume from, or kMaxTimestamp when the range is done.
  Timestamp ScanChunk(Timestamp lo, Timestamp hi, size_t max_records,
                      TupleVector* out) const;

  /// Without a spool: frees history older than `ts` (legacy). With one:
  /// demotes it to disk instead — the resident set shrinks, the history
  /// stays scannable.
  void EvictBefore(Timestamp ts);

  /// History below this timestamp is gone: the retention span passed it,
  /// or EvictBefore freed it. A reader holding state over older history
  /// drops what reaches below it. Never decreases.
  Timestamp floor() const { return floor_; }

  /// Retained tuples. With a spool and a finite retention span this can
  /// exceed what scans serve: physical segment drops are coarse, so
  /// records below the logical floor linger on disk (never in results)
  /// until their whole segment ages out.
  size_t size() const { return tuples_.size() + spooled_size(); }
  Timestamp min_timestamp() const;
  Timestamp max_timestamp() const;

 private:
  /// Spool-side half of a split archive (pointers only so this header
  /// stays free of the spool's).
  struct SpoolHook {
    Spool* spool = nullptr;
    std::string key;
    size_t resident_limit = 0;
    /// Newest main-run timestamp in the spool; every spooled record has
    /// ts <= frontier, every resident tuple ts >= it.
    Timestamp frontier = kMinTimestamp;
    size_t spooled = 0;  ///< Live records in the spool.
  };

  std::deque<Tuple>::const_iterator LowerBound(Timestamp lo) const;
  /// Applies the retention span: raises the floor, pops expired resident
  /// tuples and physically drops expired spool segments.
  void TrimSpan();
  /// Frees the oldest resident tuple (the one place resident bytes fall
  /// on the way out of the front).
  void PopFront();
  /// Moves the oldest resident tuple to the spool.
  void DemoteFront();
  /// Demotes the oldest resident tuples until `resident_limit` holds.
  void DemoteOverflow();
  /// Scans the spool region [lo, hi] in merge order (out-of-line so the
  /// header needs no spool include).
  void ScanSpool(Timestamp lo, Timestamp hi,
                 const std::function<bool(const Tuple&)>& fn) const;
  /// Lowers every live WatchRewrites mark to `ts`.
  void NoteRewrite(Timestamp ts);

  Timestamp retention_span_;
  /// See floor(). With a spool it is also the logical retention floor:
  /// scans clamp here, so segment-granular physical retention can lag
  /// exactness-free.
  Timestamp floor_ = kMinTimestamp;
  std::deque<Tuple> tuples_;  ///< Timestamp-ordered (enforced on Append).
  int64_t resident_bytes_ = 0;
  Timestamp max_ts_ = kMinTimestamp;
  mutable std::vector<std::weak_ptr<Timestamp>> rewrite_marks_;
  std::unique_ptr<SpoolHook> hook_;
};

}  // namespace tcq

#endif  // TCQ_INGRESS_WRAPPER_H_
