// Repository benchmark: drives the TelegraphCQ engine through its public
// API on three named workloads and prints one JSON result line.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file>]
//
// Untraced (--trace 0) it reports the end-to-end metrics: drain-inclusive
// closed-loop throughput, open-loop delivery latency at a fixed offered
// rate, Submit/Cancel latency while data flows, set-up time, peak memory.
// Traced (--trace 1) it repeats the work with spans around every call the
// benchmark makes into an engine layer, replays the same input through
// the lower layers' own public entry points, and reports per-layer
// numbers plus the tracing overhead. Every delivered result is checked
// against a reference the benchmark computes itself; a mismatch makes the
// result `correct: false` and the exit code 1.

#include <sched.h>

#include <atomic>
#include <deque>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cacq/engine.h"
#include "cacq/sharded_engine.h"
#include "common/object_pool.h"
#include "core/analyzer.h"
#include "core/runner.h"
#include "core/server.h"
#include "ingress/wrapper.h"
#include "parser/parser.h"
#include "telemetry/metrics.h"
#include "trace.h"
#include "util.h"
#include "workload.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using tcq::ResultSet;
using tcq::Server;
using tcq::Status;
using tcq::Tuple;

/// Fold-in probes per block (p99 then has 10 samples beyond it). Fixed,
/// so the work, and the per-query state the server keeps, does not
/// depend on the engine's speed.
constexpr size_t kProbes = 1000;
/// Length of one open-loop segment.
constexpr double kSegmentSeconds = 0.4;
/// Tuples pushed before a probe's Submit and again before its Cancel.
constexpr size_t kProbeBatch = 2;
/// Archive retention in ticks: far beyond the widest window plus the
/// disorder bound, and it keeps resident history flat however long the
/// open-loop phase runs.
constexpr tcq::Timestamp kRetentionSpan = 1024;
/// Spans written to the trace file; all of them feed the metrics.
constexpr size_t kMaxSpansWritten = 50000;
/// Share of an open-loop segment excluded from latency as warm-up.
constexpr double kWarmupShare = 0.1;
/// Measured rounds per second of --seconds, untraced and traced. The
/// count depends on --seconds alone, so both sides of a comparison take
/// their best round out of equally many (the best of N improves with N);
/// the rates make a run last about --seconds on a 4-vCPU host.
constexpr double kRoundsPerSecond = 0.75;
constexpr double kTracedRoundsPerSecond = 0.4;
/// A run adds no round past this many seconds, so an engine that has
/// become several times slower still reports within the time limit.
constexpr double kMaxRunSeconds = 140;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

/// Attempted/failed operations and reference mismatches for the run.
struct Ledger {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> mismatches;

  /// Books `units` attempted operations; a non-OK status fails one.
  bool Check(const Status& st, const char* what, uint64_t units = 1) {
    attempted += units;
    if (st.ok()) return true;
    ++failed;
    std::cerr << "perfbench: " << what << " failed: " << st.ToString() << "\n";
    return false;
  }
  void Mismatch(const std::string& what) {
    if (mismatches.size() < 20) std::cerr << "perfbench: MISMATCH " << what << "\n";
    mismatches.push_back(what);
  }
};

/// What one query delivered, filled in by its result callback.
struct Delivered {
  QueryDef def;
  bool permanent = true;
  tcq::QueryId qid = 0;
  size_t live_from = 0;        ///< First feed id pushed after Submit.
  size_t live_to = SIZE_MAX;   ///< First feed id pushed after Cancel.
  FilterTally tally;
  std::vector<int64_t> ids;    ///< Transient filter queries only.
  std::vector<WindowRow> windows;
};

/// State shared by a session's result callbacks. With shards the
/// callbacks run on the engine's egress thread; the load generator reads
/// the plain fields only after a Quiesce.
struct Sink {
  std::atomic<bool> timing{false};
  size_t timing_from_id = 0;
  const std::vector<int64_t>* due_ns = nullptr;  ///< Due time per batch.
  size_t batch = 1;
  /// Due time of the batch inside PushBatch (inline delivery only).
  int64_t current_due_ns = 0;
  std::vector<float> latency_us;
  std::atomic<uint64_t> permanent_rows{0};
  uint64_t callbacks = 0;
  uint64_t rows = 0;
};

bool Int64Cell(const Tuple& row, size_t i, int64_t* out) {
  if (i >= row.arity()) return false;
  const tcq::Value& v = row.cell(i);
  if (v.is_null()) {
    *out = 0;
    return true;
  }
  if (v.type() != tcq::ValueType::kInt64) return false;
  *out = v.int64_value();
  return true;
}

void OnResult(Delivered* d, Sink* s, Ledger* ledger, const ResultSet& rs) {
  ++s->callbacks;
  s->rows += rs.rows.size();
  const bool timing = s->timing.load(std::memory_order_relaxed);
  const int64_t now = timing ? NowNs() : 0;
  if (d->def.kind == QueryDef::Kind::kWindow) {
    for (const Tuple& row : rs.rows) {
      WindowRow w;
      w.t = rs.t;
      if (!Int64Cell(row, 0, &w.count) || !Int64Cell(row, 1, &w.sum) ||
          !Int64Cell(row, 2, &w.max)) {
        ledger->Mismatch("window row with unexpected shape: " + row.ToString());
        continue;
      }
      d->windows.push_back(w);
    }
    if (timing) s->latency_us.push_back((now - s->current_due_ns) / 1e3f);
    return;
  }
  for (const Tuple& row : rs.rows) {
    int64_t id = 0;
    int64_t price = 0;
    if (!Int64Cell(row, 0, &id) || !Int64Cell(row, 1, &price)) {
      ledger->Mismatch("filter row with unexpected shape: " + row.ToString());
      continue;
    }
    d->tally.Add(id, price);
    if (d->permanent) {
      s->permanent_rows.fetch_add(1, std::memory_order_relaxed);
    } else {
      d->ids.push_back(id);
    }
    if (timing && static_cast<size_t>(id) >= s->timing_from_id) {
      const int64_t due = (*s->due_ns)[static_cast<size_t>(id) / s->batch];
      s->latency_us.push_back(static_cast<float>(now - due) / 1e3f);
    }
  }
}

/// Span names, interned once per tracer.
struct SpanNames {
  uint32_t closed_loop, probes, replay;
  uint32_t push_batch, quiesce, heartbeat, submit, cancel;
  uint32_t parse, analyze;
  uint32_t reorder, archive_append, inject, advance, exchange_push,
      exchange_drain;

  explicit SpanNames(Tracer* t) {
    closed_loop = t->Intern("bench.closed_loop");
    probes = t->Intern("bench.probes");
    replay = t->Intern("bench.replay");
    push_batch = t->Intern("core.push_batch");
    quiesce = t->Intern("core.quiesce");
    heartbeat = t->Intern("core.heartbeat");
    submit = t->Intern("core.submit");
    cancel = t->Intern("core.cancel");
    parse = t->Intern("parser.parse");
    analyze = t->Intern("core.analyzer.analyze");
    reorder = t->Intern("ingress.reorder");
    archive_append = t->Intern("ingress.archive_append");
    inject = t->Intern("cacq.inject");
    advance = t->Intern("core.runner.advance");
    exchange_push = t->Intern("cacq.exchange_push");
    exchange_drain = t->Intern("cacq.exchange_drain");
  }
};

/// One server with the workload's standing population, driven by the
/// load generator. Records Submit+SetCallback and Cancel latencies.
class Session {
 public:
  Session(const Spec& spec, Ledger* ledger, Sink* sink, Tracer* tracer,
          const SpanNames* names)
      : spec_(spec), ledger_(ledger), sink_(sink), tracer_(tracer), names_(names) {}

  /// Server construction, stream definition and registration of the
  /// population (plus the churn slots). Returns the elapsed seconds.
  double Setup(const std::vector<QueryDef>& population, Rng* transient) {
    const int64_t t0 = NowNs();
    Server::Options opts;
    opts.cacq_shards = spec_.shards;
    opts.max_disorder = spec_.max_disorder;
    opts.retention_span = kRetentionSpan;
    server_ = std::make_unique<Server>(opts);
    ledger_->Check(server_->DefineStream(kStream, TradesSchema(), 0, 1),
                   "DefineStream");
    for (const QueryDef& q : population) Submit(q, true, 0);
    for (size_t i = 0; i < spec_.churn_slots; ++i) {
      churn_.push_back(Submit(TransientQuery(spec_, transients_++, transient), false, 0));
    }
    return static_cast<double>(NowNs() - t0) / 1e9;
  }

  void Push(std::vector<Tuple> batch) {
    const size_t n = batch.size();
    size_t rejected = 0;
    Status st;
    {
      ScopedSpan span(tracer_, names_ ? names_->push_batch : 0);
      st = server_->PushBatch(kStream, std::move(batch), &rejected);
    }
    ledger_->Check(st, "PushBatch", n);
    ledger_->failed += rejected;
    pushed_ += n;
  }

  Delivered* Submit(const QueryDef& def, bool permanent, size_t next_id) {
    queries_.emplace_back();
    Delivered* d = &queries_.back();
    d->def = def;
    d->permanent = permanent;
    d->live_from = next_id;
    const std::string sql = def.Sql();
    const int64_t t0 = NowNs();
    {
      ScopedSpan span(tracer_, names_ ? names_->submit : 0);
      auto q = server_->Submit(sql);
      if (ledger_->Check(q.status(), "Submit")) {
        d->qid = *q;
        Sink* sink = sink_;
        Ledger* ledger = ledger_;
        ledger_->Check(server_->SetCallback(*q,
                                            [d, sink, ledger](const ResultSet& rs) {
                                              OnResult(d, sink, ledger, rs);
                                            }),
                       "SetCallback");
      }
    }
    submit_us_.push_back(static_cast<double>(NowNs() - t0) / 1e3);
    return d;
  }

  void Cancel(Delivered* d, size_t next_id) {
    const int64_t t0 = NowNs();
    {
      ScopedSpan span(tracer_, names_ ? names_->cancel : 0);
      ledger_->Check(server_->Cancel(d->qid), "Cancel");
    }
    cancel_us_.push_back(static_cast<double>(NowNs() - t0) / 1e3);
    d->live_to = next_id;
  }

  /// Replaces the oldest churn-slot query with a fresh one.
  void Churn(Rng* transient) {
    Cancel(churn_.front(), pushed_);
    churn_.pop_front();
    churn_.push_back(
        Submit(TransientQuery(spec_, transients_++, transient), false, pushed_));
  }

  /// Waits until every pushed tuple's results are delivered: Quiesce when
  /// sharded, then a heartbeat past the last timestamp, which releases the
  /// reorder buffer and fires the windows it closes.
  void Drain(int64_t max_ts) {
    if (spec_.shards > 1) {
      ScopedSpan span(tracer_, names_ ? names_->quiesce : 0);
      server_->Quiesce();
      ++ledger_->attempted;
    }
    ScopedSpan span(tracer_, names_ ? names_->heartbeat : 0);
    ledger_->Check(server_->Heartbeat(kStream, max_ts + 1), "Heartbeat");
  }

  size_t pushed() const { return pushed_; }
  std::deque<Delivered>& queries() { return queries_; }
  const std::vector<double>& submit_us() const { return submit_us_; }
  const std::vector<double>& cancel_us() const { return cancel_us_; }

 private:
  const Spec& spec_;
  Ledger* ledger_;
  Sink* sink_;
  Tracer* tracer_;
  const SpanNames* names_;
  /// Declared before server_: the server's callbacks point into it, and
  /// the server (with its egress thread) must be destroyed first.
  std::deque<Delivered> queries_;
  std::unique_ptr<Server> server_;
  std::deque<Delivered*> churn_;
  size_t transients_ = 0;
  size_t pushed_ = 0;
  std::vector<double> submit_us_;
  std::vector<double> cancel_us_;
};

/// Checks everything a session delivered against references computed
/// over the feed prefix it pushed: the population's filter queries
/// exactly, window queries window by window, transient queries as a
/// subset.
void Verify(Session& s, const Feed& feed, const std::vector<QueryDef>& pop,
            size_t num_symbols, Ledger* ledger) {
  const size_t pushed = s.pushed();
  const int64_t max_ts = feed.max_ts(pushed);
  const std::vector<FilterTally> permanent_ref = ReferenceFilters(feed, pop, 0, pushed);
  const WindowReference window_ref(feed, pushed, num_symbols);
  size_t pos = 0;
  for (Delivered& d : s.queries()) {
    const std::string who = d.def.Sql();
    if (d.def.kind == QueryDef::Kind::kWindow) {
      if (d.permanent) {
        const std::vector<WindowRow> want = window_ref.Expected(d.def, 1, max_ts);
        if (want.size() != d.windows.size()) {
          ledger->Mismatch(who + ": " + std::to_string(d.windows.size()) +
                           " windows delivered, reference has " +
                           std::to_string(want.size()));
        } else {
          for (size_t i = 0; i < want.size(); ++i) {
            if (!(want[i] == d.windows[i])) {
              ledger->Mismatch(who + ": window t=" + std::to_string(want[i].t) +
                               " differs from the reference");
              break;
            }
          }
        }
      } else {
        for (size_t i = 0; i < d.windows.size(); ++i) {
          const WindowRow& got = d.windows[i];
          const bool stepped =
              i == 0 || got.t - d.windows[i - 1].t == d.def.step;
          if (!stepped || !(window_ref.Eval(d.def.sym, got.t, d.def.width) == got)) {
            ledger->Mismatch(who + ": probe window t=" + std::to_string(got.t) +
                             " differs from the reference");
            break;
          }
        }
      }
      ++pos;
      continue;
    }
    if (d.permanent) {
      if (!(d.tally == permanent_ref[pos])) {
        ledger->Mismatch(who + ": " + std::to_string(d.tally.rows) +
                         " rows delivered, reference has " +
                         std::to_string(permanent_ref[pos].rows) +
                         " (or the row fingerprints differ)");
      }
      ++pos;
      continue;
    }
    // Transient: a subset of the reference over its lifetime. Cancel
    // drops rows still in flight by design, so rows may be missing but
    // never foreign, duplicated or altered.
    std::vector<int64_t> ids = d.ids;
    std::sort(ids.begin(), ids.end());
    FilterTally recomputed;
    bool ok = std::adjacent_find(ids.begin(), ids.end()) == ids.end();
    for (int64_t id : ids) {
      const size_t i = static_cast<size_t>(id);
      if (id < 0 || i >= pushed || i < d.live_from || i >= d.live_to ||
          !d.def.Matches(feed.sym[i], feed.price[i])) {
        ok = false;
        break;
      }
      recomputed.Add(id, feed.price[i]);
    }
    if (!ok || !(recomputed == d.tally)) {
      ledger->Mismatch(who + ": transient query delivered rows outside the reference");
    }
  }
}

tcq::StreamDef TradesDef() {
  tcq::StreamDef def;
  def.name = kStream;
  def.schema = TradesSchema();
  def.timestamp_field = 0;
  return def;
}

/// Registry counters the traced run reads as deltas.
struct Counters {
  uint64_t decisions = 0, visits = 0, cache_hits = 0, cache_misses = 0;
  uint64_t gf_applies = 0, gf_rebuilds = 0;
  uint64_t producer_blocks = 0, consumer_blocks = 0;
  std::vector<uint64_t> routed;
  uint64_t pool_hits = 0, pool_misses = 0;

  static Counters Read(size_t shards) {
    tcq::MetricRegistry& r = tcq::MetricRegistry::Global();
    Counters c;
    c.decisions = r.GetCounter("tcq.eddy.decisions")->value();
    c.visits = r.GetCounter("tcq.eddy.visits")->value();
    c.cache_hits = r.GetCounter("tcq.eddy.cache_hits")->value();
    c.cache_misses = r.GetCounter("tcq.eddy.cache_misses")->value();
    c.gf_applies = r.GetCounter("tcq.grouped_filter.applies")->value();
    c.gf_rebuilds = r.GetCounter("tcq.grouped_filter.rebuilds")->value();
    c.producer_blocks = r.GetCounter("tcq.queue.producer_blocks")->value();
    c.consumer_blocks = r.GetCounter("tcq.queue.consumer_blocks")->value();
    for (size_t i = 0; i < shards; ++i) {
      c.routed.push_back(r.GetCounter("tcq.shard", i, "routed")->value());
    }
    const tcq::BlockPool::Stats pool = tcq::BlockPool::GlobalStats();
    c.pool_hits = pool.hits;
    c.pool_misses = pool.misses;
    return c;
  }

  /// Adds `to - from` into this accumulator.
  void AddDelta(const Counters& from, const Counters& to) {
    decisions += to.decisions - from.decisions;
    visits += to.visits - from.visits;
    cache_hits += to.cache_hits - from.cache_hits;
    cache_misses += to.cache_misses - from.cache_misses;
    gf_applies += to.gf_applies - from.gf_applies;
    gf_rebuilds += to.gf_rebuilds - from.gf_rebuilds;
    producer_blocks += to.producer_blocks - from.producer_blocks;
    consumer_blocks += to.consumer_blocks - from.consumer_blocks;
    routed.resize(to.routed.size());
    for (size_t i = 0; i < to.routed.size(); ++i) routed[i] += to.routed[i] - from.routed[i];
    pool_hits += to.pool_hits - from.pool_hits;
    pool_misses += to.pool_misses - from.pool_misses;
  }
};

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

/// Inputs of one run. The closed-loop feed is pushed whole on every pass;
/// the open-loop and probe feeds are replayed by every segment and block.
struct Inputs {
  std::vector<QueryDef> pop;
  Feed closed;
  std::vector<std::vector<Tuple>> closed_batches;
  Feed open;
  /// Rows the standing filters owe per pushed open-loop batch prefix.
  std::vector<uint64_t> open_owed;
  Feed probe;

  Inputs(const Spec& spec, uint64_t seed) : pop(Population(spec, seed)) {
    closed = Generate(spec, seed, spec.closed_loop_tuples);
    for (size_t b = 0; b < closed.size(); b += spec.batch) {
      closed_batches.push_back(closed.MakeBatch(b, std::min(closed.size(), b + spec.batch)));
    }
    const size_t nb = static_cast<size_t>(spec.offered_rate * kSegmentSeconds /
                                          static_cast<double>(spec.batch));
    open = Generate(spec, seed * 1000003 + 1, nb * spec.batch);
    open_owed.assign(nb + 1, 0);
    for (size_t j = 0; j < nb; ++j) {
      uint64_t rows = 0;
      for (size_t i = j * spec.batch; i < (j + 1) * spec.batch; ++i) {
        for (const QueryDef& q : pop) {
          if (q.kind == QueryDef::Kind::kFilter && q.Matches(open.sym[i], open.price[i])) {
            ++rows;
          }
        }
      }
      open_owed[j + 1] = open_owed[j] + rows;
    }
    probe = Generate(spec, seed * 1000003 + 2, 2 * kProbes * kProbeBatch);
  }
};

/// One closed-loop pass on a fresh server: the whole closed feed as fast
/// as the engine takes it, clocked from the first PushBatch to the last
/// delivery.
struct Pass {
  double tps = 0;
  double setup_s = 0;
  uint64_t callbacks = 0;
  uint64_t rows = 0;
};

Pass RunClosedPass(const Spec& spec, const Args& args, const Inputs& in, Ledger* ledger,
                   Tracer* tracer, const SpanNames* names) {
  Pass out;
  Sink sink;
  Session s(spec, ledger, &sink, tracer, names);
  Rng transient(args.seed * 31 + 7);
  out.setup_s = s.Setup(in.pop, &transient);
  const int64_t t0 = NowNs();
  {
    ScopedSpan span(tracer, names ? names->closed_loop : 0);
    for (size_t j = 0; j < in.closed_batches.size(); ++j) {
      if (spec.churn_every > 0 && j > 0 && j % spec.churn_every == 0) {
        s.Churn(&transient);
      }
      s.Push(in.closed_batches[j]);
    }
    s.Drain(in.closed.max_ts(in.closed.size()));
  }
  out.tps = static_cast<double>(in.closed.size()) /
            (static_cast<double>(NowNs() - t0) / 1e9);
  out.callbacks = sink.callbacks;
  out.rows = sink.rows;
  Verify(s, in.closed, in.pop, spec.num_symbols, ledger);
  return out;
}

/// Spins until `t`. Sleeping would overshoot by tens to hundreds of
/// microseconds (generator lag), and would let the core idle and its
/// caches go cold between batches, which a busy server never sees.
void WaitUntil(int64_t t) {
  while (NowNs() < t) {
  }
}

/// One open-loop segment on a fresh server: batches due on a fixed
/// schedule at the workload's offered rate, each pushed no earlier than
/// due and as soon as possible after. Latency runs from a batch's due
/// time to the callback delivering a result it caused.
struct Segment {
  double p50_us = 0;
  double p99_us = 0;
  size_t samples = 0;
  double lag_p99_us = 0;
  double setup_s = 0;
  bool backlog_grew = false;
};

Segment RunOpenSegment(const Spec& spec, const Args& args, const Inputs& in,
                       Ledger* ledger) {
  Segment out;
  const Feed& feed = in.open;
  const size_t nb = in.open_owed.size() - 1;
  Sink sink;
  Session s(spec, ledger, &sink, nullptr, nullptr);
  Rng transient(args.seed * 31 + 11);
  out.setup_s = s.Setup(in.pop, &transient);

  const double period_ns = 1e9 * static_cast<double>(spec.batch) / spec.offered_rate;
  std::vector<int64_t> due(nb);
  const int64_t t0 = NowNs() + 2000000;
  for (size_t j = 0; j < nb; ++j) {
    due[j] = t0 + static_cast<int64_t>(period_ns * static_cast<double>(j));
  }
  sink.due_ns = &due;
  sink.batch = spec.batch;
  sink.timing_from_id = static_cast<size_t>(kWarmupShare * static_cast<double>(nb)) * spec.batch;
  sink.latency_us.reserve(in.open_owed[nb] + feed.size());
  sink.timing.store(true);
  const double rows_per_tuple =
      Ratio(static_cast<double>(in.open_owed[nb]), static_cast<double>(feed.size()));
  std::vector<double> lag_us;
  std::vector<double> backlog;  // Tuples due but not yet through the engine.
  for (size_t j = 0; j < nb; ++j) {
    std::vector<Tuple> batch = feed.MakeBatch(j * spec.batch, (j + 1) * spec.batch);
    WaitUntil(due[j]);
    lag_us.push_back(static_cast<double>(NowNs() - due[j]) / 1e3);
    sink.current_due_ns = due[j];
    s.Push(std::move(batch));
    if (spec.churn_every > 0 && j > 0 && j % spec.churn_every == 0) {
      s.Churn(&transient);
    }
    const double due_batches = std::min<double>(
        static_cast<double>(nb),
        std::floor(static_cast<double>(NowNs() - t0) / period_ns) + 1);
    const double unpushed = std::max(0.0, due_batches - static_cast<double>(j + 1)) *
                            static_cast<double>(spec.batch);
    const double in_flight =
        Ratio(static_cast<double>(in.open_owed[j + 1]) -
                  static_cast<double>(sink.permanent_rows.load(std::memory_order_relaxed)),
              rows_per_tuple);
    backlog.push_back(unpushed + std::max(0.0, in_flight));
  }
  if (spec.shards > 1) {
    s.Drain(feed.max_ts(feed.size()));  // Sharded results in flight count too.
    sink.timing.store(false);
  } else {
    sink.timing.store(false);
    s.Drain(feed.max_ts(feed.size()));
  }
  Verify(s, feed, in.pop, spec.num_symbols, ledger);
  const std::vector<double> lat(sink.latency_us.begin(), sink.latency_us.end());
  out.p50_us = Quantile(lat, 0.5);
  out.p99_us = Quantile(lat, 0.99);
  out.samples = lat.size();
  out.lag_p99_us = Quantile(lag_us, 0.99);

  // A sustainable rate holds the backlog flat; an unsustainable one grows
  // it for as long as the segment lasts. Compare first and last quarter.
  const size_t q = backlog.size() / 4;
  double first = 0;
  double last = 0;
  for (size_t i = 0; i < q; ++i) {
    first += backlog[i] / static_cast<double>(q);
    last += backlog[backlog.size() - q + i] / static_cast<double>(q);
  }
  out.backlog_grew = last > 2.0 * first + 8.0 * static_cast<double>(spec.batch);
  return out;
}

/// One block of fold-in probes on a fresh server: Submit+SetCallback and
/// Cancel of a short-lived query between small batches of live data.
struct ProbeBlock {
  std::vector<double> submit_us;
  std::vector<double> cancel_us;
  double setup_s = 0;
};

ProbeBlock RunProbeBlock(const Spec& spec, const Args& args, const Inputs& in,
                         Ledger* ledger, Tracer* tracer, const SpanNames* names) {
  ProbeBlock out;
  const Feed& feed = in.probe;
  ScopedSpan root(tracer, names ? names->probes : 0);
  Sink sink;
  Session s(spec, ledger, &sink, tracer, names);
  Rng transient(args.seed * 31 + 13);
  out.setup_s = s.Setup(in.pop, &transient);
  const size_t submits_before = s.submit_us().size();
  tcq::Catalog catalog;  // The front end's view, for the parse/analyze replay.
  ledger->Check(catalog.RegisterStream(TradesDef()), "RegisterStream");
  Rng probe_rng(args.seed * 31 + 17);
  for (size_t i = 0; i < kProbes; ++i) {
    s.Push(feed.MakeBatch(2 * i * kProbeBatch, (2 * i + 1) * kProbeBatch));
    const QueryDef def = TransientQuery(spec, i, &probe_rng);
    if (tracer != nullptr) {
      const std::string sql = def.Sql();
      {
        ScopedSpan span(tracer, names->parse);
        ledger->Check(tcq::ParseQuery(sql).status(), "ParseQuery");
      }
      ScopedSpan span(tracer, names->analyze);
      ledger->Check(tcq::AnalyzeSql(sql, catalog).status(), "AnalyzeSql");
    }
    Delivered* d = s.Submit(def, false, s.pushed());
    s.Push(feed.MakeBatch((2 * i + 1) * kProbeBatch, (2 * i + 2) * kProbeBatch));
    s.Cancel(d, s.pushed());
  }
  s.Drain(feed.max_ts(s.pushed()));
  Verify(s, feed, in.pop, spec.num_symbols, ledger);
  out.submit_us.assign(s.submit_us().begin() + static_cast<long>(submits_before),
                       s.submit_us().end());
  out.cancel_us = s.cancel_us();
  return out;
}

/// The same input replayed through the lower layers' public entry points,
/// each call inside its own span: ReorderBuffer + Archive (ingress),
/// CacqEngine::InjectBatch with a counting sink (cacq), QueryRunner::Advance
/// over the archive (core.runner), and a standalone ShardedEngine (the
/// exchange, pushed as fast as its backpressure allows) when the workload
/// is sharded. Tuples are copied outside the spans, as PushBatch receives
/// them already copied.
struct Replay {
  size_t passes = 0;
  uint64_t emitted = 0;
  uint64_t windows_fired = 0;
  uint64_t runner_visits = 0;
  Counters exchange;  ///< Registry deltas over the exchange replays.
};

void RunReplay(const Spec& spec, const Feed& feed,
               const std::vector<std::vector<Tuple>>& batches,
               const std::vector<QueryDef>& pop, Ledger* ledger, Tracer* tracer,
               const SpanNames& names, Replay* out) {
  ScopedSpan root(tracer, names.replay);
  ++out->passes;
  tcq::ReorderBuffer reorder;
  reorder.set_max_disorder(spec.max_disorder);
  tcq::Archive archive(kRetentionSpan);

  std::unique_ptr<tcq::CacqEngine> cacq;
  std::vector<std::unique_ptr<tcq::QueryRunner>> runners;
  std::vector<tcq::CacqQuerySpec> specs;
  tcq::Catalog catalog;
  ledger->Check(catalog.RegisterStream(TradesDef()), "RegisterStream");
  for (const QueryDef& q : pop) {
    if (q.kind == QueryDef::Kind::kFilter) {
      auto parsed = tcq::ParseQuery(q.Sql());
      if (!ledger->Check(parsed.status(), "ParseQuery")) continue;
      tcq::CacqQuerySpec cs;
      cs.sources = {kStream};
      cs.where = parsed->where;
      specs.push_back(cs);
    } else {
      auto aq = tcq::AnalyzeSql(q.Sql(), catalog);
      if (!ledger->Check(aq.status(), "AnalyzeSql")) continue;
      runners.push_back(std::make_unique<tcq::QueryRunner>(
          std::move(*aq), std::vector<const tcq::Archive*>{&archive},
          std::vector<tcq::TupleVector>(1), tcq::QueryRunner::Options()));
    }
  }
  uint64_t emitted = 0;
  if (!specs.empty()) {
    cacq = std::make_unique<tcq::CacqEngine>();
    ledger->Check(cacq->AddStream(kStream, TradesSchema()).status(), "AddStream");
    cacq->SetSink([&emitted](tcq::QueryId, const Tuple&) { ++emitted; });
    for (const auto& cs : specs) ledger->Check(cacq->AddQuery(cs).status(), "AddQuery");
  }

  tcq::Timestamp watermark = tcq::kMinTimestamp;
  std::vector<ResultSet> fired;
  auto apply = [&](const std::vector<Tuple>& released) {
    {
      ScopedSpan span(tracer, names.archive_append);
      for (const Tuple& t : released) {
        archive.Append(t);
        watermark = std::max(watermark, t.timestamp());
      }
    }
    if (cacq != nullptr && !released.empty()) {
      ScopedSpan span(tracer, names.inject);
      ledger->Check(cacq->InjectBatch(kStream, released), "InjectBatch");
    }
    if (!runners.empty()) {
      ScopedSpan span(tracer, names.advance);
      for (auto& r : runners) out->windows_fired += r->Advance(watermark, &fired);
    }
    fired.clear();
  };
  std::vector<Tuple> released;
  for (const std::vector<Tuple>& batch : batches) {
    std::vector<Tuple> arriving = batch;
    released.clear();
    {
      ScopedSpan span(tracer, names.reorder);
      for (Tuple& t : arriving) reorder.Offer(std::move(t), &released);
    }
    apply(released);
  }
  released.clear();
  {
    ScopedSpan span(tracer, names.reorder);
    reorder.Punctuate(feed.max_ts(feed.size()) + 1, &released);
  }
  watermark = std::max(watermark, feed.max_ts(feed.size()) + 1);
  apply(released);
  for (auto& r : runners) out->runner_visits += r->total_visits();
  out->emitted += emitted;

  if (spec.shards > 1) {
    tcq::ShardedEngine::Options so;
    so.num_shards = spec.shards;
    tcq::ShardedEngine exchange(so);
    ledger->Check(exchange.AddStream(kStream, TradesSchema(), 1).status(), "AddStream");
    std::atomic<uint64_t> delivered{0};
    exchange.SetSink([&delivered](std::vector<tcq::ShardedEngine::Emission>&& b) {
      delivered.fetch_add(b.size(), std::memory_order_relaxed);
    });
    exchange.Start();
    for (const auto& cs : specs) ledger->Check(exchange.AddQuery(cs).status(), "AddQuery");
    const Counters c0 = Counters::Read(spec.shards);
    for (const std::vector<Tuple>& batch : batches) {
      std::vector<Tuple> copy = batch;
      ScopedSpan span(tracer, names.exchange_push);
      ledger->Check(exchange.PushBatch(kStream, std::move(copy)),
                    "ShardedEngine::PushBatch");
    }
    {
      ScopedSpan span(tracer, names.exchange_drain);
      ledger->Check(exchange.Quiesce(), "ShardedEngine::Quiesce");
    }
    out->exchange.AddDelta(c0, Counters::Read(spec.shards));
    exchange.Stop();
    if (delivered.load() != emitted) {
      ledger->Mismatch("sharded exchange replay emitted " +
                       std::to_string(delivered.load()) + " rows, inline engine " +
                       std::to_string(emitted));
    }
  }
}

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::stoull(v);
    } else if (k == "--seconds") {
      a->seconds = std::stod(v);
    } else if (k == "--trace") {
      a->trace = v == "1";
    } else if (k == "--trace-out") {
      a->trace_out = v;
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && FindSpec(a->workload) != nullptr && a->seconds > 0;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::cerr << "usage: perfbench --workload <";
    for (const Spec& s : AllSpecs()) std::cerr << s.name << "|";
    std::cerr << "> --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]\n";
    return 2;
  }
  const Spec& spec = *FindSpec(args.workload);
  Ledger ledger;
  const Inputs in(spec, args.seed);
  // The inputs stay resident all run; peak_rss_mb is the peak above them.
  const double inputs_rss_mb = ProcStatusMb("VmRSS");
  Tracer tracer;
  const SpanNames names(&tracer);
  Tracer* const tr = args.trace ? &tracer : nullptr;

  // The run is a sequence of rounds. Each round runs a closed-loop pass
  // (traced runs add a traced pass and a layer replay), an open-loop
  // segment and a probe block, so every metric samples the whole run: the
  // speed of a shared machine drifts over seconds, and a phase run once
  // would catch a single state of it. Inline workloads move their thread
  // to the next allowed CPU each round, since the drift differs per CPU.
  // Round 0 warms caches, pools and page tables and is discarded; the
  // number of measured rounds is fixed by --seconds.
  std::vector<double> tps, traced_tps, setups, p50, p99, lag99, sub50, can50, peak_rss;
  size_t grown = 0;
  size_t latency_samples = 0;
  size_t probe_samples = 0;
  uint64_t traced_callbacks = 0;
  uint64_t traced_rows = 0;
  size_t traced_passes = 0;
  Counters counters;  // Summed over traced passes.
  Replay rp;
  const int64_t start = NowNs();
  const size_t rounds = std::max<size_t>(
      args.trace ? 3 : 5,
      static_cast<size_t>(std::lround(
          args.seconds * (args.trace ? kTracedRoundsPerSecond : kRoundsPerSecond))));
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  sched_getaffinity(0, sizeof(allowed), &allowed);
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
  }
  for (size_t round = 0; round <= rounds; ++round) {
    if (static_cast<double>(NowNs() - start) / 1e9 >= kMaxRunSeconds) break;
    if (spec.shards == 1 && !cpus.empty()) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpus[round % cpus.size()], &one);
      sched_setaffinity(0, sizeof(one), &one);
    }
    const bool warm_up = round == 0;
    ResetPeakRss();
    // Traced runs alternate which pass goes first, so neither inherits the
    // other's warm caches more often.
    auto traced_pass = [&] {
      const Counters c0 = Counters::Read(spec.shards);
      const Pass traced = RunClosedPass(spec, args, in, &ledger, tr, &names);
      counters.AddDelta(c0, Counters::Read(spec.shards));
      traced_tps.push_back(traced.tps);
      traced_callbacks += traced.callbacks;
      traced_rows += traced.rows;
      ++traced_passes;
      setups.push_back(traced.setup_s);
      RunReplay(spec, in.closed, in.closed_batches, in.pop, &ledger, tr, names, &rp);
    };
    const bool tracing = tr != nullptr && !warm_up;
    if (tracing && round % 2 == 1) traced_pass();
    const Pass plain = RunClosedPass(spec, args, in, &ledger, nullptr, nullptr);
    if (tracing && round % 2 == 0) traced_pass();
    const Segment seg = RunOpenSegment(spec, args, in, &ledger);
    const ProbeBlock pb =
        RunProbeBlock(spec, args, in, &ledger, warm_up ? nullptr : tr, &names);
    if (warm_up) continue;
    peak_rss.push_back(ProcStatusMb("VmHWM") - inputs_rss_mb);
    tps.push_back(plain.tps);
    setups.insert(setups.end(), {plain.setup_s, seg.setup_s, pb.setup_s});
    p50.push_back(seg.p50_us);
    p99.push_back(seg.p99_us);
    lag99.push_back(seg.lag_p99_us);
    latency_samples += seg.samples;
    grown += seg.backlog_grew ? 1 : 0;
    probe_samples += pb.submit_us.size();
    sub50.push_back(Quantile(pb.submit_us, 0.5));
    can50.push_back(Quantile(pb.cancel_us, 0.5));
  }
  // An unsustainable offered rate must never turn into a latency number.
  if (grown * 4 > tps.size()) {
    std::cerr << "perfbench: backlog grew in " << grown << " of " << tps.size()
              << " open-loop segments: offered rate " << spec.offered_rate
              << "/s is not sustainable here, no latency reported\n";
    return 3;
  }

  JsonObject metrics;
  auto metric = [&metrics](const std::string& name, double v, const char* unit) {
    metrics.Raw(name, JsonObject().Num("value", v).Str("unit", unit).str());
  };
  JsonObject extra;  // Run health and sample counts, for the result file.
  extra.Num("rounds", static_cast<double>(tps.size()))
      .Num("inputs_rss_mb", inputs_rss_mb)
      .Num("latency_samples", static_cast<double>(latency_samples))
      .Num("probe_samples", static_cast<double>(probe_samples))
      .Num("loadgen_lag_p99_us", Median(lag99))
      .Num("segments_backlog_grew", static_cast<double>(grown))
      .Nums("rounds_throughput_tps", tps)
      .Nums("rounds_latency_p50_us", p50)
      .Nums("rounds_latency_p99_us", p99)
      .Nums("rounds_submit_p50_us", sub50)
      .Nums("rounds_cancel_p50_us", can50)
      .Nums("rounds_peak_rss_mb", peak_rss);

  if (!args.trace) {
    // A slowed round measures the machine's other tenants, not the engine,
    // so timings report the best round, and set-up the best set-up. Memory
    // does not follow the machine's speed, but with shards a round's peak
    // follows how full the exchange queues ran: the median round.
    metric("throughput_tps", Best(tps, true), "1/s");
    metric("latency_p50_us", Best(p50, false), "us");
    metric("submit_p50_us", Best(sub50, false), "us");
    metric("cancel_p50_us", Best(can50, false), "us");
    metric("setup_s", Best(setups, false), "s");
    metric("peak_rss_mb", Median(peak_rss), "MiB");
  } else {
    if (!args.trace_out.empty() && !tracer.WriteChromeTrace(args.trace_out, kMaxSpansWritten)) {
      std::cerr << "perfbench: cannot write " << args.trace_out << "\n";
    }

    using Layers = std::map<std::string, Tracer::LayerTime>;
    const Layers server = tracer.Aggregate("bench.closed_loop");
    const Layers probes = tracer.Aggregate("bench.probes");
    const Layers replay = tracer.Aggregate("bench.replay");
    auto find = [](const Layers& layers, const char* name) {
      static const Tracer::LayerTime kNone;
      auto it = layers.find(name);
      return it == layers.end() ? kNone : it->second;
    };
    auto quantile_us = [&find](const Layers& layers, const char* name, double q) {
      return Quantile(find(layers, name).dur_ns, q) / 1e3;
    };
    const double tuples = static_cast<double>(in.closed.size() * traced_passes);
    const double replayed = static_cast<double>(in.closed.size() * rp.passes);
    auto replay_ns = [&](const char* name) {
      return static_cast<double>(find(replay, name).self_ns) / replayed;
    };
    // Replayed layers whose work runs inside Server::PushBatch on the
    // caller's thread. With shards the engine work runs on shard threads,
    // and the exchange replay's push time includes backpressure waits the
    // churning server pass does not see, so neither is subtracted there.
    const double inside_push =
        replay_ns("ingress.reorder") + replay_ns("ingress.archive_append") +
        (spec.shards > 1 ? 0.0 : replay_ns("cacq.inject") + replay_ns("core.runner.advance"));
    const Counters& c = counters;
    const double passes = static_cast<double>(traced_passes);
    const double callbacks = static_cast<double>(traced_callbacks);

    metric("core.push_batch_us_p50", quantile_us(server, "core.push_batch", 0.5), "us");
    metric("core.push_batch_us_p99", quantile_us(server, "core.push_batch", 0.99), "us");
    metric("core.callbacks_per_tuple", callbacks / tuples, "count");
    metric("core.rows_per_callback",
           Ratio(static_cast<double>(traced_rows), callbacks), "count");
    metric("core.unattributed_ns_per_tuple",
           static_cast<double>(find(server, "core.push_batch").self_ns) / tuples - inside_push,
           "ns");
    metric("parser.parse_us", quantile_us(probes, "parser.parse", 0.5), "us");
    metric("core.analyzer.analyze_us", quantile_us(probes, "core.analyzer.analyze", 0.5),
           "us");
    metric("core.submit_us", quantile_us(probes, "core.submit", 0.5), "us");
    metric("core.submit_us_p99", quantile_us(probes, "core.submit", 0.99), "us");
    metric("core.cancel_us", quantile_us(probes, "core.cancel", 0.5), "us");
    metric("core.cancel_us_p99", quantile_us(probes, "core.cancel", 0.99), "us");
    metric("ingress.reorder_ns_per_tuple", replay_ns("ingress.reorder"), "ns");
    metric("ingress.archive_append_ns_per_tuple", replay_ns("ingress.archive_append"), "ns");
    metric("cacq.inject_ns_per_tuple", replay_ns("cacq.inject"), "ns");
    metric("cacq.emitted_per_tuple", static_cast<double>(rp.emitted) / replayed, "count");
    metric("eddy.decisions_per_tuple", static_cast<double>(c.decisions) / tuples, "count");
    metric("eddy.visits_per_tuple", static_cast<double>(c.visits) / tuples, "count");
    metric("eddy.cache_hit_ratio",
           Ratio(static_cast<double>(c.cache_hits),
                 static_cast<double>(c.cache_hits + c.cache_misses)),
           "ratio");
    metric("modules.grouped_filter_applies_per_tuple",
           static_cast<double>(c.gf_applies) / tuples, "count");
    metric("modules.grouped_filter_rebuilds", static_cast<double>(c.gf_rebuilds) / passes,
           "count");
    metric("core.runner.advance_ns_per_tuple", replay_ns("core.runner.advance"), "ns");
    metric("core.runner.windows_fired",
           static_cast<double>(rp.windows_fired) / static_cast<double>(rp.passes), "count");
    metric("core.runner.visits_per_window",
           Ratio(static_cast<double>(rp.runner_visits), static_cast<double>(rp.windows_fired)),
           "count");
    metric("cacq.exchange_push_us_p99", quantile_us(replay, "cacq.exchange_push", 0.99), "us");
    metric("cacq.exchange_drain_us", quantile_us(replay, "cacq.exchange_drain", 0.5), "us");
    metric("fjords.producer_blocks_per_batch",
           Ratio(static_cast<double>(rp.exchange.producer_blocks),
                 static_cast<double>(in.closed_batches.size() * rp.passes)),
           "count");
    metric("fjords.consumer_blocks",
           static_cast<double>(rp.exchange.consumer_blocks) / static_cast<double>(rp.passes),
           "count");
    double routed_max = 0;
    double routed_sum = 0;
    for (uint64_t r : c.routed) {
      routed_max = std::max(routed_max, static_cast<double>(r));
      routed_sum += static_cast<double>(r);
    }
    metric("flux.shard_imbalance",
           c.routed.empty() ? 0.0
                            : Ratio(routed_max,
                                    routed_sum / static_cast<double>(c.routed.size())),
           "ratio");
    metric("common.pool_hit_ratio",
           Ratio(static_cast<double>(c.pool_hits),
                 static_cast<double>(c.pool_hits + c.pool_misses)),
           "ratio");
    // A p99 is itself a tail: the lower quartile of rounds, not the
    // luckiest one.
    metric("open_loop.latency_p99_us", Quantile(p99, 0.25), "us");
    metric("loadgen.lag_p99_us", Median(lag99), "us");
    metric("trace.overhead_pct",
           100.0 * (Median(tps) - Median(traced_tps)) / Median(tps), "%");
    const Tracer::LayerTime pass_spans = find(server, "bench.closed_loop");
    metric("bench.self_share_pct",
           100.0 * Ratio(static_cast<double>(pass_spans.self_ns),
                         static_cast<double>(pass_spans.total_ns)),
           "%");
    extra.Num("throughput_tps_untraced", Median(tps))
        .Num("throughput_tps_traced", Median(traced_tps))
        .Num("spans", static_cast<double>(tracer.size()));
  }

  JsonObject params;
  params.Num("shards", static_cast<double>(spec.shards))
      .Num("batch", static_cast<double>(spec.batch))
      .Num("closed_loop_tuples", static_cast<double>(spec.closed_loop_tuples))
      .Num("offered_rate", spec.offered_rate)
      .Num("num_symbols", static_cast<double>(spec.num_symbols))
      .Num("zipf_s", spec.zipf_s)
      .Num("tuples_per_tick", static_cast<double>(kTuplesPerTick))
      .Num("max_disorder", static_cast<double>(spec.max_disorder))
      .Num("displaced_share", spec.max_disorder > 0 ? kDisplacedShare : 0.0)
      .Num("churn_every", static_cast<double>(spec.churn_every))
      .Num("churn_slots", static_cast<double>(spec.churn_slots))
      .Num("standing_queries", static_cast<double>(in.pop.size() + spec.churn_slots))
      .Num("probe_batch", static_cast<double>(kProbeBatch));
  JsonObject context;
  context.Str("workload", spec.name)
      .Num("seed", static_cast<double>(args.seed))
      .Num("seconds", args.seconds)
      .Bool("trace", args.trace)
      .Num("num_cpus", static_cast<double>(std::thread::hardware_concurrency()))
      .Str("build_type", PERFBENCH_BUILD_TYPE)
#ifdef TCQ_METRICS_DISABLED
      .Bool("telemetry", false)
#else
      .Bool("telemetry", true)
#endif
      .Raw("params", params.str())
      .Raw("health", extra.str());

  const bool correct = ledger.mismatches.empty();
  std::cout << JsonObject()
                   .Bool("correct", correct)
                   .Num("attempted", static_cast<double>(ledger.attempted))
                   .Num("failed", static_cast<double>(ledger.failed))
                   .Raw("metrics", metrics.str())
                   .Raw("context", context.str())
                   .str()
            << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
