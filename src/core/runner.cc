#include "core/runner.h"

#include <algorithm>
#include <map>
#include <numeric>

#include "common/logging.h"

namespace tcq {

namespace {
/// A for-loop that executes exactly once (table-only snapshot queries).
ForLoopSpec OnceSpec() {
  ForLoopSpec spec;
  spec.condition =
      Expr::Binary(BinaryOp::kEq, Expr::Variable("t"),
                   Expr::Literal(Value::Int64(0)));
  spec.step = Expr::Literal(Value::Int64(-1));
  return spec;
}
}  // namespace

QueryRunner::QueryRunner(AnalyzedQuery analyzed,
                         std::vector<const Archive*> archives,
                         std::vector<TupleVector> table_rows, Options options)
    : QueryRunner(std::make_shared<const AnalyzedQuery>(std::move(analyzed)),
                  std::move(archives), std::move(table_rows),
                  std::move(options)) {}

QueryRunner::QueryRunner(std::shared_ptr<const AnalyzedQuery> analyzed,
                         std::vector<const Archive*> archives,
                         std::vector<TupleVector> table_rows, Options options)
    : analyzed_(std::move(analyzed)),
      archives_(std::move(archives)),
      table_rows_(std::move(table_rows)),
      options_(std::move(options)),
      sequence_(analyzed_->window.has_value() ? &*analyzed_->window
                                             : nullptr,
                options_.start_time) {
  TCQ_CHECK(archives_.size() == analyzed_->layout->num_sources());
  TCQ_CHECK(table_rows_.size() == analyzed_->layout->num_sources());
  if (!analyzed_->window.has_value()) {
    // Table-only snapshot: run once over everything.
    static const ForLoopSpec* const kOnce = new ForLoopSpec(OnceSpec());
    sequence_ = WindowSequence(kOnce, options_.start_time);
  }
  shareable_ = !options_.speculative && analyzed_->window.has_value() &&
               analyzed_->layout->num_sources() == 1 &&
               !analyzed_->defs[0].is_table && sequence_.linear() != nullptr;
}

void QueryRunner::EndOnBudget() {
  pending_step_.reset();
  done_ = true;
  status_ = Status::ResourceExhausted(
      "for-loop makes more than " + std::to_string(kMaxStepsPerAdvance) +
      " windows ready in one advance");
}

size_t QueryRunner::TakeReady(Timestamp high_watermark,
                              std::vector<WindowSequence::Step>* steps) {
  const size_t first = steps->size();
  size_t taken = 0;
  while (!done_) {
    if (!pending_step_.has_value()) {
      pending_step_ = sequence_.Next();
      if (!pending_step_.has_value()) {
        done_ = true;
        break;
      }
    }
    // A window is executable once every stream it reads has delivered all
    // data up to the window's right end. Because several tuples can share
    // one timestamp, that is only certain when a strictly *later*
    // timestamp has been seen (punctuation-by-progress).
    bool ready = true;
    for (size_t s = 0; s < analyzed_->layout->num_sources(); ++s) {
      const int clause = analyzed_->window_clause_of_source[s];
      if (clause < 0) continue;  // Static table: always ready.
      if (pending_step_->bounds[static_cast<size_t>(clause)].right >=
          high_watermark) {
        ready = false;
        break;
      }
    }
    if (!ready) break;
    if (taken == kMaxStepsPerAdvance) {
      steps->resize(first);
      EndOnBudget();
      return 0;
    }
    steps->push_back(std::move(*pending_step_));
    pending_step_.reset();
    ++taken;
  }
  return taken;
}

QueryRunner::Run QueryRunner::TakeRun(Timestamp high_watermark) {
  TCQ_DCHECK(sequence_.linear() != nullptr);
  Run run{sequence_.index(), 0};
  if (done_) return run;
  // The same rule by arithmetic: the windows whose every stream clause
  // ends below the watermark, up to the loop's end.
  uint64_t n = sequence_.safe_steps();
  for (size_t s = 0; s < analyzed_->layout->num_sources(); ++s) {
    const int clause = analyzed_->window_clause_of_source[s];
    if (clause < 0) continue;
    n = std::min(n, sequence_.StepsEndingBelow(static_cast<size_t>(clause),
                                               high_watermark));
  }
  if (n > kMaxStepsPerAdvance) {
    EndOnBudget();
    return run;
  }
  sequence_.Skip(n);
  run.count = n;
  // Past the loop's last window, the sequence ends as Next() ends it.
  if (sequence_.safe_steps() == 0) {
    TCQ_CHECK(!sequence_.Next().has_value());
    done_ = true;
  }
  return run;
}

size_t QueryRunner::Advance(Timestamp high_watermark,
                            std::vector<ResultSet>* out) {
  std::vector<WindowSequence::Step> steps;
  TakeReady(high_watermark, &steps);
  for (WindowSequence::Step& step : steps) {
    out->push_back(ExecuteWindow(step));
    if (options_.speculative) {
      // Retain the fired window for revision; bounded history.
      fired_.push_back(FiredWindow{std::move(step), out->back().rows});
      if (fired_.size() > kMaxFiredHistory) fired_.erase(fired_.begin());
    }
  }
  return steps.size();
}

size_t QueryRunner::Revise(Timestamp late_ts, std::vector<ResultSet>* out) {
  if (!options_.speculative) return 0;
  size_t revised = 0;
  for (FiredWindow& fw : fired_) {
    // `late_ts` is the FLOOR of the changed range — one release batch can
    // carry several late timestamps, so any window reaching at or past the
    // floor may have changed. Re-execution is pure and the diff below is
    // empty for untouched windows, so over-selection only costs work.
    bool affected = false;
    for (size_t s = 0; s < analyzed_->layout->num_sources(); ++s) {
      const int clause = analyzed_->window_clause_of_source[s];
      if (clause < 0) continue;
      const WindowBounds& b = fw.step.bounds[static_cast<size_t>(clause)];
      if (late_ts <= b.right) {
        affected = true;
        break;
      }
    }
    if (!affected) continue;
    // Re-execute against the current archives (pure) and diff the result
    // multisets.
    ResultSet fresh = ExecuteWindow(fw.step);
    std::map<std::string, int> delta;  // Row key -> new count - old count.
    auto key_of = [](const Tuple& row) {
      return row.ToString() + "@" + std::to_string(row.timestamp());
    };
    for (const Tuple& row : fresh.rows) ++delta[key_of(row)];
    for (const Tuple& row : fw.rows) --delta[key_of(row)];
    ResultSet diff;
    diff.t = fw.step.t;
    // Retractions first (stale rows, in delivered order), then the fresh
    // assertions — a client applying in order nets to the revised window.
    std::map<std::string, int> take = delta;
    for (const Tuple& row : fw.rows) {
      auto it = take.find(key_of(row));
      if (it != take.end() && it->second < 0) {
        ++it->second;
        Tuple retract = row;
        retract.set_retraction(true);
        diff.rows.push_back(std::move(retract));
      }
    }
    for (const Tuple& row : fresh.rows) {
      auto it = take.find(key_of(row));
      if (it != take.end() && it->second > 0) {
        --it->second;
        diff.rows.push_back(row);
      }
    }
    if (!diff.rows.empty()) {
      out->push_back(std::move(diff));
      ++revised;
    }
    fw.rows = std::move(fresh.rows);
  }
  return revised;
}

ResultSet QueryRunner::ExecuteWindow(const WindowSequence::Step& step) {
  ResultSet result;
  result.t = step.t;

  std::vector<Tuple> wide = RunDataflow(step);

  if (analyzed_->has_aggregates) {
    const AggregatePlan& plan = analyzed_->aggregate_plan;
    AggregateState agg(plan);
    for (const Tuple& t : wide) agg.Add(plan, t);
    result.rows = agg.Emit(plan, step.t);
    return result;
  }

  result.rows.reserve(wide.size());
  for (const Tuple& t : wide) {
    result.rows.push_back(EvalSelectList(*analyzed_, t));
  }
  return result;
}

std::vector<Tuple> QueryRunner::RunDataflow(const WindowSequence::Step& step) {
  const SourceLayout& layout = *analyzed_->layout;
  const size_t n = layout.num_sources();
  Eddy eddy(&layout, MakePolicy(options_.policy, options_.seed));

  // Filters.
  for (const auto& f : analyzed_->filters) {
    eddy.AddOperator(
        std::make_shared<FilterOp>(f.expr->ToString(), f.expr, f.required));
  }

  // Join machinery for multi-source queries: one SteM per (source, key)
  // plus probes along every join edge (grouped per target so alternative
  // probe paths never duplicate).
  if (n > 1) {
    // Choose a key column per source: the first join edge touching it.
    std::vector<int> key_of(n, -1);
    for (const auto& j : analyzed_->joins) {
      if (key_of[j.src_a] == -1) key_of[j.src_a] = j.col_a;
      if (key_of[j.src_b] == -1) key_of[j.src_b] = j.col_b;
    }
    std::vector<SteMPtr> stems(n);
    for (size_t s = 0; s < n; ++s) {
      stems[s] = std::make_shared<SteM>("stem[" + layout.alias(s) + "]",
                                        layout.full_schema(), key_of[s]);
      eddy.AddOperator(std::make_shared<StemBuildOp>(
          "build[" + layout.alias(s) + "]", s, stems[s]));
    }
    // Probe edges: for each pair (probe source x -> target s), keyed when
    // a join edge connects them, otherwise a scan probe (cross product —
    // residual filters weed composites downstream).
    for (size_t target = 0; target < n; ++target) {
      for (size_t x = 0; x < n; ++x) {
        if (x == target) continue;
        int probe_key = -1;
        for (const auto& j : analyzed_->joins) {
          if (j.src_a == x && j.src_b == target &&
              j.col_b == key_of[target]) {
            probe_key = j.col_a;
          } else if (j.src_b == x && j.src_a == target &&
                     j.col_a == key_of[target]) {
            probe_key = j.col_b;
          }
        }
        SmallBitset probe_sources(n);
        probe_sources.Set(x);
        eddy.AddOperator(
            std::make_shared<StemProbeOp>(
                "probe[" + layout.alias(target) + "<-" + layout.alias(x) +
                    "]",
                &layout, target, stems[target], std::move(probe_sources),
                probe_key),
            /*group=*/static_cast<int>(target));
      }
    }
  }

  std::vector<Tuple> out;
  eddy.SetSink([&](RoutedTuple&& rt) { out.push_back(std::move(rt.tuple)); });

  // Inject every source's window contents (tables inject fully).
  for (size_t s = 0; s < n; ++s) {
    if (analyzed_->defs[s].is_table) {
      for (const Tuple& t : table_rows_[s]) eddy.Inject(s, t);
      continue;
    }
    const int clause = analyzed_->window_clause_of_source[s];
    TCQ_CHECK(clause >= 0);
    const WindowBounds& b = step.bounds[static_cast<size_t>(clause)];
    archives_[s]->ScanApply(b.left, b.right, [&](const Tuple& t) {
      ++tuples_scanned_;
      eddy.Inject(s, t);
    });
  }
  eddy.Drain();
  total_visits_ += eddy.visits();
  return out;
}

class SharedWindowScan::Query {
 public:
  Query(QueryRunner* r, size_t slot)
      : aggregates(r->analyzed_->has_aggregates),
        plan(r->analyzed_->aggregate_plan),
        runner(r),
        slot(slot),
        aq(*r->analyzed_),
        clause(static_cast<size_t>(aq.window_clause_of_source[0])),
        linear(r->sequence_.linear()),
        next_k(r->sequence_.index()) {
    // Group keys compare as a total order unless they are doubles (NaN).
    const bool merges =
        !aggregates ||
        (plan.Mergeable() &&
         std::none_of(aq.group_by.begin(), aq.group_by.end(),
                      [](const ExprPtr& e) {
                        return e->result_type() == ValueType::kDouble;
                      }));
    // Panes need a window that moves forward with a constant width, and
    // a ring that holds a window's panes.
    const LinearLoop& loop = *linear;
    const LinearLoop::End& left = loop.left(clause);
    const LinearLoop::End& right = loop.right(clause);
    int64_t span = 0;
    if (merges && loop.steps > 0 && left.moves && right.moves &&
        !__builtin_sub_overflow(right.offset, left.offset, &span) &&
        span >= 0 && span < INT64_MAX) {
      const int64_t w = span + 1;
      const int64_t g = std::gcd(w, loop.hop);
      if (static_cast<uint64_t>(w / g) <= kMaxRingPanes) {
        width = w;
        hop = loop.hop;
        pane = g;
        per_window = static_cast<uint64_t>(w / g);
        // Past a hop wider than the window, slots skip the gaps.
        per_hop = hop > width ? per_window : static_cast<uint64_t>(hop / g);
        anchor = left.At(loop.t0);
        filled = anchor;
        merged = AggregateState(plan);
      }
    }
    // A landmark: the left end stays at L while the right end moves.
    landmark = aggregates && !left.moves && right.moves;
    if (landmark) {
      anchor = left.offset;
      filled = anchor;
      running = AggregateState(plan);
    }
  }

  /// Panes one ring may span: a window of more panes is its own unit.
  static constexpr uint64_t kMaxRingPanes = 1 << 14;

  // --- The pane grid of window k: its left end anchor + k*hop, its
  // panes `pane` ticks each from there. A pane's slot numbers the panes
  // some window covers, in order: every pane when the hop is at most the
  // width, else per_window panes per window and none in the gaps.
  Timestamp WindowLeft(uint64_t k) const {
    return static_cast<Timestamp>(static_cast<uint64_t>(anchor) +
                                  k * static_cast<uint64_t>(hop));
  }
  uint64_t FirstSlot(uint64_t k) const { return k * per_hop; }
  /// The slot holding `ts` >= anchor or, in a gap between windows, the
  /// first slot after it (`*inside` false).
  uint64_t SlotAt(Timestamp ts, bool* inside) const {
    const uint64_t d =
        static_cast<uint64_t>(ts) - static_cast<uint64_t>(anchor);
    const uint64_t p = static_cast<uint64_t>(pane);
    *inside = true;
    if (hop <= width) return d / p;
    const uint64_t k = d / static_cast<uint64_t>(hop);
    const uint64_t r = d % static_cast<uint64_t>(hop);
    *inside = r < static_cast<uint64_t>(width);
    return *inside ? k * per_window + r / p : (k + 1) * per_window;
  }
  Timestamp SlotStart(uint64_t s) const {
    const uint64_t p = static_cast<uint64_t>(pane);
    const uint64_t d =
        hop <= width ? s * p
                     : s / per_window * static_cast<uint64_t>(hop) +
                           s % per_window * p;
    return static_cast<Timestamp>(static_cast<uint64_t>(anchor) + d);
  }
  /// Whether window k merges from the ring: its panes are kept (none
  /// below `base`) and the ring can hold them with those kept before.
  bool OnRing(uint64_t k) const {
    return FirstSlot(k) >= base &&
           FirstSlot(k) + per_window - base <= kMaxRingPanes;
  }

  struct Pane {
    bool used = false;  ///< Holds at least one tuple.
    AggregateState agg;
    TupleVector rows;
  };
  Pane& Slot(uint64_t s) { return ring[s & (ring.size() - 1)]; }
  /// Back to empty, keeping the storage; whether it held anything.
  static bool Clean(Pane& p) {
    if (!p.used) return false;
    p.used = false;
    p.agg.Clear();
    p.rows.clear();
    return true;
  }
  /// Drops the panes below slot `s`, for good; returns how many held
  /// tuples.
  uint64_t DropBelow(uint64_t s) {
    uint64_t dropped = 0;
    for (uint64_t i = base; i < std::min(s, top); ++i) {
      dropped += Clean(Slot(i));
    }
    base = std::max(base, s);
    top = std::max(top, base);
    last_len = 0;
    return dropped;
  }
  /// Drops the panes from slot `s` on; returns how many held tuples.
  uint64_t DropFrom(uint64_t s) {
    uint64_t dropped = 0;
    const uint64_t from = std::max(s, base);
    for (uint64_t i = from; i < top; ++i) dropped += Clean(Slot(i));
    top = std::min(top, from);
    last_len = 0;
    return dropped;
  }
  /// The pane `ts` falls in: the scan passes timestamps in order, so
  /// usually the last one reached.
  Pane& PaneAt(Timestamp ts, uint64_t* built) {
    if (static_cast<uint64_t>(ts) - static_cast<uint64_t>(last_start) <
        last_len) {
      return Slot(last_slot);
    }
    bool inside = false;
    const uint64_t s = SlotAt(ts, &inside);
    TCQ_DCHECK(inside && s >= base && s - base < kMaxRingPanes);
    if (s - base >= ring.size()) Grow(s - base + 1);
    Pane& p = Slot(s);
    if (!p.used) {
      p.used = true;
      ++*built;
    }
    top = std::max(top, s + 1);
    last_slot = s;
    last_start = SlotStart(s);
    last_len = static_cast<uint64_t>(pane);
    return p;
  }
  /// Re-places the kept panes in a ring of at least `need` slots.
  void Grow(uint64_t need) {
    size_t size = std::max<size_t>(ring.size(), 8);
    while (size < need) size *= 2;
    std::vector<Pane> grown(size);
    for (Pane& p : grown) p.agg = AggregateState(plan);
    for (uint64_t s = base; s < top; ++s) {
      std::swap(grown[s & (size - 1)], Slot(s));
    }
    ring.swap(grown);
  }

  /// The result set of fired window `i`: a grid window is the in-order
  /// merge of its panes (projections: their rows concatenated), a
  /// landmark window what the running state emitted, any other window its
  /// own unit.
  ResultSet Emit(size_t i);
  /// Schedules the tuples in [filled, through] that windows from k on
  /// cover (all of them unless the hop exceeds the width) for their
  /// panes.
  void FillPanes(uint64_t k, Timestamp through) {
    for (;; ++k) {
      const Timestamp left = WindowLeft(k);
      if (left > through) break;
      const Timestamp lo = std::max(filled, left);
      const Timestamp hi =
          hop <= width || static_cast<uint64_t>(through) -
                                  static_cast<uint64_t>(left) <
                              static_cast<uint64_t>(width - 1)
              ? through
              : left + (width - 1);
      if (lo <= hi) {
        if (!builds.empty() && builds.back().unit < 0 &&
            builds.back().hi + 1 == lo) {
          builds.back().hi = hi;
        } else {
          builds.push_back({lo, hi, -1});
        }
      }
      if (hop <= width) break;
    }
    filled = std::max(filled, through + 1);
  }
  /// A window scanned whole for its own state.
  void AddUnit(Timestamp t, Timestamp left, Timestamp right) {
    uint32_t unit = 0;
    if (aggregates) {
      unit = static_cast<uint32_t>(unit_aggs.size());
      unit_aggs.emplace_back(plan);
    } else {
      unit = static_cast<uint32_t>(unit_rows.size());
      unit_rows.emplace_back();
    }
    fires.push_back({Fire::kUnit, unit, 0, t, right});
    if (left <= right) builds.push_back({left, right, unit});
  }

  /// Plans the fired windows `run`: a grid window from its panes when the
  /// ring holds them, a landmark window from the running state, any other
  /// whole. In a full advance it also fills, through everything the
  /// watermark completed, the panes or the running state of the next
  /// window.
  void Plan(const QueryRunner::Run& run, Timestamp hwm, bool full,
            Timestamp floor) {
    // Once history from L on is no longer whole, every landmark window
    // sees only what is retained, as its own scan would: a unit.
    if (landmark && floor > anchor) Release();
    std::optional<uint64_t> first_k;  // The first window of the panes.
    Timestamp through = kMinTimestamp;
    // The first timestamp the running state is not planned to hold.
    Timestamp running_to = filled;
    for (uint64_t k = run.first; k < run.first + run.count; ++k) {
      const Timestamp t = linear->TimeAt(k);
      const Timestamp left = linear->left(clause).At(t);
      const Timestamp right = linear->right(clause).At(t);
      if (pane > 0 && OnRing(k)) {
        fires.push_back({Fire::kPanes, 0, k, t, 0});
        if (!first_k) first_k = k;
        through = right;
      } else if (landmark && right + 1 >= running_to) {
        fires.push_back({Fire::kRunning,
                         static_cast<uint32_t>(unit_rows.size()), 0, t,
                         right});
        unit_rows.emplace_back();
        running_to = right + 1;
      } else {
        AddUnit(t, left, right);
      }
    }
    next_k = run.first + run.count;
    // A next window ends at or past the watermark; a full advance fills
    // what the watermark completed of it.
    const bool fill = full && !runner->done();
    if (pane > 0) {
      if (fill && hwm > anchor && OnRing(next_k)) {
        if (!first_k) first_k = next_k;
        through = hwm - 1;
      }
      if (first_k) FillPanes(*first_k, through);
    } else if (landmark) {
      if (fill && hwm > running_to) running_to = hwm;
      if (running_to > filled) {
        builds.push_back({filled, running_to - 1, -1});
        filled = running_to;
      }
    }
  }

  /// Brings the builds open at `ts` up to date, emits the landmark
  /// windows due before it, and notes the next timestamp at which either
  /// changes: the scan passes timestamps in order, so until then each
  /// passing tuple goes straight to the open builds.
  void Reopen(Timestamp ts) {
    while (next_open < builds.size() && builds[next_open].lo <= ts) {
      open.push_back({builds[next_open].hi, builds[next_open].unit});
      ++next_open;
    }
    std::erase_if(open, [ts](const Open& o) { return o.hi < ts; });
    if (landmark) EmitRunning(ts);
    // Every bound below ends before the watermark, so + 1 cannot wrap.
    next_change = kMaxTimestamp;
    if (next_open < builds.size()) next_change = builds[next_open].lo;
    for (const Open& o : open) next_change = std::min(next_change, o.hi + 1);
    if (landmark && next_due < fires.size()) {
      next_change = std::min(next_change, fires[next_due].right + 1);
    }
  }
  /// Adds a passing tuple to every open build.
  void Take(const Tuple& t, uint64_t* built) {
    const Timestamp ts = t.timestamp();
    if (aggregates) {
      for (const Open& o : open) {
        (o.unit >= 0   ? unit_aggs[o.unit]
         : landmark ? Feed()
                    : PaneAt(ts, built).agg)
            .Add(plan, t);
      }
      return;
    }
    const Tuple row = EvalSelectList(aq, t);
    for (const Open& o : open) {
      (o.unit < 0 ? PaneAt(ts, built).rows : unit_rows[o.unit]).push_back(row);
    }
  }

  /// The running state, for one more tuple.
  AggregateState& Feed() {
    ++fed_since_checkpoint;
    return running;
  }
  /// Emits, from the running state, the landmark windows of this advance
  /// that end before `ts`: the state holds exactly each one's tuples
  /// then. Takes a copy of the state once 64 + 4 x groups tuples have
  /// been fed since the last, so copying stays a small share of feeding.
  void EmitRunning(Timestamp ts) {
    for (; next_due < fires.size(); ++next_due) {
      const Fire& f = fires[next_due];
      if (f.kind != Fire::kRunning) continue;
      if (f.right >= ts) return;
      TupleVector& rows = unit_rows[f.unit];
      rows = running.Emit(plan, f.t);
      if (fed_since_checkpoint >= 64 + 4 * rows.size()) {
        checkpoints.push_back({f.right + 1, running});
        if (checkpoints.size() > kCheckpoints) {
          checkpoints.erase(checkpoints.begin());
        }
        fed_since_checkpoint = 0;
      }
    }
  }
  /// A rewrite at `mark`, below `filled`: resumes from the newest copy
  /// taken below it, or from the anchor.
  void Rewind(Timestamp mark) {
    while (!checkpoints.empty() && checkpoints.back().filled > mark) {
      checkpoints.pop_back();
    }
    if (checkpoints.empty()) {
      running.Clear();
      filled = anchor;
    } else {
      running = checkpoints.back().agg;
      filled = checkpoints.back().filled;
    }
    fed_since_checkpoint = 0;
  }
  /// Frees the standing state: the query fires no more, or (a landmark
  /// the archive floor has passed) its windows are units from now on.
  void Release() {
    ring = {};
    base = top = 0;
    last_len = 0;
    pane = 0;
    landmark = false;
    running.Clear();
    checkpoints.clear();
  }
  /// Back to no advance in progress, keeping the storage.
  void EndAdvance() {
    fires.clear();
    unit_aggs.clear();
    unit_rows.clear();
    builds.clear();
    next_open = 0;
    next_due = 0;
    open.clear();
    next_change = kMinTimestamp;
  }

  // --- What the scan reads for each passing tuple, first.
  /// Up to this timestamp, a passing tuple only goes to the open builds
  /// (Reopen).
  Timestamp next_change = kMinTimestamp;
  const bool aggregates;  ///< The select list has aggregates.
  /// A landmark aggregate's one pane: the state of the passing tuples in
  /// [anchor, filled), fed in archive order, and copies of it, oldest
  /// first, each as of its own `filled`.
  bool landmark = false;
  /// A build open at the scan's position: its right end and its unit (<
  /// 0: the panes or the running state).
  struct Open {
    Timestamp hi;
    int64_t unit;
  };
  std::vector<Open> open;
  /// The pane grid; pane == 0 when every window is its own unit.
  int64_t pane = 0;
  /// The last pane PaneAt reached: its slot and its ticks from
  /// last_start (0 after a drop).
  uint64_t last_slot = 0;
  Timestamp last_start = 0;
  uint64_t last_len = 0;
  /// The panes by slot: slot s at Slot(s) for s in [base, top); every
  /// other entry is empty. Its size is a power of two.
  std::vector<Pane> ring;
  uint64_t base = 0;  ///< Panes below it are gone.
  uint64_t top = 0;   ///< No pane from it on holds anything yet.
  /// The query's, copied next to the rest.
  const AggregatePlan plan;

  QueryRunner* runner;
  const size_t slot;  ///< Its bit in the query index.
  const AnalyzedQuery& aq;
  const size_t clause;

  int64_t width = 0;
  int64_t hop = 0;
  uint64_t per_window = 0;  ///< Panes per window.
  uint64_t per_hop = 0;     ///< Slots from one window's first to the next.
  const LinearLoop* const linear;  ///< The runner's loop.
  /// The first window not fired yet: the runner's sequence index.
  uint64_t next_k;
  /// The grid's first window's left end, or the landmark's left end L.
  Timestamp anchor = 0;
  /// Every tuple below it that a later window covers is in its pane;
  /// the last pane may still be filling.
  Timestamp filled = kMinTimestamp;
  AggregateState merged;  ///< A window's merge (reused).

  AggregateState running;
  struct Checkpoint {
    Timestamp filled;
    AggregateState agg;
  };
  static constexpr size_t kCheckpoints = 16;
  /// A vector, not a deque: an empty one allocates nothing, and only
  /// landmarks fill it.
  std::vector<Checkpoint> checkpoints;
  uint64_t fed_since_checkpoint = 0;

  // --- One Advance.
  /// Per fired window: its grid index, its own unit, or the running state
  /// (its rows, once emitted, in unit_rows[unit]).
  struct Fire {
    enum Kind : uint8_t { kPanes, kUnit, kRunning } kind;
    uint32_t unit;
    uint64_t k;       ///< kPanes: the window's index.
    Timestamp t;      ///< The loop variable.
    Timestamp right;  ///< kRunning: the right end.
  };
  std::vector<Fire> fires;
  std::vector<AggregateState> unit_aggs;
  std::vector<TupleVector> unit_rows;
  /// A range the scan builds: panes or the running state (unit < 0), or
  /// one unit.
  struct Build {
    Timestamp lo;
    Timestamp hi;
    int64_t unit;
  };
  std::vector<Build> builds;  ///< By left end.
  size_t next_open = 0;
  size_t next_due = 0;  ///< The first fire EmitRunning has not passed.
  std::vector<ResultSet> results;
};

ResultSet SharedWindowScan::Query::Emit(size_t i) {
  const Fire& f = fires[i];
  ResultSet rs;
  rs.t = f.t;
  if (f.kind == Fire::kUnit && aggregates) {
    rs.rows = unit_aggs[f.unit].Emit(plan, rs.t);
    return rs;
  }
  if (f.kind != Fire::kPanes) {
    rs.rows = std::move(unit_rows[f.unit]);
    return rs;
  }
  const uint64_t first = FirstSlot(f.k);
  const uint64_t end = std::min(first + per_window, top);
  if (!aggregates) {
    size_t n = 0;
    for (uint64_t s = first; s < end; ++s) n += Slot(s).rows.size();
    rs.rows.reserve(n);
    for (uint64_t s = first; s < end; ++s) {
      const TupleVector& rows = Slot(s).rows;
      rs.rows.insert(rs.rows.end(), rows.begin(), rows.end());
    }
    return rs;
  }
  // One pane holding tuples emits itself; none, or several, are merged
  // behind nothing, in order, in one state kept for it.
  const Pane* single = nullptr;
  size_t used = 0;
  for (uint64_t s = first; s < end; ++s) {
    const Pane& p = Slot(s);
    if (!p.used) continue;
    if (++used == 1) {
      single = &p;
      continue;
    }
    if (used == 2) {
      merged.Clear();
      merged.Merge(plan, single->agg);
    }
    merged.Merge(plan, p.agg);
  }
  if (used == 0) merged.Clear();
  rs.rows = (used == 1 ? single->agg : merged).Emit(plan, rs.t);
  return rs;
}

SharedWindowScan::SharedWindowScan(const Archive* archive)
    : archive_(archive), rewrite_mark_(archive->WatchRewrites()) {}

SharedWindowScan::~SharedWindowScan() = default;

SharedWindowScan::Query* SharedWindowScan::Add(QueryRunner* runner) {
  TCQ_CHECK(runner->shareable());
  TCQ_CHECK(runner->archives_[0] == archive_) << "a plan reads one stream";
  size_t slot = queries_.size();
  if (free_.empty()) {
    queries_.emplace_back();
  } else {
    slot = free_.back();
    free_.pop_back();
  }
  queries_[slot] = std::make_unique<Query>(runner, slot);
  for (const AnalyzedQuery::BoundFilter& bf : runner->analyzed_->filters) {
    index_.Add(slot, {&bf.plan, 1});
  }
  return queries_[slot].get();
}

void SharedWindowScan::Remove(Query* query) { removed_.push_back(query->slot); }

void SharedWindowScan::ReleaseRemoved() {
  for (const size_t slot : removed_) {
    index_.Remove(slot);
    queries_[slot].reset();
    free_.push_back(slot);
  }
  removed_.clear();
}

uint64_t SharedWindowScan::DropStalePanes() {
  uint64_t dropped = 0;
  const Timestamp mark = *rewrite_mark_;
  *rewrite_mark_ = kMaxTimestamp;
  const Timestamp floor = archive_->floor();
  const bool evicted = floor > floor_seen_;
  floor_seen_ = std::max(floor_seen_, floor);
  if (mark == kMaxTimestamp && !evicted) return 0;
  for (const std::unique_ptr<Query>& q : queries_) {
    if (q == nullptr) continue;
    if (q->landmark) {
      if (mark < q->filled) q->Rewind(mark);
      continue;
    }
    if (q->pane == 0) continue;
    bool inside = true;
    if (mark != kMaxTimestamp) {
      // Every pane from the rewritten one on is rebuilt when needed.
      const uint64_t from = mark <= q->anchor ? 0 : q->SlotAt(mark, &inside);
      dropped += q->DropFrom(from);
      q->filled = std::min(q->filled, inside ? q->SlotStart(from) : mark);
    }
    if (evicted && floor > q->anchor) {
      // Panes starting below the floor lost tuples: windows over them
      // are their own units from now on.
      uint64_t whole = q->SlotAt(floor, &inside);
      if (inside && q->SlotStart(whole) < floor) ++whole;
      dropped += q->DropBelow(whole);
    }
  }
  return dropped;
}

SharedWindowScan::Stats SharedWindowScan::Advance(Timestamp high_watermark,
                                                  const Query* only) {
  Stats stats;
  ReleaseRemoved();
  stats.pane_rewrites = DropStalePanes();
  const size_t n = queries_.size();
  SmallBitset with_builds(n);
  std::vector<std::pair<Timestamp, Timestamp>>& ranges = ranges_;
  std::vector<Query*>& busy = busy_;  ///< Windows to emit, or builds.
  ranges.clear();
  busy.clear();

  // 1. Each query's ready windows, taken as a run of indexes, and what
  // the scan must build: the panes of its grid windows not built yet (or
  // a landmark's running state up to its last window), every other
  // window whole, and the panes (or running state) of its next window the
  // watermark has completed.
  for (size_t i = only == nullptr ? 0 : only->slot; i < n; ++i) {
    if (queries_[i] == nullptr) continue;
    Query& q = *queries_[i];
    if (only != nullptr && &q != only) break;
    QueryRunner* runner = q.runner;
    if (runner->done()) continue;
    const QueryRunner::Run run = runner->TakeRun(high_watermark);
    if (runner->status().code() == StatusCode::kResourceExhausted) {
      ++stats.budget_exceeded;
    }
    if (run.count == 0 && runner->done()) {
      q.Release();
      continue;
    }
    stats.fired += run.count;
    // Panes and the running state are filled as the watermark passes
    // their tuples: through the ready windows, and in a full advance
    // through everything the watermark completed for the next one, so
    // each tuple is read once. (A query's first advance, at Submit, reads
    // only what it fires.)
    q.Plan(run, high_watermark, only == nullptr, archive_->floor());
    if (!q.fires.empty() || !q.builds.empty()) busy.push_back(&q);
    if (q.builds.empty()) continue;
    // Usually one build, or already in order: then nothing to sort (and
    // no buffer for stable_sort to allocate).
    const auto by_lo = [](const Query::Build& a, const Query::Build& b) {
      return a.lo < b.lo;
    };
    if (!std::is_sorted(q.builds.begin(), q.builds.end(), by_lo)) {
      std::stable_sort(q.builds.begin(), q.builds.end(), by_lo);
    }
    for (const Query::Build& b : q.builds) ranges.emplace_back(b.lo, b.hi);
    with_builds.Set(i);
  }

  // 2. One scan over the merged union of the ranges: overlapping or
  // adjacent ranges coalesce, so each tuple is read once.
  std::sort(ranges.begin(), ranges.end());
  std::vector<std::pair<Timestamp, Timestamp>>& merged = merged_;
  merged.clear();
  for (const auto& r : ranges) {
    if (!merged.empty() &&
        (r.first <= merged.back().second ||
         (merged.back().second < kMaxTimestamp &&
          r.first == merged.back().second + 1))) {
      merged.back().second = std::max(merged.back().second, r.second);
    } else {
      merged.push_back(r);
    }
  }
  SmallBitset candidates(n);
  auto visit = [&](const Tuple& t) {
    ++stats.scanned;
    const Timestamp ts = t.timestamp();
    candidates = with_builds;
    index_.Narrow(t, &candidates);
    candidates.ForEachSet([&](size_t i) {
      Query& q = *queries_[i];
      if (ts >= q.next_change) q.Reopen(ts);
      if (!q.open.empty()) q.Take(t, &stats.panes);
    });
  };
  for (const auto& [lo, hi] : merged) archive_->ScanApply(lo, hi, visit);

  // 3. Emit every fired window (the landmark windows the scan did not
  // pass yet first), then drop the panes no later window covers: every
  // window from the next one on starts no earlier on the grid.
  for (Query* qp : busy) {
    Query& q = *qp;
    if (q.landmark) q.EmitRunning(kMaxTimestamp);
    for (size_t f = 0; f < q.fires.size(); ++f) {
      q.results.push_back(q.Emit(f));
    }
    if (q.runner->done()) {
      q.Release();
    } else if (q.pane > 0 && !q.fires.empty()) {
      q.DropBelow(q.FirstSlot(q.next_k));
    }
    q.EndAdvance();
  }
  return stats;
}

void SharedWindowScan::TakeResults(Query* query, std::vector<ResultSet>* out) {
  out->clear();
  out->swap(query->results);
}

}  // namespace tcq
