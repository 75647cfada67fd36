#include "core/runner.h"

#include <algorithm>
#include <map>

#include "common/logging.h"
#include "modules/grouped_filter.h"

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
    : analyzed_(std::move(analyzed)),
      archives_(std::move(archives)),
      table_rows_(std::move(table_rows)),
      options_(options),
      sequence_(analyzed_.window.has_value() ? &*analyzed_.window
                                             : nullptr,
                options.start_time) {
  TCQ_CHECK(archives_.size() == analyzed_.layout->num_sources());
  TCQ_CHECK(table_rows_.size() == analyzed_.layout->num_sources());
  if (!analyzed_.window.has_value()) {
    // Table-only snapshot: run once over everything.
    static const ForLoopSpec* const kOnce = new ForLoopSpec(OnceSpec());
    sequence_ = WindowSequence(kOnce, options.start_time);
  }

  // Landmark fast path (§4.1.2): single windowed stream + aggregates over
  // a landmark window never retire tuples — keep running accumulators.
  // Disabled for speculative queries: Revise() re-executes fired windows,
  // which the incremental accumulators cannot rewind.
  if (!options_.speculative && analyzed_.has_aggregates &&
      analyzed_.window.has_value() &&
      analyzed_.window->windows.size() == 1 &&
      analyzed_.layout->num_sources() == 1) {
    auto shape = ClassifyWindow(*analyzed_.window, 0, options_.start_time);
    if (shape.ok() && (shape->window_class == WindowClass::kLandmark ||
                       shape->window_class == WindowClass::kSnapshot)) {
      use_landmark_path_ = true;
      landmark_clause_ = 0;
      landmark_agg_ = std::make_unique<WindowAggregator>(
          analyzed_.aggregates, analyzed_.group_by, /*retain_tuples=*/false);
      landmark_rewrite_mark_ = archives_[0]->WatchRewrites();
    }
  }

  shareable_ = !options_.speculative && !use_landmark_path_ &&
               analyzed_.window.has_value() &&
               analyzed_.layout->num_sources() == 1 &&
               !analyzed_.defs[0].is_table;
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
    for (size_t s = 0; s < analyzed_.layout->num_sources(); ++s) {
      const int clause = analyzed_.window_clause_of_source[s];
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
      pending_step_.reset();
      done_ = true;
      status_ = Status::ResourceExhausted(
          "for-loop makes more than " + std::to_string(kMaxStepsPerAdvance) +
          " windows ready in one advance");
      return 0;
    }
    steps->push_back(std::move(*pending_step_));
    pending_step_.reset();
    ++taken;
  }
  return taken;
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
      if (fired_.size() > kMaxFiredHistory) fired_.pop_front();
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
    for (size_t s = 0; s < analyzed_.layout->num_sources(); ++s) {
      const int clause = analyzed_.window_clause_of_source[s];
      if (clause < 0) continue;
      const WindowBounds& b = fw.step.bounds[static_cast<size_t>(clause)];
      if (late_ts <= b.right) {
        affected = true;
        break;
      }
    }
    if (!affected) continue;
    // Re-execute against the current archives (pure: the landmark path is
    // off in speculative mode) and diff the result multisets.
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

  if (use_landmark_path_) {
    // Incremental: only the newly exposed suffix of the window is fed.
    const WindowBounds& b =
        step.bounds[static_cast<size_t>(landmark_clause_)];
    const Timestamp rewritten = *landmark_rewrite_mark_;
    if (rewritten <= landmark_fed_through_) {
      // A late insert or a retraction changed history the accumulators
      // already hold: resume from the newest checkpoint before it, or
      // refeed the window from its left end. A rewrite past the fed
      // history is simply in the suffix fed below.
      while (!landmark_checkpoints_.empty() &&
             landmark_checkpoints_.back().fed_through >= rewritten) {
        landmark_checkpoints_.pop_back();
      }
      if (landmark_checkpoints_.empty()) {
        landmark_agg_->Reset();
        landmark_fed_through_ = kMinTimestamp;
      } else {
        landmark_agg_ = std::make_unique<WindowAggregator>(
            landmark_checkpoints_.back().agg);
        landmark_fed_through_ = landmark_checkpoints_.back().fed_through;
      }
    }
    *landmark_rewrite_mark_ = kMaxTimestamp;
    const uint64_t scanned_before = tuples_scanned_;
    const Timestamp from =
        std::max(b.left, landmark_fed_through_ == kMinTimestamp
                             ? b.left
                             : landmark_fed_through_ + 1);
    archives_[0]->ScanApply(from, b.right, [&](const Tuple& narrow) {
      ++tuples_scanned_;
      // Landmark filters still apply before aggregation.
      const Tuple wide = analyzed_.layout->Widen(0, narrow);
      for (const auto& f : analyzed_.filters) {
        const Value keep = f.expr->Eval(wide);
        if (keep.is_null() || !keep.bool_value()) return;
      }
      landmark_agg_->Add(wide);
    });
    if (b.right > landmark_fed_through_) landmark_fed_through_ = b.right;
    result.rows = landmark_agg_->Emit(step.t);
    landmark_fed_since_checkpoint_ += tuples_scanned_ - scanned_before;
    if (landmark_fed_since_checkpoint_ >= 64 + 4 * result.rows.size()) {
      landmark_checkpoints_.push_back({landmark_fed_through_, *landmark_agg_});
      if (landmark_checkpoints_.size() > kLandmarkCheckpoints) {
        landmark_checkpoints_.pop_front();
      }
      landmark_fed_since_checkpoint_ = 0;
    }
    return result;
  }

  std::vector<Tuple> wide = RunDataflow(step);

  if (analyzed_.has_aggregates) {
    WindowAggregator agg(analyzed_.aggregates, analyzed_.group_by,
                         /*retain_tuples=*/false);
    for (const Tuple& t : wide) agg.Add(t);
    result.rows = agg.Emit(step.t);
    return result;
  }

  result.rows.reserve(wide.size());
  for (const Tuple& t : wide) {
    std::vector<Value> cells;
    cells.reserve(analyzed_.projections.size());
    for (const ExprPtr& e : analyzed_.projections) cells.push_back(e->Eval(t));
    result.rows.push_back(Tuple::Make(std::move(cells), t.timestamp()));
  }
  return result;
}

std::vector<Tuple> QueryRunner::RunDataflow(const WindowSequence::Step& step) {
  const SourceLayout& layout = *analyzed_.layout;
  const size_t n = layout.num_sources();
  Eddy eddy(&layout, MakePolicy(options_.policy, options_.seed));

  // Filters.
  for (const auto& f : analyzed_.filters) {
    eddy.AddOperator(
        std::make_shared<FilterOp>(f.expr->ToString(), f.expr, f.required));
  }

  // Join machinery for multi-source queries: one SteM per (source, key)
  // plus probes along every join edge (grouped per target so alternative
  // probe paths never duplicate).
  if (n > 1) {
    // Choose a key column per source: the first join edge touching it.
    std::vector<int> key_of(n, -1);
    for (const auto& j : analyzed_.joins) {
      if (key_of[j.src_a] == -1) key_of[j.src_a] = j.col_a;
      if (key_of[j.src_b] == -1) key_of[j.src_b] = j.col_b;
    }
    std::vector<SteMPtr> stems(n);
    for (size_t s = 0; s < n; ++s) {
      SteM::Options so;
      so.key_field = key_of[s];
      stems[s] = std::make_shared<SteM>("stem[" + layout.alias(s) + "]",
                                        layout.full_schema(), so);
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
        for (const auto& j : analyzed_.joins) {
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
                probe_key, nullptr),
            /*group=*/static_cast<int>(target));
      }
    }
  }

  std::vector<Tuple> out;
  eddy.SetSink([&](RoutedTuple&& rt) { out.push_back(std::move(rt.tuple)); });

  // Inject every source's window contents (tables inject fully).
  for (size_t s = 0; s < n; ++s) {
    if (analyzed_.defs[s].is_table) {
      for (const Tuple& t : table_rows_[s]) eddy.Inject(s, t);
      continue;
    }
    const int clause = analyzed_.window_clause_of_source[s];
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

size_t SharedWindowScan::Add(QueryRunner* runner, Timestamp high_watermark) {
  TCQ_CHECK(runner->shareable());
  TCQ_CHECK(archive_ == nullptr || archive_ == runner->archives_[0])
      << "a shared scan reads one stream";
  archive_ = runner->archives_[0];
  Slot slot;
  slot.runner = runner;
  fired_ += runner->TakeReady(high_watermark, &slot.steps);
  slots_.push_back(std::move(slot));
  return slots_.size() - 1;
}

void SharedWindowScan::Run() {
  if (fired_ == 0) return;
  const size_t n = slots_.size();
  // Per-slot window state: one aggregator (aggregate queries) or one row
  // list (projections) per ready step, plus the open-window cursor. The
  // scan runs in timestamp order, so a window opens once the scan reaches
  // its left end and closes for good once it passes its right end.
  struct Live {
    std::vector<WindowAggregator> aggs;
    std::vector<TupleVector> rows;
    std::vector<uint32_t> by_left;  ///< Step indices ordered by left end.
    size_t next_open = 0;
    std::vector<uint32_t> open;  ///< Opened, not yet seen closed.
  };
  std::vector<Live> live(n);
  std::vector<std::pair<Timestamp, Timestamp>> ranges;
  SmallBitset with_steps(n);
  // Per-column grouped filters over the ready slots' simple factors (a
  // NULL cell fails every slot a filter constrains, as the factor's own
  // evaluation would).
  struct ColumnFilter {
    size_t column;
    GroupedFilter filter;
  };
  std::vector<ColumnFilter> filters;

  for (size_t q = 0; q < n; ++q) {
    const Slot& slot = slots_[q];
    if (slot.steps.empty()) continue;
    with_steps.Set(q);
    const AnalyzedQuery& aq = slot.runner->analyzed_;
    const size_t clause =
        static_cast<size_t>(aq.window_clause_of_source[0]);
    Live& lv = live[q];
    if (aq.has_aggregates) {
      lv.aggs.reserve(slot.steps.size());
      for (size_t i = 0; i < slot.steps.size(); ++i) {
        lv.aggs.emplace_back(aq.aggregates, aq.group_by,
                             /*retain_tuples=*/false);
      }
    } else {
      lv.rows.resize(slot.steps.size());
    }
    lv.by_left.resize(slot.steps.size());
    for (size_t i = 0; i < slot.steps.size(); ++i) {
      lv.by_left[i] = static_cast<uint32_t>(i);
      const WindowBounds& b = slot.steps[i].bounds[clause];
      if (b.left <= b.right) ranges.emplace_back(b.left, b.right);
    }
    std::stable_sort(lv.by_left.begin(), lv.by_left.end(),
                     [&](uint32_t a, uint32_t b) {
                       return slot.steps[a].bounds[clause].left <
                              slot.steps[b].bounds[clause].left;
                     });
    for (const AnalyzedQuery::BoundFilter& bf : aq.filters) {
      const FactorPlan& f = bf.plan;
      if (f.kind != FactorPlan::Kind::kGrouped) continue;
      auto it = std::find_if(filters.begin(), filters.end(),
                             [&](const ColumnFilter& cf) {
                               return cf.column == f.column;
                             });
      if (it == filters.end()) {
        filters.push_back(ColumnFilter{f.column, GroupedFilter()});
        it = filters.end() - 1;
      }
      it->filter.AddPredicate(static_cast<QueryId>(q), f.op, f.constant);
    }
  }
  // The merged union of the ready windows: overlapping or adjacent ranges
  // coalesce, so every tuple any window needs is read exactly once.
  std::sort(ranges.begin(), ranges.end());
  std::vector<std::pair<Timestamp, Timestamp>> merged;
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
  uint64_t scanned = 0;
  auto visit = [&](const Tuple& t) {
    ++scanned;
    const Timestamp ts = t.timestamp();
    candidates = with_steps;
    for (const ColumnFilter& cf : filters) {
      cf.filter.Apply(t.cell(cf.column), &candidates);
    }
    candidates.ForEachSet([&](size_t q) {
      const Slot& slot = slots_[q];
      const AnalyzedQuery& aq = slot.runner->analyzed_;
      const size_t clause =
          static_cast<size_t>(aq.window_clause_of_source[0]);
      Live& lv = live[q];
      while (lv.next_open < lv.by_left.size() &&
             slot.steps[lv.by_left[lv.next_open]].bounds[clause].left <= ts) {
        lv.open.push_back(lv.by_left[lv.next_open++]);
      }
      lv.open.erase(std::remove_if(lv.open.begin(), lv.open.end(),
                                   [&](uint32_t w) {
                                     return slot.steps[w].bounds[clause].right <
                                            ts;
                                   }),
                    lv.open.end());
      if (lv.open.empty()) return;
      for (const AnalyzedQuery::BoundFilter& bf : aq.filters) {
        if (bf.plan.kind != FactorPlan::Kind::kResidual) continue;
        const Value keep = bf.expr->Eval(t);
        if (keep.is_null() || !keep.bool_value()) return;
      }
      if (aq.has_aggregates) {
        for (uint32_t w : lv.open) lv.aggs[w].Add(t);
        return;
      }
      std::vector<Value> cells;
      cells.reserve(aq.projections.size());
      for (const ExprPtr& e : aq.projections) cells.push_back(e->Eval(t));
      const Tuple row = Tuple::Make(std::move(cells), ts);
      for (uint32_t w : lv.open) lv.rows[w].push_back(row);
    });
  };
  for (const auto& [lo, hi] : merged) archive_->ScanApply(lo, hi, visit);
  scanned_ += scanned;

  for (size_t q = 0; q < n; ++q) {
    Slot& slot = slots_[q];
    Live& lv = live[q];
    slot.results.reserve(slot.steps.size());
    for (size_t i = 0; i < slot.steps.size(); ++i) {
      ResultSet rs;
      rs.t = slot.steps[i].t;
      rs.rows = slot.runner->analyzed_.has_aggregates
                    ? lv.aggs[i].Emit(rs.t)
                    : std::move(lv.rows[i]);
      slot.results.push_back(std::move(rs));
    }
  }
}

std::vector<ResultSet> SharedWindowScan::TakeResults(size_t slot) {
  return std::move(slots_[slot].results);
}

}  // namespace tcq
