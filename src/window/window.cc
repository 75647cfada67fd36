#include "window/window.h"

#include <algorithm>

#include "common/logging.h"

namespace tcq {

const char* WindowClassToString(WindowClass c) {
  switch (c) {
    case WindowClass::kSnapshot:
      return "snapshot";
    case WindowClass::kLandmark:
      return "landmark";
    case WindowClass::kSliding:
      return "sliding";
    case WindowClass::kHopping:
      return "hopping";
    case WindowClass::kReverse:
      return "reverse";
    case WindowClass::kGeneral:
      return "general";
  }
  return "?";
}

WindowSequence::WindowSequence(const ForLoopSpec* spec, Timestamp st)
    : spec_(spec) {
  if (spec_ == nullptr) {  // Degenerate: an already-finished sequence.
    done_ = true;
    return;
  }
  vars_[kStartTimeSlot] = st;
  if (spec_->init != nullptr) {
    // The loop variable reads 0 here: init may not self-reference.
    EvalTimestamp(spec_->init, "for-loop init", &t_);
  } else {
    t_ = 0;
  }
}

bool WindowSequence::EvalTimestamp(const ExprPtr& e, const char* what,
                                   Timestamp* out) {
  const Value v = e->EvalConst(vars_);
  if (v.type() != ValueType::kInt64) {
    // NULL-producing or non-integer bounds must not take down the engine
    // thread (int64_value() on the wrong alternative throws); the sequence
    // simply ends and the malformed expression is reported via status().
    done_ = true;
    status_ = Status::InvalidArgument(
        std::string(what) + " evaluated to " +
        (v.is_null() ? "NULL" : std::string("non-integer ") + v.ToString()) +
        ": " + e->ToString());
    return false;
  }
  *out = v.int64_value();
  return true;
}

std::optional<WindowSequence::Step> WindowSequence::Next() {
  if (done_) return std::nullopt;
  vars_[kLoopVarSlot] = t_;
  if (spec_->condition != nullptr) {
    const Value cond = spec_->condition->EvalConst(vars_);
    if (cond.is_null()) {
      done_ = true;
      return std::nullopt;
    }
    if (cond.type() != ValueType::kBool) {
      done_ = true;
      status_ = Status::InvalidArgument(
          "for-loop condition evaluated to non-boolean " + cond.ToString() +
          ": " + spec_->condition->ToString());
      return std::nullopt;
    }
    if (!cond.bool_value()) {
      done_ = true;
      return std::nullopt;
    }
  }
  Step step;
  step.t = t_;
  for (const WindowIsClause& clause : spec_->windows) {
    WindowBounds b;
    if (!EvalTimestamp(clause.left_end, "window left end", &b.left) ||
        !EvalTimestamp(clause.right_end, "window right end", &b.right)) {
      return std::nullopt;
    }
    step.bounds.push_back(b);
  }
  // Advance the loop variable.
  if (spec_->condition == nullptr) {
    done_ = true;  // No condition: execute exactly once.
  } else if (spec_->step != nullptr) {
    // A malformed step still yields the current (well-formed) window; the
    // sequence just cannot advance past it.
    const Timestamp prev = t_;
    if (!EvalTimestamp(spec_->step, "for-loop step", &t_)) return step;
    if (t_ == prev) {
      // The condition sees only t and ST, so a step that keeps t would
      // fire this same window forever.
      done_ = true;
      status_ = Status::InvalidArgument(
          "for-loop step does not change " + spec_->var + " (stays at " +
          std::to_string(prev) + "): " + spec_->step->ToString());
    }
  } else if (t_ == kMaxTimestamp) {
    done_ = true;
    status_ = Status::OutOfRange("for-loop variable " + spec_->var +
                                 " overflows past " + std::to_string(t_));
  } else {
    ++t_;
  }
  return step;
}

namespace {
/// The first node of `e` no window bound may hold, or null: a column, an
/// aggregate call, or a variable other than `var` and ST.
const Expr* FirstForeignNode(const Expr& e, const std::string& var) {
  switch (e.kind()) {
    case ExprKind::kColumn:
    case ExprKind::kAggregate:
      return &e;
    case ExprKind::kVariable:
      return e.variable_name() == var || e.variable_name() == "ST" ? nullptr
                                                                   : &e;
    default:
      break;
  }
  const Expr* bad =
      e.left() == nullptr ? nullptr : FirstForeignNode(*e.left(), var);
  if (bad == nullptr && e.right() != nullptr) {
    bad = FirstForeignNode(*e.right(), var);
  }
  return bad;
}
}  // namespace

Status ValidateForLoop(const ForLoopSpec& spec) {
  if (spec.var == "ST") {
    return Status::InvalidArgument(
        "for-loop variable must not be named ST, the query start time");
  }
  auto check_expr = [&](const ExprPtr& e, const char* what) -> Status {
    const Expr* bad = e == nullptr ? nullptr : FirstForeignNode(*e, spec.var);
    if (bad == nullptr) return Status::OK();
    if (bad->kind() == ExprKind::kVariable) {
      return Status::InvalidArgument(std::string(what) +
                                     " references unknown variable " +
                                     bad->variable_name());
    }
    return Status::InvalidArgument(
        std::string(what) +
        " must not reference stream columns or aggregates: " + e->ToString());
  };
  TCQ_RETURN_NOT_OK(check_expr(spec.init, "for-loop init"));
  TCQ_RETURN_NOT_OK(check_expr(spec.condition, "for-loop condition"));
  TCQ_RETURN_NOT_OK(check_expr(spec.step, "for-loop step"));
  for (const WindowIsClause& c : spec.windows) {
    if (c.stream.empty()) {
      return Status::InvalidArgument("WindowIs clause without a stream");
    }
    if (c.left_end == nullptr || c.right_end == nullptr) {
      return Status::InvalidArgument("WindowIs(" + c.stream +
                                     ") needs both window ends");
    }
    TCQ_RETURN_NOT_OK(check_expr(c.left_end, "window left end"));
    TCQ_RETURN_NOT_OK(check_expr(c.right_end, "window right end"));
  }
  return Status::OK();
}

Result<WindowShape> ClassifyWindow(const ForLoopSpec& spec,
                                   size_t clause_index, Timestamp st,
                                   size_t probe_steps) {
  if (clause_index >= spec.windows.size()) {
    return Status::OutOfRange("clause index out of range");
  }
  TCQ_RETURN_NOT_OK(ValidateForLoop(spec));
  return ClassifyWindow(WindowSequence(&spec, st), clause_index,
                        probe_steps);
}

Result<WindowShape> ClassifyWindow(WindowSequence seq, size_t clause_index,
                                   size_t probe_steps) {
  // Deltas between consecutive probes; one that overflows is no constant.
  WindowBounds first{}, prev{};
  size_t probes = 0;
  int64_t dl0 = 0, dr0 = 0;
  bool left_fixed = true;
  bool constant_deltas = true;
  for (; probes < probe_steps; ++probes) {
    auto step = seq.Next();
    if (!step.has_value()) break;
    const WindowBounds& b = step->bounds[clause_index];
    if (probes == 0) {
      first = b;
    } else {
      int64_t dl = 0, dr = 0;
      if (__builtin_sub_overflow(b.left, prev.left, &dl) ||
          __builtin_sub_overflow(b.right, prev.right, &dr)) {
        constant_deltas = left_fixed = false;
      } else if (probes == 1) {
        dl0 = dl;
        dr0 = dr;
      }
      if (dl != 0) left_fixed = false;
      if (dl != dl0 || dr != dr0) constant_deltas = false;
    }
    prev = b;
  }
  // A sequence that ended because a bound/init/step was NULL or mistyped is
  // a malformed query, not a kGeneral window — surface it to the caller.
  if (!seq.status().ok()) return seq.status();
  WindowShape shape;
  if (probes == 0) {
    shape.window_class = WindowClass::kGeneral;
    return shape;
  }
  shape.width = first.Width();
  if (probes == 1 && seq.done()) {
    shape.window_class = WindowClass::kSnapshot;
    shape.hop = 0;
    shape.requires_full_window_state = false;
    return shape;
  }
  shape.hop = dr0;
  if (left_fixed && constant_deltas && dr0 > 0) {
    shape.window_class = WindowClass::kLandmark;
    shape.requires_full_window_state = false;  // Incremental MAX is O(1).
  } else if (constant_deltas && dl0 == dr0 && dr0 > 0) {
    shape.window_class = dr0 == 1 ? WindowClass::kSliding
                                  : WindowClass::kHopping;
    shape.skips_data = dr0 > shape.width;
    shape.requires_full_window_state = true;  // Eviction invalidates MAX.
  } else if (constant_deltas && dr0 < 0) {
    shape.window_class = WindowClass::kReverse;
    shape.requires_full_window_state = true;
  } else {
    shape.window_class = WindowClass::kGeneral;
    shape.requires_full_window_state = true;
  }
  return shape;
}

namespace {
ExprPtr TVar() { return Expr::Variable("t"); }
ExprPtr IntLit(Timestamp v) { return Expr::Literal(Value::Int64(v)); }
}  // namespace

ForLoopSpec MakeSnapshotWindow(const std::string& stream, Timestamp left,
                               Timestamp right) {
  ForLoopSpec spec;
  // The paper's snapshot idiom: for (; t==0; t = -1) { WindowIs(S, l, r); }
  spec.condition = Expr::Binary(BinaryOp::kEq, TVar(), IntLit(0));
  spec.step = IntLit(-1);
  spec.windows.push_back({stream, IntLit(left), IntLit(right)});
  return spec;
}

ForLoopSpec MakeLandmarkWindow(const std::string& stream, Timestamp left,
                               Timestamp start_t, Timestamp end_t) {
  ForLoopSpec spec;
  spec.init = IntLit(start_t);
  spec.condition = Expr::Binary(BinaryOp::kLe, TVar(), IntLit(end_t));
  spec.step = Expr::Binary(BinaryOp::kAdd, TVar(), IntLit(1));
  spec.windows.push_back({stream, IntLit(left), TVar()});
  return spec;
}

ForLoopSpec MakeSlidingWindow(const std::string& stream, int64_t width,
                              int64_t hop, Timestamp start_t,
                              std::optional<Timestamp> end_t) {
  TCQ_CHECK(width > 0 && hop > 0);
  ForLoopSpec spec;
  spec.init = IntLit(start_t);
  if (end_t.has_value()) {
    spec.condition = Expr::Binary(BinaryOp::kLt, TVar(), IntLit(*end_t));
  } else {
    spec.condition = Expr::Literal(Value::Bool(true));  // Standing CQ.
  }
  spec.step = Expr::Binary(BinaryOp::kAdd, TVar(), IntLit(hop));
  spec.windows.push_back(
      {stream, Expr::Binary(BinaryOp::kSub, TVar(), IntLit(width - 1)),
       TVar()});
  return spec;
}

}  // namespace tcq
