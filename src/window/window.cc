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
  env_["ST"] = Value::Int64(st);
  if (spec_->init != nullptr) {
    env_[spec_->var] = Value::Int64(0);  // Init may not self-reference.
    EvalTimestamp(spec_->init, "for-loop init", &t_);
  } else {
    t_ = 0;
  }
}

bool WindowSequence::EvalTimestamp(const ExprPtr& e, const char* what,
                                   Timestamp* out) {
  const Value v = e->EvalConst(env_);
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
  env_[spec_->var] = Value::Int64(t_);
  if (spec_->condition != nullptr) {
    const Value cond = spec_->condition->EvalConst(env_);
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
  step.bounds.reserve(spec_->windows.size());
  for (const WindowIsClause& clause : spec_->windows) {
    WindowBounds b;
    b.stream = clause.stream;
    if (!EvalTimestamp(clause.left_end, "window left end", &b.left) ||
        !EvalTimestamp(clause.right_end, "window right end", &b.right)) {
      return std::nullopt;
    }
    step.bounds.push_back(std::move(b));
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

Status ValidateForLoop(const ForLoopSpec& spec) {
  auto check_expr = [&](const ExprPtr& e, const char* what) -> Status {
    if (e == nullptr) return Status::OK();
    std::vector<std::string> columns;
    e->CollectColumns(&columns);
    if (!columns.empty()) {
      return Status::InvalidArgument(
          std::string(what) + " must not reference stream columns: " +
          e->ToString());
    }
    std::vector<std::string> vars;
    e->CollectVariables(&vars);
    for (const auto& v : vars) {
      if (v != spec.var && v != "ST") {
        return Status::InvalidArgument(std::string(what) +
                                       " references unknown variable " + v);
      }
    }
    return Status::OK();
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
  std::vector<WindowBounds> probes;
  for (size_t i = 0; i < probe_steps; ++i) {
    auto step = seq.Next();
    if (!step.has_value()) break;
    probes.push_back(step->bounds[clause_index]);
  }
  // A sequence that ended because a bound/init/step was NULL or mistyped is
  // a malformed query, not a kGeneral window — surface it to the caller.
  if (!seq.status().ok()) return seq.status();
  WindowShape shape;
  if (probes.empty()) {
    shape.window_class = WindowClass::kGeneral;
    return shape;
  }
  shape.width = probes[0].Width();
  if (probes.size() == 1 && seq.done()) {
    shape.window_class = WindowClass::kSnapshot;
    shape.hop = 0;
    shape.requires_full_window_state = false;
    return shape;
  }
  // Examine deltas between consecutive probes.
  bool left_fixed = true;
  bool constant_deltas = true;
  int64_t dl0 = probes.size() > 1 ? probes[1].left - probes[0].left : 0;
  int64_t dr0 = probes.size() > 1 ? probes[1].right - probes[0].right : 0;
  for (size_t i = 1; i < probes.size(); ++i) {
    const int64_t dl = probes[i].left - probes[i - 1].left;
    const int64_t dr = probes[i].right - probes[i - 1].right;
    if (dl != 0) left_fixed = false;
    if (dl != dl0 || dr != dr0) constant_deltas = false;
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
