#include "window/window.h"

#include <algorithm>

#include "common/logging.h"

namespace tcq {

namespace {

/// Why an end, the init or the step did not evaluate to an integer.
Status EvalFailure(const char* what, const Value& v, const Expr& e) {
  return Status::InvalidArgument(
      std::string(what) + " evaluated to " +
      (v.is_null() ? "NULL" : std::string("non-integer ") + v.ToString()) +
      ": " + e.ToString());
}

/// `a*t + c` over the t in [lo, hi], for which every node of the tree
/// evaluates; outside them some node overflows to NULL. Coefficients stay
/// within +-2^63, so products and sums of two fit in 128 bits.
struct Affine {
  __int128 a = 0;
  __int128 c = 0;
  Timestamp lo = kMinTimestamp;
  Timestamp hi = kMaxTimestamp;
};

constexpr __int128 kAffineLimit = static_cast<__int128>(1) << 63;

/// floor(n / d) and ceil(n / d) for d != 0.
__int128 FloorDiv(__int128 n, __int128 d) {
  const __int128 q = n / d;
  return (n % d != 0 && ((n < 0) != (d < 0))) ? q - 1 : q;
}
__int128 CeilDiv(__int128 n, __int128 d) {
  const __int128 q = n / d;
  return (n % d != 0 && ((n < 0) == (d < 0))) ? q + 1 : q;
}

/// Narrows `x` to the t for which its own value fits an int64, as
/// Expr's checked arithmetic needs; false when none does.
bool FitNode(Affine* x) {
  if (x->a > kAffineLimit || x->a < -kAffineLimit || x->c > kAffineLimit ||
      x->c < -kAffineLimit) {
    return false;
  }
  const __int128 min = kMinTimestamp, max = kMaxTimestamp;
  if (x->a == 0) return x->c >= min && x->c <= max;
  // min <= a*t + c <= max.
  __int128 lo = CeilDiv((x->a > 0 ? min : max) - x->c, x->a);
  __int128 hi = FloorDiv((x->a > 0 ? max : min) - x->c, x->a);
  lo = std::max<__int128>(lo, x->lo);
  hi = std::min<__int128>(hi, x->hi);
  if (lo > hi) return false;
  x->lo = static_cast<Timestamp>(lo);
  x->hi = static_cast<Timestamp>(hi);
  return true;
}

/// The affine walk: `e` as a*t + c over +, -, unary minus, INT64
/// literals, t, ST and multiplication by a literal. False for anything
/// else, and for a tree no t evaluates.
bool AffineOf(const Expr& e, Timestamp st, Affine* out) {
  Affine x;
  switch (e.kind()) {
    case ExprKind::kLiteral:
      if (e.literal().type() != ValueType::kInt64) return false;
      x.c = e.literal().int64_value();
      break;
    case ExprKind::kVariable:
      if (e.variable_slot() == kStartTimeSlot) {
        x.c = st;
      } else {
        x.a = 1;
      }
      break;
    case ExprKind::kUnary:
      if (e.unary_op() != UnaryOp::kNeg || !AffineOf(*e.left(), st, &x)) {
        return false;
      }
      x.a = -x.a;
      x.c = -x.c;
      break;
    case ExprKind::kBinary: {
      Affine l, r;
      const BinaryOp op = e.binary_op();
      if (op == BinaryOp::kMul) {
        // One side a literal: the other scaled by it.
        const Expr* lit = e.right()->kind() == ExprKind::kLiteral
                              ? e.right().get()
                              : e.left().get();
        const Expr* other =
            lit == e.right().get() ? e.left().get() : e.right().get();
        if (lit->kind() != ExprKind::kLiteral ||
            lit->literal().type() != ValueType::kInt64 ||
            !AffineOf(*other, st, &x)) {
          return false;
        }
        const __int128 m = lit->literal().int64_value();
        x.a *= m;
        x.c *= m;
        break;
      }
      if ((op != BinaryOp::kAdd && op != BinaryOp::kSub) ||
          !AffineOf(*e.left(), st, &l) || !AffineOf(*e.right(), st, &r)) {
        return false;
      }
      const __int128 sign = op == BinaryOp::kAdd ? 1 : -1;
      x.a = l.a + sign * r.a;
      x.c = l.c + sign * r.c;
      x.lo = std::max(l.lo, r.lo);
      x.hi = std::min(l.hi, r.hi);
      if (x.lo > x.hi) return false;
      break;
    }
    default:
      return false;
  }
  if (!FitNode(&x)) return false;
  *out = x;
  return true;
}

/// The loop's arithmetic form when it is linear, with t starting at t0.
std::optional<LinearLoop> RecognizeLinear(const ForLoopSpec& spec,
                                          Timestamp st, Timestamp t0) {
  if (spec.windows.size() > StepBounds::kInline) return std::nullopt;
  LinearLoop loop;
  loop.t0 = t0;
  loop.clauses = spec.windows.size();
  Affine x;
  if (spec.condition == nullptr) {
    loop.until = LinearLoop::Until::kOnce;
  } else if (spec.condition->kind() == ExprKind::kLiteral &&
             spec.condition->literal().type() == ValueType::kBool &&
             spec.condition->literal().bool_value()) {
    loop.until = LinearLoop::Until::kNever;
  } else {
    // `t < C` or `t <= C`, or the same written `C > t` or `C >= t`.
    const Expr& c = *spec.condition;
    const auto is_t = [](const ExprPtr& e) {
      return e->kind() == ExprKind::kVariable &&
             e->variable_slot() == kLoopVarSlot;
    };
    const Expr* limit = nullptr;
    bool strict = false;
    if (c.kind() == ExprKind::kBinary) {
      const BinaryOp op = c.binary_op();
      if ((op == BinaryOp::kLt || op == BinaryOp::kLe) && is_t(c.left())) {
        limit = c.right().get();
        strict = op == BinaryOp::kLt;
      } else if ((op == BinaryOp::kGt || op == BinaryOp::kGe) &&
                 is_t(c.right())) {
        limit = c.left().get();
        strict = op == BinaryOp::kGt;
      }
    }
    if (limit == nullptr || !AffineOf(*limit, st, &x) || x.a != 0) {
      return std::nullopt;
    }
    const Timestamp bound = static_cast<Timestamp>(x.c);
    if (strict && bound == kMinTimestamp) {
      return std::nullopt;  // Never true: nothing to step.
    }
    loop.until = LinearLoop::Until::kLast;
    loop.last = strict ? bound - 1 : bound;
  }
  if (loop.until != LinearLoop::Until::kOnce) {
    if (spec.step == nullptr) {
      loop.step_hi = kMaxTimestamp - 1;  // The implicit t + 1.
    } else {
      if (!AffineOf(*spec.step, st, &x) || x.a != 1 || x.c < 1 ||
          x.c > kMaxTimestamp) {
        return std::nullopt;
      }
      loop.hop = static_cast<int64_t>(x.c);
      loop.step_lo = x.lo;
      loop.step_hi = x.hi;
    }
  }
  for (size_t i = 0; i < spec.windows.size(); ++i) {
    const WindowIsClause& clause = spec.windows[i];
    for (int side = 0; side < 2; ++side) {
      const ExprPtr& e = side == 0 ? clause.left_end : clause.right_end;
      if (e == nullptr || !AffineOf(*e, st, &x) || (x.a != 0 && x.a != 1) ||
          x.c < kMinTimestamp || x.c > kMaxTimestamp) {
        return std::nullopt;
      }
      loop.ends[2 * i + side] = {x.a == 1, static_cast<int64_t>(x.c), x.lo,
                                 x.hi};
    }
  }
  // Windows from t0 up to the last t every constraint allows (t only
  // grows, so the lower limits bind at t0 alone).
  __int128 lo = loop.step_lo, hi = loop.step_hi;
  if (loop.until == LinearLoop::Until::kOnce) {
    lo = kMinTimestamp;
    hi = kMaxTimestamp;
  } else if (loop.until == LinearLoop::Until::kLast) {
    hi = std::min<__int128>(hi, loop.last);
  }
  for (size_t i = 0; i < 2 * loop.clauses; ++i) {
    lo = std::max<__int128>(lo, loop.ends[i].lo);
    hi = std::min<__int128>(hi, loop.ends[i].hi);
  }
  if (t0 >= lo && t0 <= hi) {
    const __int128 n = (hi - t0) / loop.hop + 1;
    loop.steps = n > static_cast<__int128>(UINT64_MAX)
                     ? UINT64_MAX
                     : static_cast<uint64_t>(n);
    if (loop.until == LinearLoop::Until::kOnce) loop.steps = 1;
  }
  if (loop.until != LinearLoop::Until::kOnce) {
    // Window `steps` may still be whole, past the step's limits alone.
    const Timestamp t = loop.TimeAt(loop.steps);
    bool whole = loop.until == LinearLoop::Until::kNever || t <= loop.last;
    for (size_t i = 0; i < 2 * loop.clauses; ++i) {
      whole = whole && t >= loop.ends[i].lo && t <= loop.ends[i].hi;
    }
    // After UINT64_MAX stepping windows it lies past any count a uint64_t
    // holds, and no advance reaches it (windows() must not wrap to 0).
    loop.last_without_step = whole && loop.steps < UINT64_MAX;
  }
  return loop;
}

}  // namespace

WindowSequence::WindowSequence(const ForLoopSpec* spec, Timestamp st)
    : spec_(spec) {
  if (spec_ == nullptr) {  // Degenerate: an already-finished sequence.
    done_ = true;
    return;
  }
  vars_[kStartTimeSlot] = st;
  if (spec_->init != nullptr) {
    // The loop variable reads 0 here: init may not self-reference.
    if (!EvalTimestamp(spec_->init, "for-loop init", &t_)) return;
  } else {
    t_ = 0;
  }
  linear_ = RecognizeLinear(*spec_, st, t_);
}

WindowSequence WindowSequence::Interpreted(const ForLoopSpec* spec,
                                           Timestamp st) {
  WindowSequence seq(spec, st);
  seq.linear_.reset();
  return seq;
}

bool WindowSequence::EvalTimestamp(const ExprPtr& e, const char* what,
                                   Timestamp* out) {
  const Value v = e->EvalConst(vars_);
  if (v.type() != ValueType::kInt64) {
    // NULL-producing or non-integer bounds must not take down the engine
    // thread (int64_value() on the wrong alternative throws); the sequence
    // simply ends and the malformed expression is reported via status().
    done_ = true;
    status_ = EvalFailure(what, v, *e);
    return false;
  }
  *out = v.int64_value();
  return true;
}

std::optional<WindowSequence::Step> WindowSequence::Next() {
  if (done_) return std::nullopt;
  if (linear_.has_value()) return NextLinear();
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
  ++k_;
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

std::optional<WindowSequence::Step> WindowSequence::NextLinear() {
  const LinearLoop& loop = *linear_;
  if (loop.until == LinearLoop::Until::kLast && t_ > loop.last) {
    done_ = true;
    return std::nullopt;
  }
  Step step;
  step.t = t_;
  for (size_t i = 0; i < 2 * loop.clauses; ++i) {
    const LinearLoop::End& end = loop.ends[i];
    if (t_ < end.lo || t_ > end.hi) {
      // The tree overflows to NULL here; it reports the same status.
      const WindowIsClause& clause = spec_->windows[i / 2];
      done_ = true;
      status_ = i % 2 == 0 ? EvalFailure("window left end", Value::Null(),
                                         *clause.left_end)
                           : EvalFailure("window right end", Value::Null(),
                                         *clause.right_end);
      return std::nullopt;
    }
    if (i % 2 == 1) {
      step.bounds.push_back({loop.ends[i - 1].At(t_), end.At(t_)});
    }
  }
  ++k_;
  if (loop.until == LinearLoop::Until::kOnce) {
    done_ = true;
  } else if (t_ < loop.step_lo || t_ > loop.step_hi) {
    done_ = true;
    status_ = spec_->step == nullptr
                  ? Status::OutOfRange("for-loop variable " + spec_->var +
                                       " overflows past " +
                                       std::to_string(t_))
                  : EvalFailure("for-loop step", Value::Null(), *spec_->step);
  } else {
    t_ += loop.hop;
  }
  return step;
}

uint64_t WindowSequence::StepsEndingBelow(size_t clause,
                                          Timestamp bound) const {
  const uint64_t safe = safe_steps();
  if (safe == 0) return 0;
  const LinearLoop::End& end = linear_->right(clause);
  if (!end.moves) return end.offset < bound ? safe : 0;
  // t_ + j*hop + offset < bound.
  const __int128 room = static_cast<__int128>(bound) - 1 - end.offset - t_;
  if (room < 0) return 0;
  // room < 2^65: a 64-bit division unless it is past any count.
  if (room > static_cast<__int128>(UINT64_MAX)) return safe;
  const uint64_t n =
      static_cast<uint64_t>(room) / static_cast<uint64_t>(linear_->hop) + 1;
  return n == 0 || n >= safe ? safe : n;
}

void WindowSequence::Skip(uint64_t n) {
  TCQ_CHECK(n <= safe_steps());
  if (n == 0) return;
  if (k_ + n < linear_->steps) {
    k_ += n;
    t_ = linear_->TimeAt(k_);
    return;
  }
  // Up to the loop's end: to the last of them by arithmetic, then through
  // it as Next() goes, which ends the loop after its last window.
  k_ += n - 1;
  t_ = linear_->TimeAt(k_);
  NextLinear();
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
