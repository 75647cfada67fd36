#ifndef TCQ_WINDOW_WINDOW_H_
#define TCQ_WINDOW_WINDOW_H_

#include <array>
#include <optional>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "expr/ast.h"

namespace tcq {

/// One `WindowIs(Stream, left(t), right(t))` clause from the paper's
/// for-loop construct (§4.1.1). The bound expressions may reference the
/// loop variable and `ST` (query start time); ends are inclusive.
struct WindowIsClause {
  std::string stream;  ///< Stream name or alias within the query.
  ExprPtr left_end;
  ExprPtr right_end;
};

/// The paper's low-level window mechanism:
///
///   for (t = init; continue_condition(t); t = change(t)) {
///     WindowIs(StreamA, left_end(t), right_end(t));
///     ...
///   }
///
/// `init`, `condition` and `step` are expressions over the loop variable
/// and ST. A missing init means t starts at 0 (the paper's snapshot
/// example `for (; t==0; t = -1)` relies on this).
struct ForLoopSpec {
  std::string var = "t";
  ExprPtr init;       ///< Initial value of var; nullptr = 0.
  ExprPtr condition;  ///< Loop continues while this is true; nullptr = once.
  ExprPtr step;       ///< Next value of var, e.g. `t + 5`; nullptr = t + 1.
  std::vector<WindowIsClause> windows;

  /// True when the loop never terminates on its own (a standing CQ whose
  /// condition is always true is legal; the client cancels it).
  bool has_condition() const { return condition != nullptr; }
};

/// Concrete bounds of one clause's window at one loop iteration.
struct WindowBounds {
  Timestamp left;   ///< Inclusive.
  Timestamp right;  ///< Inclusive.

  bool Contains(Timestamp ts) const { return ts >= left && ts <= right; }
  /// Number of timestamps covered; 0 for an empty (inverted) window,
  /// INT64_MAX for one wider than that.
  int64_t Width() const {
    int64_t w = 0;
    if (right < left) return 0;
    return __builtin_sub_overflow(right, left, &w) || w == INT64_MAX
               ? INT64_MAX
               : w + 1;
  }
  bool operator==(const WindowBounds&) const = default;
};

/// The bounds of every WindowIs clause at one step, in clause order. The
/// first kInline are stored in place, so a step of a loop with at most
/// that many clauses (one per source) allocates nothing.
class StepBounds {
 public:
  static constexpr size_t kInline = 4;

  size_t size() const { return size_; }
  const WindowBounds& operator[](size_t i) const {
    return i < kInline ? inline_[i] : spill_[i - kInline];
  }
  void push_back(const WindowBounds& b) {
    if (size_ < kInline) {
      inline_[size_] = b;
    } else {
      spill_.push_back(b);
    }
    ++size_;
  }

 private:
  std::array<WindowBounds, kInline> inline_{};
  std::vector<WindowBounds> spill_;
  size_t size_ = 0;
};

/// A for-loop whose windows follow from arithmetic alone (DESIGN.md §17
/// "Linear loops"): its step is `t + h` with h >= 1 constant, every window
/// end is `t + c` or a constant c (affine in t with coefficient 1 or 0, c
/// constant in ST), and its condition is absent, `true`, `t < C`,
/// `t <= C`, `C > t` or `C >= t` with C constant in ST. Window k's t is
/// t0 + k*h. Each end records the t for which its expression evaluates;
/// outside them the expression overflows to NULL, and the sequence ends as
/// it would evaluating the tree.
struct LinearLoop {
  struct End {
    bool moves = false;  ///< `t + offset`; else the constant `offset`.
    int64_t offset = 0;
    Timestamp lo = kMinTimestamp;  ///< The t for which the end evaluates.
    Timestamp hi = kMaxTimestamp;
    /// The end at `t`, for t in [lo, hi].
    Timestamp At(Timestamp t) const { return moves ? t + offset : offset; }
  };
  /// How the condition ends the loop.
  enum class Until : uint8_t {
    kOnce,   ///< No condition: one window.
    kNever,  ///< `true`.
    kLast,   ///< While t <= last.
  };

  Timestamp t0 = 0;  ///< t of window 0 (the init).
  int64_t hop = 1;
  Until until = Until::kNever;
  Timestamp last = 0;
  /// The t for which the step evaluates (the implicit `t + 1` below
  /// INT64_MAX).
  Timestamp step_lo = kMinTimestamp;
  Timestamp step_hi = kMaxTimestamp;
  size_t clauses = 0;
  std::array<End, 2 * StepBounds::kInline> ends{};  ///< Left, right, ...
  /// Windows k < steps fire and advance by arithmetic alone: the condition
  /// holds and every end and the step evaluate.
  uint64_t steps = 0;
  /// Window `steps` fires too, but its step does not evaluate: the loop
  /// ends after it. Never set when `steps` is UINT64_MAX.
  bool last_without_step = false;
  /// Windows the loop fires in all.
  uint64_t windows() const { return steps + (last_without_step ? 1 : 0); }

  const End& left(size_t clause) const { return ends[2 * clause]; }
  const End& right(size_t clause) const { return ends[2 * clause + 1]; }
  /// t of window k, for k <= steps.
  Timestamp TimeAt(uint64_t k) const {
    return static_cast<Timestamp>(static_cast<uint64_t>(t0) +
                                  k * static_cast<uint64_t>(hop));
  }
};

/// Enumerates the window sequence a ForLoopSpec defines: each Next() call
/// produces the loop variable's value plus the bounds of every WindowIs
/// clause at that iteration, until the continue-condition fails. A linear
/// loop (LinearLoop, recognised at construction) steps by checked
/// arithmetic; any other evaluates its expression trees. Both give the
/// same windows and the same final status.
class WindowSequence {
 public:
  struct Step {
    Timestamp t;
    StepBounds bounds;  ///< One per WindowIs clause, in order.
  };

  /// `st` is the query start time, the value of variable `ST`.
  WindowSequence(const ForLoopSpec* spec, Timestamp st);
  /// The same sequence, stepped by evaluating the expression trees even
  /// when the loop is linear: the reference the arithmetic is checked
  /// against.
  static WindowSequence Interpreted(const ForLoopSpec* spec, Timestamp st);

  /// Advances the loop. Returns nullopt once the condition is false.
  std::optional<Step> Next();

  /// Loop variable value the *next* Next() will evaluate at.
  Timestamp current_t() const { return t_; }
  bool done() const { return done_; }

  /// The loop's arithmetic form, or null when it is not linear.
  const LinearLoop* linear() const {
    return linear_.has_value() ? &*linear_ : nullptr;
  }
  /// Steps produced so far: the index of the next one.
  uint64_t index() const { return k_; }
  /// Linear loops: how many of the next windows follow by arithmetic
  /// alone (LinearLoop::windows() from index()).
  uint64_t safe_steps() const {
    return linear_.has_value() && !done_ && k_ < linear_->windows()
               ? linear_->windows() - k_
               : 0;
  }
  /// Linear loops: how many of the next safe_steps() windows end clause
  /// `clause` below `bound`.
  uint64_t StepsEndingBelow(size_t clause, Timestamp bound) const;
  /// Linear loops: passes over the next `n` <= safe_steps() windows as
  /// Next() would, without making them. Passing the loop's last window
  /// ends the sequence with the status Next() gives.
  void Skip(uint64_t n);

  /// OK while the sequence is well-formed. A bound, init or step that
  /// evaluates to NULL or a non-integer (or a non-boolean condition) ends
  /// the sequence — Next() returns nullopt instead of throwing — and the
  /// malformed expression is recorded here.
  const Status& status() const { return status_; }

 private:
  /// Evaluates `e` against vars_ and stores the integer result in `*out`.
  /// On NULL or non-integer results, marks the sequence done, records a
  /// status naming `what`, and returns false.
  bool EvalTimestamp(const ExprPtr& e, const char* what, Timestamp* out);
  /// Next() of a linear loop.
  std::optional<Step> NextLinear();

  const ForLoopSpec* spec_;
  LoopVars vars_{};
  Timestamp t_ = 0;
  uint64_t k_ = 0;
  bool done_ = false;
  Status status_ = Status::OK();
  std::optional<LinearLoop> linear_;
};

/// Validates that every bound expression only references the loop variable
/// and ST, that the loop variable is not named ST (it would hide the start
/// time), and that every clause names a stream and both window ends.
Status ValidateForLoop(const ForLoopSpec& spec);

/// Convenience builders for the common window shapes (used by tests,
/// benches and the programmatic API; SQL queries go through the parser).
ForLoopSpec MakeSnapshotWindow(const std::string& stream, Timestamp left,
                               Timestamp right);
ForLoopSpec MakeLandmarkWindow(const std::string& stream, Timestamp left,
                               Timestamp start_t, Timestamp end_t);
ForLoopSpec MakeSlidingWindow(const std::string& stream, int64_t width,
                              int64_t hop, Timestamp start_t,
                              std::optional<Timestamp> end_t);

}  // namespace tcq

#endif  // TCQ_WINDOW_WINDOW_H_
