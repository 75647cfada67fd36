#include "window/window.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <random>
#include <string>
#include <vector>

namespace tcq {
namespace {

// --- The four worked examples of §4.1.1 ------------------------------------

TEST(WindowTest, PaperSnapshotQueryWindow) {
  // "first five days of trading": WindowIs(S, 1, 5), executed once.
  ForLoopSpec spec = MakeSnapshotWindow("ClosingStockPrices", 1, 5);
  WindowSequence seq(&spec, /*st=*/100);
  auto step = seq.Next();
  ASSERT_TRUE(step.has_value());
  EXPECT_EQ(step->bounds[0].left, 1);
  EXPECT_EQ(step->bounds[0].right, 5);
  EXPECT_FALSE(seq.Next().has_value());  // Exactly one iteration.
}

TEST(WindowTest, PaperLandmarkQueryWindow) {
  // for (t = 101; t <= 1000; t++) WindowIs(S, 101, t).
  ForLoopSpec spec = MakeLandmarkWindow("S", 101, 101, 1000);
  WindowSequence seq(&spec, 0);
  auto first = seq.Next();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->t, 101);
  EXPECT_EQ(first->bounds[0].left, 101);
  EXPECT_EQ(first->bounds[0].right, 101);
  size_t count = 1;
  Timestamp last_right = first->bounds[0].right;
  while (auto s = seq.Next()) {
    EXPECT_EQ(s->bounds[0].left, 101);  // Fixed landmark.
    EXPECT_EQ(s->bounds[0].right, last_right + 1);
    last_right = s->bounds[0].right;
    ++count;
  }
  EXPECT_EQ(count, 900u);
  EXPECT_EQ(last_right, 1000);
}

TEST(WindowTest, PaperSlidingQueryWindow) {
  // for (t = ST; t < ST + 50; t += 5) WindowIs(S, t - 4, t).
  const Timestamp st = 200;
  ForLoopSpec spec = MakeSlidingWindow("S", /*width=*/5, /*hop=*/5, st,
                                       st + 50);
  WindowSequence seq(&spec, st);
  size_t count = 0;
  Timestamp expected_t = st;
  while (auto s = seq.Next()) {
    EXPECT_EQ(s->t, expected_t);
    EXPECT_EQ(s->bounds[0].left, expected_t - 4);
    EXPECT_EQ(s->bounds[0].right, expected_t);
    EXPECT_EQ(s->bounds[0].Width(), 5);
    expected_t += 5;
    ++count;
  }
  EXPECT_EQ(count, 10u);
}

TEST(WindowTest, PaperBandJoinWindows) {
  // for (t = ST; t < ST + 20; t++) { WindowIs(c1, t-4, t); WindowIs(c2, t-4, t); }
  ForLoopSpec spec;
  spec.init = Expr::Variable("ST");
  spec.condition = Expr::Binary(
      BinaryOp::kLt, Expr::Variable("t"),
      Expr::Binary(BinaryOp::kAdd, Expr::Variable("ST"),
                   Expr::Literal(Value::Int64(20))));
  spec.step = Expr::Binary(BinaryOp::kAdd, Expr::Variable("t"),
                           Expr::Literal(Value::Int64(1)));
  auto left = Expr::Binary(BinaryOp::kSub, Expr::Variable("t"),
                           Expr::Literal(Value::Int64(4)));
  spec.windows.push_back({"c1", left, Expr::Variable("t")});
  spec.windows.push_back({"c2", left, Expr::Variable("t")});

  WindowSequence seq(&spec, /*st=*/50);
  size_t count = 0;
  while (auto s = seq.Next()) {
    ASSERT_EQ(s->bounds.size(), 2u);
    EXPECT_EQ(s->bounds[0].left, s->bounds[1].left);
    EXPECT_EQ(s->bounds[0].right, s->bounds[1].right);
    ++count;
  }
  EXPECT_EQ(count, 20u);
}

// --- Window mechanics --------------------------------------------------------

TEST(WindowTest, ReverseWindowMovesBackward) {
  // Browsing history backwards: for (t = ST; t > ST - 30; t -= 10).
  ForLoopSpec spec;
  spec.init = Expr::Variable("ST");
  spec.condition = Expr::Binary(
      BinaryOp::kGt, Expr::Variable("t"),
      Expr::Binary(BinaryOp::kSub, Expr::Variable("ST"),
                   Expr::Literal(Value::Int64(30))));
  spec.step = Expr::Binary(BinaryOp::kSub, Expr::Variable("t"),
                           Expr::Literal(Value::Int64(10)));
  spec.windows.push_back(
      {"S",
       Expr::Binary(BinaryOp::kSub, Expr::Variable("t"),
                    Expr::Literal(Value::Int64(9))),
       Expr::Variable("t")});
  WindowSequence seq(&spec, 100);
  std::vector<Timestamp> rights;
  while (auto s = seq.Next()) rights.push_back(s->bounds[0].right);
  ASSERT_EQ(rights.size(), 3u);
  EXPECT_EQ(rights[0], 100);
  EXPECT_EQ(rights[1], 90);
  EXPECT_EQ(rights[2], 80);
}

TEST(WindowTest, WindowBoundsHelpers) {
  WindowBounds b{10, 14};
  EXPECT_TRUE(b.Contains(10));
  EXPECT_TRUE(b.Contains(14));
  EXPECT_FALSE(b.Contains(9));
  EXPECT_FALSE(b.Contains(15));
  EXPECT_EQ(b.Width(), 5);
  WindowBounds empty{5, 4};
  EXPECT_EQ(empty.Width(), 0);
}

TEST(WindowTest, StandingQueryWithoutEndRunsOn) {
  ForLoopSpec spec = MakeSlidingWindow("S", 10, 1, 1, std::nullopt);
  WindowSequence seq(&spec, 1);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(seq.Next().has_value());
  }
  EXPECT_FALSE(seq.done());
}

// --- Window shape (§4.1.2): the loop's arithmetic form ----------------------

/// The width of clause 0's windows, from its two moving ends.
int64_t WidthOf(const LinearLoop& loop) {
  return loop.right(0).offset - loop.left(0).offset + 1;
}

TEST(WindowClassifyTest, Snapshot) {
  // for (; t == 0; t = -1): one window, stepped by the trees.
  ForLoopSpec spec = MakeSnapshotWindow("S", 1, 5);
  WindowSequence seq(&spec, 0);
  EXPECT_EQ(seq.linear(), nullptr);
  auto step = seq.Next();
  ASSERT_TRUE(step.has_value());
  EXPECT_EQ(step->bounds[0].Width(), 5);
  EXPECT_FALSE(seq.Next().has_value());
  EXPECT_TRUE(seq.status().ok());
}

TEST(WindowClassifyTest, Landmark) {
  // A constant left end and a moving right end: the landmark, whose
  // aggregates keep one running state (§4.1.2).
  ForLoopSpec spec = MakeLandmarkWindow("S", 101, 101, 1000);
  WindowSequence seq(&spec, 0);
  const LinearLoop* loop = seq.linear();
  ASSERT_NE(loop, nullptr);
  EXPECT_FALSE(loop->left(0).moves);
  EXPECT_EQ(loop->left(0).offset, 101);
  EXPECT_TRUE(loop->right(0).moves);
  EXPECT_EQ(loop->hop, 1);
  EXPECT_EQ(loop->windows(), 900u);
  // ST is a constant too: for (t = ST; true; t += 3) WindowIs(S, ST, t).
  ForLoopSpec from_st;
  from_st.init = Expr::Variable("ST");
  from_st.condition = Expr::Literal(Value::Bool(true));
  from_st.step = Expr::Binary(BinaryOp::kAdd, Expr::Variable("t"),
                              Expr::Literal(Value::Int64(3)));
  from_st.windows.push_back({"S", Expr::Variable("ST"), Expr::Variable("t")});
  WindowSequence at_st(&from_st, 40);
  ASSERT_NE(at_st.linear(), nullptr);
  EXPECT_FALSE(at_st.linear()->left(0).moves);
  EXPECT_EQ(at_st.linear()->left(0).offset, 40);
  EXPECT_TRUE(at_st.linear()->right(0).moves);
}

TEST(WindowClassifyTest, Sliding) {
  ForLoopSpec spec = MakeSlidingWindow("S", 5, 1, 10, 100);
  WindowSequence seq(&spec, 0);
  const LinearLoop* loop = seq.linear();
  ASSERT_NE(loop, nullptr);
  // Both ends move: a sliding window, which keeps the panes of its width.
  EXPECT_TRUE(loop->left(0).moves && loop->right(0).moves);
  EXPECT_EQ(loop->hop, 1);
  EXPECT_EQ(WidthOf(*loop), 5);
}

TEST(WindowClassifyTest, HoppingAndSkipsData) {
  // Width 5, hop 7: some stream portions never participate (§4.1.2).
  ForLoopSpec spec = MakeSlidingWindow("S", 5, 7, 10, 100);
  WindowSequence seq(&spec, 0);
  const LinearLoop* loop = seq.linear();
  ASSERT_NE(loop, nullptr);
  EXPECT_TRUE(loop->left(0).moves && loop->right(0).moves);
  EXPECT_EQ(loop->hop, 7);
  EXPECT_GT(loop->hop, WidthOf(*loop));
}

TEST(WindowClassifyTest, HoppingWithoutSkip) {
  ForLoopSpec spec = MakeSlidingWindow("S", 10, 5, 10, 100);
  WindowSequence seq(&spec, 0);
  const LinearLoop* loop = seq.linear();
  ASSERT_NE(loop, nullptr);
  EXPECT_EQ(loop->hop, 5);
  EXPECT_LE(loop->hop, WidthOf(*loop));
}

TEST(WindowClassifyTest, Reverse) {
  ForLoopSpec spec;
  spec.init = Expr::Variable("ST");
  spec.condition = Expr::Binary(BinaryOp::kGt, Expr::Variable("t"),
                                Expr::Literal(Value::Int64(0)));
  spec.step = Expr::Binary(BinaryOp::kSub, Expr::Variable("t"),
                           Expr::Literal(Value::Int64(5)));
  spec.windows.push_back(
      {"S",
       Expr::Binary(BinaryOp::kSub, Expr::Variable("t"),
                    Expr::Literal(Value::Int64(4))),
       Expr::Variable("t")});
  // Windows that move backwards are not linear; the trees step them.
  WindowSequence seq(&spec, 100);
  EXPECT_EQ(seq.linear(), nullptr);
  auto first = seq.Next();
  auto second = seq.Next();
  ASSERT_TRUE(first.has_value() && second.has_value());
  EXPECT_EQ(second->bounds[0].right - first->bounds[0].right, -5);
}

TEST(WindowClassifyTest, DoublingIsNotLinear) {
  // A step `t = 2 * t`, or a right end `2 * t`: the windows do not follow
  // from their index by addition alone.
  for (const bool doubling_step : {true, false}) {
    ForLoopSpec spec;
    spec.init = Expr::Literal(Value::Int64(1));
    spec.condition = Expr::Literal(Value::Bool(true));
    const ExprPtr twice = Expr::Binary(
        BinaryOp::kMul, Expr::Literal(Value::Int64(2)), Expr::Variable("t"));
    spec.step = doubling_step
                    ? twice
                    : Expr::Binary(BinaryOp::kAdd, Expr::Variable("t"),
                                   Expr::Literal(Value::Int64(1)));
    spec.windows.push_back(
        {"S", Expr::Variable("t"), doubling_step ? Expr::Variable("t") : twice});
    WindowSequence seq(&spec, 0);
    EXPECT_EQ(seq.linear(), nullptr) << doubling_step;
    ASSERT_TRUE(seq.Next().has_value());
    auto second = seq.Next();
    ASSERT_TRUE(second.has_value());
    EXPECT_EQ(second->bounds[0].right, doubling_step ? 2 : 4);
  }
}

TEST(WindowClassifyTest, EndsPerClause) {
  // One pair of ends per WindowIs clause, in clause order.
  ForLoopSpec spec = MakeSlidingWindow("S", 5, 1, 10, 100);
  spec.windows.push_back({"R", Expr::Literal(Value::Int64(3)),
                          Expr::Variable("t")});
  WindowSequence seq(&spec, 0);
  const LinearLoop* loop = seq.linear();
  ASSERT_NE(loop, nullptr);
  EXPECT_EQ(loop->clauses, 2u);
  EXPECT_TRUE(loop->left(0).moves);
  EXPECT_FALSE(loop->left(1).moves);
  EXPECT_EQ(loop->left(1).offset, 3);
}

// --- Validation ---------------------------------------------------------------

TEST(WindowValidateTest, RejectsColumnsInBounds) {
  ForLoopSpec spec;
  spec.condition = Expr::Literal(Value::Bool(true));
  spec.windows.push_back(
      {"S", Expr::Column("price"), Expr::Variable("t")});
  EXPECT_EQ(ValidateForLoop(spec).code(), StatusCode::kInvalidArgument);
}

TEST(WindowValidateTest, RejectsUnknownVariables) {
  ForLoopSpec spec;
  spec.condition = Expr::Binary(BinaryOp::kLt, Expr::Variable("u"),
                                Expr::Literal(Value::Int64(5)));
  EXPECT_EQ(ValidateForLoop(spec).code(), StatusCode::kInvalidArgument);
}

TEST(WindowValidateTest, RejectsALoopVariableNamedST) {
  // for (ST = ST; true; ST += 1) { WindowIs(S, ST - 1, ST); } once wrote
  // the variable over the start time before evaluating init, so it began
  // at 0 and walked empty windows up to the start time.
  ForLoopSpec spec;
  spec.var = "ST";
  spec.init = Expr::Variable("ST");
  spec.condition = Expr::Literal(Value::Bool(true));
  spec.step = Expr::Binary(BinaryOp::kAdd, Expr::Variable("ST"),
                           Expr::Literal(Value::Int64(1)));
  spec.windows.push_back(
      {"S",
       Expr::Binary(BinaryOp::kSub, Expr::Variable("ST"),
                    Expr::Literal(Value::Int64(1))),
       Expr::Variable("ST")});
  EXPECT_EQ(ValidateForLoop(spec).code(), StatusCode::kInvalidArgument);
  // Any other name, `st` included, is a loop variable like `t`.
  spec.var = "st";
  spec.init = Expr::Variable("ST");
  spec.step = Expr::Binary(BinaryOp::kAdd, Expr::Variable("st"),
                           Expr::Literal(Value::Int64(1)));
  spec.windows[0].right_end = Expr::Variable("st");
  ASSERT_TRUE(ValidateForLoop(spec).ok());
  WindowSequence seq(&spec, 1000);
  auto first = seq.Next();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->t, 1000);
  EXPECT_EQ(first->bounds[0].right, 1000);
}

TEST(WindowValidateTest, RejectsMissingEnds) {
  ForLoopSpec spec;
  spec.windows.push_back({"S", nullptr, Expr::Variable("t")});
  EXPECT_EQ(ValidateForLoop(spec).code(), StatusCode::kInvalidArgument);
}

TEST(WindowValidateTest, AcceptsPaperExamples) {
  EXPECT_TRUE(ValidateForLoop(MakeSnapshotWindow("S", 1, 5)).ok());
  EXPECT_TRUE(ValidateForLoop(MakeLandmarkWindow("S", 101, 101, 1000)).ok());
  EXPECT_TRUE(
      ValidateForLoop(MakeSlidingWindow("S", 5, 5, 0, std::nullopt)).ok());
}

// --- Malformed bounds: NULL / non-integer expressions ------------------------
// Regression: these used to call int64_value() on the wrong variant
// alternative and crash the engine thread with std::bad_variant_access.

TEST(WindowMalformedTest, NullRightEndEndsSequenceWithStatus) {
  ForLoopSpec spec;
  spec.condition = Expr::Literal(Value::Bool(true));
  spec.windows.push_back(
      {"S", Expr::Literal(Value::Int64(1)), Expr::Literal(Value::Null())});
  WindowSequence seq(&spec, 0);
  EXPECT_FALSE(seq.Next().has_value());
  EXPECT_TRUE(seq.done());
  EXPECT_EQ(seq.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(seq.status().message().find("right end"), std::string::npos);
  EXPECT_FALSE(seq.Next().has_value());  // Stays ended.
}

TEST(WindowMalformedTest, NonIntegerLeftEndEndsSequenceWithStatus) {
  ForLoopSpec spec;
  spec.condition = Expr::Literal(Value::Bool(true));
  spec.windows.push_back(
      {"S", Expr::Literal(Value::Double(1.5)), Expr::Variable("t")});
  WindowSequence seq(&spec, 0);
  EXPECT_FALSE(seq.Next().has_value());
  EXPECT_EQ(seq.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(seq.status().message().find("left end"), std::string::npos);
}

TEST(WindowMalformedTest, NullInitEndsSequenceAtConstruction) {
  ForLoopSpec spec;
  spec.init = Expr::Literal(Value::Null());
  spec.condition = Expr::Literal(Value::Bool(true));
  spec.windows.push_back(
      {"S", Expr::Literal(Value::Int64(1)), Expr::Literal(Value::Int64(5))});
  WindowSequence seq(&spec, 0);
  EXPECT_TRUE(seq.done());
  EXPECT_FALSE(seq.Next().has_value());
  EXPECT_EQ(seq.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(seq.status().message().find("init"), std::string::npos);
}

TEST(WindowMalformedTest, NullStepYieldsCurrentWindowThenEnds) {
  // The iteration in flight is well-formed; only the advance is broken, so
  // the sequence delivers it and then cannot continue.
  ForLoopSpec spec;
  spec.init = Expr::Literal(Value::Int64(10));
  spec.condition = Expr::Literal(Value::Bool(true));
  spec.step = Expr::Binary(BinaryOp::kAdd, Expr::Variable("t"),
                           Expr::Literal(Value::Null()));
  spec.windows.push_back(
      {"S",
       Expr::Binary(BinaryOp::kSub, Expr::Variable("t"),
                    Expr::Literal(Value::Int64(4))),
       Expr::Variable("t")});
  WindowSequence seq(&spec, 0);
  auto step = seq.Next();
  ASSERT_TRUE(step.has_value());
  EXPECT_EQ(step->bounds[0].left, 6);
  EXPECT_EQ(step->bounds[0].right, 10);
  EXPECT_FALSE(seq.Next().has_value());
  EXPECT_EQ(seq.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(seq.status().message().find("step"), std::string::npos);
}

TEST(WindowMalformedTest, NonBooleanConditionEndsWithStatus) {
  ForLoopSpec spec;
  spec.condition = Expr::Literal(Value::Int64(1));  // Not a boolean.
  spec.windows.push_back(
      {"S", Expr::Literal(Value::Int64(1)), Expr::Literal(Value::Int64(5))});
  WindowSequence seq(&spec, 0);
  EXPECT_FALSE(seq.Next().has_value());
  EXPECT_EQ(seq.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(seq.status().message().find("condition"), std::string::npos);
}

TEST(WindowMalformedTest, NullConditionEndsCleanly) {
  // SQL three-valued logic: a NULL condition is simply "not true" — the
  // loop terminates like any other exhausted sequence, with an OK status.
  ForLoopSpec spec;
  spec.condition = Expr::Literal(Value::Null());
  spec.windows.push_back(
      {"S", Expr::Literal(Value::Int64(1)), Expr::Literal(Value::Int64(5))});
  WindowSequence seq(&spec, 0);
  EXPECT_FALSE(seq.Next().has_value());
  EXPECT_TRUE(seq.status().ok());
}

TEST(WindowMalformedTest, NullLeftEndEndsSequenceWithStatus) {
  ForLoopSpec spec;
  spec.condition = Expr::Literal(Value::Bool(true));
  spec.windows.push_back(
      {"S", Expr::Literal(Value::Null()), Expr::Variable("t")});
  WindowSequence seq(&spec, 0);
  EXPECT_FALSE(seq.Next().has_value());
  EXPECT_EQ(seq.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(seq.status().message().find("left end"), std::string::npos);
}

TEST(WindowMalformedTest, StepThatKeepsTEndsWithStatus) {
  // for (; t == 0; t = ST - 1) with ST = 1: the step maps 0 to 0, so the
  // condition holds forever. The window in flight fires once, then the
  // sequence ends instead of repeating it until memory runs out.
  ForLoopSpec spec;
  spec.condition = Expr::Binary(BinaryOp::kEq, Expr::Variable("t"),
                                Expr::Literal(Value::Int64(0)));
  spec.step = Expr::Binary(BinaryOp::kSub, Expr::Variable("ST"),
                           Expr::Literal(Value::Int64(1)));
  spec.windows.push_back(
      {"S", Expr::Literal(Value::Int64(1)), Expr::Literal(Value::Int64(5))});
  WindowSequence seq(&spec, /*st=*/1);
  auto step = seq.Next();
  ASSERT_TRUE(step.has_value());
  EXPECT_EQ(step->t, 0);
  EXPECT_FALSE(seq.Next().has_value());
  EXPECT_TRUE(seq.done());
  EXPECT_EQ(seq.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(seq.status().message().find("does not change"),
            std::string::npos);
}

TEST(WindowMalformedTest, ImplicitIncrementStopsAtInt64Max) {
  // No step means t + 1; at INT64_MAX that would overflow (UB).
  ForLoopSpec spec;
  spec.init = Expr::Literal(Value::Int64(kMaxTimestamp - 1));
  spec.condition = Expr::Literal(Value::Bool(true));
  spec.windows.push_back({"S", Expr::Variable("t"), Expr::Variable("t")});
  WindowSequence seq(&spec, 0);
  auto a = seq.Next();
  auto b = seq.Next();
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(a->t, kMaxTimestamp - 1);
  EXPECT_EQ(b->t, kMaxTimestamp);
  EXPECT_TRUE(seq.done());
  EXPECT_FALSE(seq.Next().has_value());
  EXPECT_EQ(seq.status().code(), StatusCode::kOutOfRange);
}

TEST(WindowMalformedTest, OverflowingStepExpressionEndsWithStatus) {
  // An explicit t + 1 overflows inside expression arithmetic, which yields
  // NULL rather than wrapping: the sequence ends like any malformed step.
  ForLoopSpec spec;
  spec.init = Expr::Literal(Value::Int64(kMaxTimestamp));
  spec.condition = Expr::Literal(Value::Bool(true));
  spec.step = Expr::Binary(BinaryOp::kAdd, Expr::Variable("t"),
                           Expr::Literal(Value::Int64(1)));
  spec.windows.push_back({"S", Expr::Variable("t"), Expr::Variable("t")});
  WindowSequence seq(&spec, 0);
  ASSERT_TRUE(seq.Next().has_value());
  EXPECT_FALSE(seq.Next().has_value());
  EXPECT_EQ(seq.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(seq.status().message().find("NULL"), std::string::npos);
}


// --- Linear loops: arithmetic against the expression trees -------------------

ExprPtr T() { return Expr::Variable("t"); }
ExprPtr ST() { return Expr::Variable("ST"); }
ExprPtr Lit(int64_t v) { return Expr::Literal(Value::Int64(v)); }
ExprPtr Add(ExprPtr a, ExprPtr b) {
  return Expr::Binary(BinaryOp::kAdd, std::move(a), std::move(b));
}
ExprPtr Sub(ExprPtr a, ExprPtr b) {
  return Expr::Binary(BinaryOp::kSub, std::move(a), std::move(b));
}
ExprPtr Mul(ExprPtr a, ExprPtr b) {
  return Expr::Binary(BinaryOp::kMul, std::move(a), std::move(b));
}
ExprPtr Neg(ExprPtr a) { return Expr::Unary(UnaryOp::kNeg, std::move(a)); }

/// Random linear for-loops: ST offsets, hops 1-20, empty and inverted
/// windows, `t < C`, `t <= C`, `true` and no condition, and values near
/// INT64_MIN and INT64_MAX, so ends, steps and conditions overflow.
class LinearLoopGen {
 public:
  explicit LinearLoopGen(uint64_t seed) : rng_(seed) {}

  int64_t Below(int64_t n) {
    return static_cast<int64_t>(rng_() % static_cast<uint64_t>(n));
  }
  /// A small value, or one near either end of the range.
  int64_t Value64() {
    switch (Below(4)) {
      case 0:
        return INT64_MIN + Below(60);
      case 1:
        return INT64_MAX - Below(60);
      default:
        return Below(200) - 100;
    }
  }
  Timestamp St() { return Below(3) == 0 ? Value64() : 1 + Below(50); }

  /// A constant in ST: `c`, `ST + c`, `ST - c`, `c * 2 - c`.
  ExprPtr Constant() {
    const int64_t c = Below(3) == 0 ? Value64() : Below(40) - 20;
    switch (Below(4)) {
      case 0:
        return Lit(c);
      case 1:
        return Add(ST(), Lit(c));
      case 2:
        return Sub(ST(), Lit(c));
      default:
        return Sub(Mul(Lit(c), Lit(2)), Lit(c));
    }
  }
  /// t plus a constant, in one of several spellings.
  ExprPtr Moving() {
    const int64_t c = Below(4) == 0 ? Value64() : Below(30) - 20;
    switch (Below(7)) {
      case 0:
        return T();
      case 1:
        return Add(T(), Lit(c));
      case 2:
        return Sub(T(), Lit(c));
      case 3:
        return Add(Lit(c), T());
      case 4:
        return Sub(Mul(Lit(2), T()), Add(T(), Lit(c)));  // 2t - (t + c).
      case 5:
        return Neg(Sub(Lit(c), T()));  // -(c - t).
      default:
        return Add(Sub(T(), ST()), Add(ST(), Lit(c)));
    }
  }

  ForLoopSpec Loop() {
    ForLoopSpec spec;
    switch (Below(3)) {
      case 0:
        spec.init = ST();
        break;
      case 1:
        spec.init = Lit(Value64());
        break;
      default:
        spec.init = Add(ST(), Lit(Below(40) - 20));
    }
    switch (Below(7)) {
      case 0:
        break;  // Once.
      case 1:
        spec.condition = Expr::Literal(Value::Bool(true));
        break;
      case 2:
        spec.condition = Expr::Binary(BinaryOp::kLt, T(), Constant());
        break;
      case 3:  // t < C, mirrored.
        spec.condition = Expr::Binary(BinaryOp::kGt, Constant(), T());
        break;
      case 4:  // t <= C, mirrored.
        spec.condition = Expr::Binary(BinaryOp::kGe, Constant(), T());
        break;
      default:
        spec.condition = Expr::Binary(BinaryOp::kLe, T(), Constant());
    }
    const int64_t hop = 1 + Below(20);
    switch (Below(5)) {
      case 0:
        break;  // The implicit t + 1.
      case 1:
        spec.step = Add(Lit(hop), T());
        break;
      case 2:
        spec.step = Sub(T(), Lit(-hop));
        break;
      default:
        spec.step = Add(T(), Lit(hop));
    }
    const int64_t clauses = 1 + Below(3);
    for (int64_t c = 0; c < clauses; ++c) {
      // Sliding, landmark (a fixed left end), fixed, or inverted (left
      // end after the right).
      ExprPtr left = Below(4) == 0 ? Constant() : Moving();
      ExprPtr right = Below(6) == 0 ? Constant() : Moving();
      if (Below(6) == 0) std::swap(left, right);
      spec.windows.push_back({"S" + std::to_string(c), left, right});
    }
    return spec;
  }

 private:
  std::mt19937_64 rng_;
};

void ExpectSameStep(const std::optional<WindowSequence::Step>& a,
                    const std::optional<WindowSequence::Step>& b,
                    const std::string& where) {
  ASSERT_EQ(a.has_value(), b.has_value()) << where;
  if (!a.has_value()) return;
  ASSERT_EQ(a->t, b->t) << where;
  ASSERT_EQ(a->bounds.size(), b->bounds.size()) << where;
  for (size_t i = 0; i < a->bounds.size(); ++i) {
    ASSERT_EQ(a->bounds[i], b->bounds[i]) << where << " clause " << i;
  }
}

TEST(LinearLoopTest, ArithmeticMatchesTheExpressionTrees) {
  constexpr int kLoops = 4000;
  constexpr int kSteps = 40;
  int recognised = 0, overflowed = 0;
  for (uint64_t seed = 1; seed <= kLoops; ++seed) {
    LinearLoopGen gen(seed);
    const Timestamp st = gen.St();
    const ForLoopSpec spec = gen.Loop();
    ASSERT_TRUE(ValidateForLoop(spec).ok());
    WindowSequence fast(&spec, st);
    WindowSequence slow = WindowSequence::Interpreted(&spec, st);
    ASSERT_EQ(slow.linear(), nullptr);
    if (fast.linear() != nullptr) ++recognised;
    // A third copy skips ahead by arithmetic and must land where the
    // others step to.
    WindowSequence skip = fast;
    const uint64_t skip_to =
        skip.linear() == nullptr
            ? 0
            : std::min<uint64_t>(skip.safe_steps(),
                                 static_cast<uint64_t>(gen.Below(kSteps)));
    if (skip_to > 0) {
      // Of the skipped windows, those ending each clause below a bound.
      const Timestamp bound = gen.Value64();
      uint64_t expect_below = 0;
      WindowSequence walk = fast;
      const uint64_t safe = walk.safe_steps();
      bool counted_all = true;
      for (uint64_t j = 0; j < safe; ++j) {
        if (j == 64) {
          counted_all = false;
          break;
        }
        auto s = walk.Next();
        ASSERT_TRUE(s.has_value());
        if (s->bounds[0].right < bound) ++expect_below;
      }
      if (counted_all) {
        EXPECT_EQ(fast.StepsEndingBelow(0, bound), expect_below)
            << "seed " << seed;
      }
      skip.Skip(skip_to);
    }
    const std::string where = "seed " + std::to_string(seed);
    for (int i = 0; i < kSteps; ++i) {
      const auto a = fast.Next();
      const auto b = slow.Next();
      ExpectSameStep(a, b, where + " step " + std::to_string(i));
      if (static_cast<uint64_t>(i) >= skip_to && skip_to > 0) {
        ExpectSameStep(skip.Next(), a,
                       where + " skipped to " + std::to_string(skip_to));
      }
      ASSERT_EQ(fast.done(), slow.done()) << where;
      ASSERT_EQ(fast.current_t(), slow.current_t()) << where;
      ASSERT_EQ(fast.index(), slow.index()) << where;
      if (!a.has_value()) break;
    }
    ASSERT_EQ(fast.status().code(), slow.status().code()) << where;
    ASSERT_EQ(fast.status().message(), slow.status().message()) << where;
    if (!fast.status().ok()) ++overflowed;
  }
  // Most generated loops are linear; some end on an overflow.
  std::printf("%d of %d loops linear, %d ended on an overflow\n", recognised,
              kLoops, overflowed);
  EXPECT_GT(recognised, kLoops * 3 / 4);
  EXPECT_GT(overflowed, kLoops / 20);
}

TEST(LinearLoopTest, StandingSlidingLoopIsLinear) {
  // for (t = ST; true; t += 5) { WindowIs(S, t - 9, t); }, ST = 100.
  ForLoopSpec spec = MakeSlidingWindow("S", 10, 5, 100, std::nullopt);
  WindowSequence seq(&spec, 100);
  const LinearLoop* loop = seq.linear();
  ASSERT_NE(loop, nullptr);
  EXPECT_EQ(loop->t0, 100);
  EXPECT_EQ(loop->hop, 5);
  EXPECT_TRUE(loop->left(0).moves);
  EXPECT_EQ(loop->left(0).offset, -9);
  EXPECT_EQ(loop->right(0).offset, 0);
  // Until t + 5 would pass INT64_MAX.
  EXPECT_EQ(loop->steps, static_cast<uint64_t>((kMaxTimestamp - 5 - 100) /
                                               5) + 1);
  // One more window is whole; only its t + 5 overflows.
  EXPECT_TRUE(loop->last_without_step);
  EXPECT_EQ(loop->windows(), loop->steps + 1);
  // Windows [91, 100], [96, 105], [101, 110] end below 111.
  EXPECT_EQ(seq.StepsEndingBelow(0, 111), 3u);
  seq.Skip(3);
  auto step = seq.Next();
  ASSERT_TRUE(step.has_value());
  EXPECT_EQ(step->t, 115);
  EXPECT_EQ(step->bounds[0], (WindowBounds{106, 115}));
}

TEST(LinearLoopTest, CountFromInt64MinDoesNotWrap) {
  // for (t = INT64_MIN; true; t++) { WindowIs(S, t, t); }: 2^64 - 1
  // windows step, and one more at INT64_MAX would follow without a step.
  // Its count stays UINT64_MAX rather than wrapping to 0.
  ForLoopSpec spec;
  spec.init = Lit(INT64_MIN);
  spec.condition = Expr::Literal(Value::Bool(true));
  spec.step = Add(T(), Lit(1));
  spec.windows.push_back({"S", T(), T()});
  WindowSequence seq(&spec, 0);
  const LinearLoop* loop = seq.linear();
  ASSERT_NE(loop, nullptr);
  EXPECT_EQ(loop->steps, UINT64_MAX);
  EXPECT_FALSE(loop->last_without_step);
  EXPECT_EQ(loop->windows(), UINT64_MAX);
  EXPECT_EQ(seq.safe_steps(), UINT64_MAX);
  EXPECT_EQ(seq.StepsEndingBelow(0, INT64_MIN + 5), 5u);
  seq.Skip(5);
  auto step = seq.Next();
  ASSERT_TRUE(step.has_value());
  EXPECT_EQ(step->t, INT64_MIN + 5);
}

TEST(LinearLoopTest, NonLinearLoopsAreNotRecognised) {
  auto loop = [](ExprPtr condition, ExprPtr step, ExprPtr left,
                 ExprPtr right) {
    ForLoopSpec spec;
    spec.init = Lit(1);
    spec.condition = std::move(condition);
    spec.step = std::move(step);
    spec.windows.push_back({"S", std::move(left), std::move(right)});
    return spec;
  };
  const ExprPtr yes = Expr::Literal(Value::Bool(true));
  const std::vector<ForLoopSpec> specs = {
      loop(yes, Mul(Lit(2), T()), Sub(T(), Lit(4)), T()),  // t = 2*t.
      loop(yes, Add(T(), T()), T(), T()),                   // t = t + t.
      loop(yes, Sub(T(), Lit(1)), T(), T()),                // t -= 1.
      loop(yes, Add(T(), Lit(0)), T(), T()),                // t += 0.
      loop(yes, Add(T(), Lit(1)), Mul(Lit(2), T()), T()),   // Bound 2*t.
      loop(yes, Add(T(), Lit(1)), T(), Neg(T())),           // Bound -t.
      loop(yes, Add(T(), Lit(1)),
           Expr::Binary(BinaryOp::kDiv, T(), Lit(2)), T()),  // Bound t/2.
      loop(yes, Add(T(), Lit(1)), T(), Mul(T(), T())),       // Bound t*t.
      loop(yes, Add(T(), Expr::Literal(Value::Double(1.5))), T(), T()),
      loop(Expr::Binary(BinaryOp::kGe, T(), Lit(0)), Add(T(), Lit(1)), T(),
           T()),  // t >= 0.
      loop(Expr::Binary(BinaryOp::kLt, Add(T(), Lit(1)), Lit(9)),
           Add(T(), Lit(1)), T(), T()),  // t + 1 < 9.
      loop(Expr::Binary(BinaryOp::kLt, T(), T()), Add(T(), Lit(1)), T(),
           T()),  // t < t.
      loop(Expr::Literal(Value::Bool(false)), Add(T(), Lit(1)), T(), T()),
      loop(Expr::Binary(BinaryOp::kLt, T(), Lit(INT64_MIN)),
           Add(T(), Lit(1)), T(), T()),  // Never true.
      loop(Expr::Binary(BinaryOp::kGt, Lit(INT64_MIN), T()),
           Add(T(), Lit(1)), T(), T()),  // Never true, mirrored.
      loop(Expr::Binary(BinaryOp::kGe, T(), T()), Add(T(), Lit(1)), T(),
           T()),  // t >= t.
  };
  for (size_t i = 0; i < specs.size(); ++i) {
    WindowSequence seq(&specs[i], 0);
    EXPECT_EQ(seq.linear(), nullptr) << "loop " << i;
    // They still step, by the trees.
    WindowSequence ref = WindowSequence::Interpreted(&specs[i], 0);
    for (int s = 0; s < 5; ++s) {
      ExpectSameStep(seq.Next(), ref.Next(), "loop " + std::to_string(i));
    }
  }
}

}  // namespace
}  // namespace tcq
