#include "eddy/knob_controller.h"

#include <gtest/gtest.h>

#include "eddy/operators.h"
#include "kv.h"

namespace tcq {
namespace {

struct Fixture {
  SourceLayout layout;
  size_t s;
  std::shared_ptr<uint64_t> pos = std::make_shared<uint64_t>(0);

  Fixture() { s = layout.AddSource("s", KV()); }

  SmallBitset Req() {
    SmallBitset b(1);
    b.Set(s);
    return b;
  }
};

TEST(KnobControllerTest, GrowsBatchWhenStable) {
  Fixture fx;
  Eddy eddy(&fx.layout, std::make_unique<LotteryPolicy>(3));
  eddy.AddOperator(std::make_shared<SyntheticFilterOp>(
      "f", fx.Req(), [](uint64_t) { return 0.5; }, 1.0, 5));

  KnobController::Options opts;
  opts.sample_interval = 256;
  opts.max_batch = 64;
  KnobController controller(&eddy, opts);

  for (int64_t i = 0; i < 4000; ++i) {
    eddy.Inject(fx.s, Tuple::Make({Value::Int64(i), Value::Int64(i)}, i));
    eddy.Drain();
    controller.OnTuple();
  }
  EXPECT_EQ(controller.current_batch(), 64u);  // Saturated at max.
  EXPECT_GT(controller.grows(), 0u);
  EXPECT_EQ(controller.shrinks(), 0u);
}

TEST(KnobControllerTest, ShrinksBatchOnDrift) {
  Fixture fx;
  Eddy::Options eopts;
  eopts.batch_size = 64;
  Eddy eddy(&fx.layout, std::make_unique<LotteryPolicy>(3), eopts);
  // Selectivity flips every 1024 tuples: persistent drift.
  eddy.AddOperator(std::make_shared<SyntheticFilterOp>(
      "f", fx.Req(),
      [pos = fx.pos](uint64_t) {
        return (*pos / 1024) % 2 == 0 ? 0.1 : 0.9;
      },
      1.0, 5));

  KnobController::Options opts;
  opts.sample_interval = 512;
  opts.min_batch = 1;
  opts.max_batch = 64;
  KnobController controller(&eddy, opts);

  for (int64_t i = 0; i < 8000; ++i) {
    *fx.pos = static_cast<uint64_t>(i);
    eddy.Inject(fx.s, Tuple::Make({Value::Int64(i), Value::Int64(i)}, i));
    eddy.Drain();
    controller.OnTuple();
  }
  EXPECT_GT(controller.shrinks(), 0u);
  EXPECT_LT(controller.current_batch(), 64u);
}

TEST(KnobControllerTest, ReactsOnlyAtSampleBoundaries) {
  Fixture fx;
  Eddy eddy(&fx.layout, std::make_unique<LotteryPolicy>(3));
  eddy.AddOperator(std::make_shared<SyntheticFilterOp>(
      "f", fx.Req(), [](uint64_t) { return 0.5; }, 1.0, 5));
  KnobController::Options opts;
  opts.sample_interval = 100;
  KnobController controller(&eddy, opts);
  int adjustments = 0;
  for (int64_t i = 0; i < 99; ++i) {
    eddy.Inject(fx.s, Tuple::Make({Value::Int64(i), Value::Int64(i)}, i));
    eddy.Drain();
    if (controller.OnTuple()) ++adjustments;
  }
  EXPECT_EQ(adjustments, 0);  // No boundary crossed yet.
}

TEST(KnobControllerTest, RespectsBounds) {
  Fixture fx;
  Eddy::Options eopts;
  eopts.batch_size = 8;
  Eddy eddy(&fx.layout, std::make_unique<LotteryPolicy>(3), eopts);
  eddy.AddOperator(std::make_shared<SyntheticFilterOp>(
      "f", fx.Req(), [](uint64_t) { return 0.5; }, 1.0, 5));
  KnobController::Options opts;
  opts.sample_interval = 128;
  opts.min_batch = 4;
  opts.max_batch = 16;
  KnobController controller(&eddy, opts);
  for (int64_t i = 0; i < 4000; ++i) {
    eddy.Inject(fx.s, Tuple::Make({Value::Int64(i), Value::Int64(i)}, i));
    eddy.Drain();
    controller.OnTuple();
  }
  EXPECT_GE(controller.current_batch(), 4u);
  EXPECT_LE(controller.current_batch(), 16u);
}

TEST(KnobControllerTest, EddySetBatchSizeClearsCacheSafely) {
  Fixture fx;
  Eddy::Options eopts;
  eopts.batch_size = 16;
  Eddy eddy(&fx.layout, std::make_unique<LotteryPolicy>(3), eopts);
  ExprPtr truth = Expr::Literal(Value::Bool(true));
  eddy.AddOperator(std::make_shared<FilterOp>("t1", truth, fx.Req()));
  eddy.AddOperator(std::make_shared<FilterOp>("t2", truth, fx.Req()));
  size_t emitted = 0;
  eddy.SetSink([&](RoutedTuple&&) { ++emitted; });
  for (int64_t i = 0; i < 100; ++i) {
    eddy.Inject(fx.s, Tuple::Make({Value::Int64(i), Value::Int64(i)}, i));
    if (i == 50) eddy.set_batch_size(2);
    eddy.Drain();
  }
  EXPECT_EQ(emitted, 100u);  // Knob turns never lose tuples.
  EXPECT_EQ(eddy.batch_size(), 2u);
}

}  // namespace
}  // namespace tcq
