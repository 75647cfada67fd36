#include "tuple/value.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>

#include "common/rng.h"

namespace tcq {
namespace {

TEST(ValueTest, DefaultIsNull) {
  Value v;
  EXPECT_TRUE(v.is_null());
  EXPECT_EQ(v.type(), ValueType::kNull);
}

TEST(ValueTest, FactoriesAndAccessors) {
  EXPECT_EQ(Value::Bool(true).bool_value(), true);
  EXPECT_EQ(Value::Int64(-5).int64_value(), -5);
  EXPECT_DOUBLE_EQ(Value::Double(2.5).double_value(), 2.5);
  EXPECT_EQ(Value::String("abc").string_value(), "abc");
}

TEST(ValueTest, TypeTags) {
  EXPECT_EQ(Value::Bool(false).type(), ValueType::kBool);
  EXPECT_EQ(Value::Int64(0).type(), ValueType::kInt64);
  EXPECT_EQ(Value::Double(0).type(), ValueType::kDouble);
  EXPECT_EQ(Value::String("").type(), ValueType::kString);
}

TEST(ValueTest, NumericCrossTypeComparison) {
  EXPECT_EQ(Value::Int64(1), Value::Double(1.0));
  EXPECT_LT(Value::Int64(1), Value::Double(1.5));
  EXPECT_GT(Value::Double(2.5), Value::Int64(2));
}

TEST(ValueTest, Int64ExactComparison) {
  // Large int64 values that would collide after double rounding.
  const int64_t big = (int64_t{1} << 62) + 1;
  EXPECT_LT(Value::Int64(big), Value::Int64(big + 1));
  EXPECT_EQ(Value::Int64(big), Value::Int64(big));
}

TEST(ValueTest, StringComparison) {
  EXPECT_LT(Value::String("MSFT"), Value::String("ORCL"));
  EXPECT_EQ(Value::String("MSFT"), Value::String("MSFT"));
}

TEST(ValueTest, NullSortsFirstAndEqualsOnlyNull) {
  EXPECT_LT(Value::Null(), Value::Int64(INT64_MIN));
  EXPECT_LT(Value::Null(), Value::String(""));
  EXPECT_EQ(Value::Null(), Value::Null());
  EXPECT_NE(Value::Null(), Value::Int64(0));
}

TEST(ValueTest, HashConsistentWithEquality) {
  EXPECT_EQ(Value::Int64(1).Hash(), Value::Double(1.0).Hash());
  EXPECT_EQ(Value::String("x").Hash(), Value::String("x").Hash());
  EXPECT_EQ(Value::Int64(7).Hash(), Value::Int64(7).Hash());
  // -0.0 and +0.0 compare equal and must hash equal.
  EXPECT_EQ(Value::Double(-0.0).Hash(), Value::Double(0.0).Hash());
}

TEST(ValueTest, AsDouble) {
  EXPECT_DOUBLE_EQ(Value::Int64(3).AsDouble(), 3.0);
  EXPECT_DOUBLE_EQ(Value::Double(3.5).AsDouble(), 3.5);
}

TEST(ValueTest, ToString) {
  EXPECT_EQ(Value::Null().ToString(), "NULL");
  EXPECT_EQ(Value::Bool(true).ToString(), "true");
  EXPECT_EQ(Value::Int64(42).ToString(), "42");
  EXPECT_EQ(Value::String("hi").ToString(), "'hi'");
  EXPECT_EQ(Value::Double(123456789.25).ToString(), "123456789.25");
  EXPECT_EQ(Value::Double(50.0).ToString(), "50");
  EXPECT_EQ(Value::Double(-0.1).ToString(), "-0.1");
}

TEST(ValueTest, DoubleToStringRoundTrips) {
  // Random bit patterns cover every exponent; each must print in a form
  // that parses back to the same double.
  Rng rng(2024);
  for (int i = 0; i < 10000; ++i) {
    const uint64_t bits = rng.Next();
    double d = 0.0;
    std::memcpy(&d, &bits, sizeof(d));
    if (!std::isfinite(d)) continue;
    const std::string text = Value::Double(d).ToString();
    EXPECT_EQ(std::strtod(text.c_str(), nullptr), d) << text;
  }
}

TEST(ValueTest, BoolOrdering) {
  EXPECT_LT(Value::Bool(false), Value::Bool(true));
  EXPECT_EQ(Value::Bool(true), Value::Bool(true));
}

}  // namespace
}  // namespace tcq
