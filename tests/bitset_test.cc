#include "common/bitset.h"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "common/rng.h"

namespace tcq {
namespace {

TEST(SmallBitsetTest, StartsAllZero) {
  SmallBitset b(70);
  EXPECT_EQ(b.size_bits(), 70u);
  EXPECT_EQ(b.Count(), 0u);
  EXPECT_TRUE(b.None());
  for (size_t i = 0; i < 70; ++i) EXPECT_FALSE(b.Test(i));
}

TEST(SmallBitsetTest, SetClearTest) {
  SmallBitset b(100);
  b.Set(0);
  b.Set(63);
  b.Set(64);
  b.Set(99);
  EXPECT_TRUE(b.Test(0));
  EXPECT_TRUE(b.Test(63));
  EXPECT_TRUE(b.Test(64));
  EXPECT_TRUE(b.Test(99));
  EXPECT_FALSE(b.Test(1));
  EXPECT_EQ(b.Count(), 4u);
  b.Clear(63);
  EXPECT_FALSE(b.Test(63));
  EXPECT_EQ(b.Count(), 3u);
}

TEST(SmallBitsetTest, HeapOverflowBeyond128Bits) {
  SmallBitset b(500);
  for (size_t i = 0; i < 500; i += 7) b.Set(i);
  size_t expected = 0;
  for (size_t i = 0; i < 500; i += 7) ++expected;
  EXPECT_EQ(b.Count(), expected);
  EXPECT_TRUE(b.Test(497));
  EXPECT_FALSE(b.Test(498));
}

TEST(SmallBitsetTest, SetAllRespectsSize) {
  SmallBitset b(67);
  b.SetAll();
  EXPECT_EQ(b.Count(), 67u);
  EXPECT_TRUE(b.All());
  b.ClearAll();
  EXPECT_TRUE(b.None());
}

TEST(SmallBitsetTest, ContainsAndIntersects) {
  SmallBitset a(80), b(80);
  a.Set(3);
  a.Set(70);
  b.Set(3);
  EXPECT_TRUE(a.Contains(b));
  EXPECT_FALSE(b.Contains(a));
  EXPECT_TRUE(a.Intersects(b));
  SmallBitset c(80);
  c.Set(5);
  EXPECT_FALSE(a.Intersects(c));
  EXPECT_TRUE(a.Contains(SmallBitset(80)));  // Empty set always contained.
}

TEST(SmallBitsetTest, BitwiseOps) {
  SmallBitset a(10), b(10);
  a.Set(1);
  a.Set(2);
  b.Set(2);
  b.Set(3);
  SmallBitset u = a;
  u |= b;
  EXPECT_EQ(u.Count(), 3u);
  SmallBitset i = a;
  i &= b;
  EXPECT_EQ(i.Count(), 1u);
  EXPECT_TRUE(i.Test(2));
  SmallBitset d = a;
  d -= b;
  EXPECT_EQ(d.Count(), 1u);
  EXPECT_TRUE(d.Test(1));
}

TEST(SmallBitsetTest, Equality) {
  SmallBitset a(9), b(9);
  EXPECT_TRUE(a == b);
  a.Set(8);
  EXPECT_FALSE(a == b);
  b.Set(8);
  EXPECT_TRUE(a == b);
}

TEST(SmallBitsetTest, FirstAndNextSet) {
  SmallBitset b(200);
  EXPECT_EQ(b.FirstSet(), 200u);
  b.Set(5);
  b.Set(64);
  b.Set(190);
  EXPECT_EQ(b.FirstSet(), 5u);
  EXPECT_EQ(b.NextSet(6), 64u);
  EXPECT_EQ(b.NextSet(65), 190u);
  EXPECT_EQ(b.NextSet(191), 200u);
}

TEST(SmallBitsetTest, ForEachSetVisitsAscending) {
  SmallBitset b(150);
  std::vector<size_t> expected = {0, 17, 63, 64, 65, 127, 128, 149};
  for (size_t i : expected) b.Set(i);
  std::vector<size_t> seen;
  b.ForEachSet([&](size_t i) { seen.push_back(i); });
  EXPECT_EQ(seen, expected);
}

TEST(SmallBitsetTest, ResizeGrowPreservesAndZeroExtends) {
  SmallBitset b(10);
  b.Set(9);
  b.Resize(300);
  EXPECT_TRUE(b.Test(9));
  EXPECT_EQ(b.Count(), 1u);
  b.Set(299);
  EXPECT_EQ(b.Count(), 2u);
}

TEST(SmallBitsetTest, ResizeShrinkDropsTail) {
  SmallBitset b(100);
  b.Set(5);
  b.Set(99);
  b.Resize(50);
  EXPECT_EQ(b.Count(), 1u);
  EXPECT_TRUE(b.Test(5));
}

// None()/All() early-exit word walks must agree with Count() exactly at
// the inline/overflow word boundaries: 127 (tail bit of the last inline
// word), 128 (both inline words exactly full, no tail mask), 129 (first
// overflow word holds one tail bit).
TEST(SmallBitsetTest, NoneAllAtWordBoundaries) {
  for (const size_t nbits : {127u, 128u, 129u}) {
    SCOPED_TRACE(nbits);
    SmallBitset b(nbits);
    EXPECT_TRUE(b.None());
    EXPECT_FALSE(b.All());

    b.SetAll();
    EXPECT_FALSE(b.None());
    EXPECT_TRUE(b.All());
    EXPECT_EQ(b.Count(), nbits);

    // One hole anywhere breaks All; the probe order covers first word,
    // word boundary, and final bit.
    for (const size_t hole : {size_t{0}, size_t{63}, size_t{64}, nbits - 1}) {
      b.Clear(hole);
      EXPECT_FALSE(b.All()) << "hole at " << hole;
      EXPECT_FALSE(b.None());
      b.Set(hole);
      EXPECT_TRUE(b.All());
    }

    // A single bit in the last word breaks None (the early exit must not
    // stop scanning before the tail word).
    b.ClearAll();
    b.Set(nbits - 1);
    EXPECT_FALSE(b.None());
    EXPECT_FALSE(b.All());
  }
}

TEST(SmallBitsetTest, AllOnEmptySetIsFalse) {
  SmallBitset b(0);
  EXPECT_TRUE(b.None());
  EXPECT_FALSE(b.All());
}

TEST(SmallBitsetTest, AndWordsTouchesOnlyThePrefix) {
  SmallBitset wide(300);
  for (size_t i = 0; i < 300; i += 3) wide.Set(i);
  SmallBitset narrow(130);  // Overflow word with a partial tail.
  for (size_t i = 0; i < 130; i += 6) narrow.Set(i);

  SmallBitset expect = wide;
  // Three words: two inline, one from the overflow vector.
  const std::vector<uint64_t> keep = {0x5555555555555555ULL, ~uint64_t{0},
                                      0x0F0F0F0F0F0F0F0FULL};
  wide.AndWords(keep.size(), [&](size_t w) { return keep[w]; });

  for (size_t i = 0; i < 300; ++i) {
    const bool want =
        expect.Test(i) && (i >= 192 || ((keep[i / 64] >> (i % 64)) & 1));
    ASSERT_EQ(wide.Test(i), want) << i;
  }
  // Words past the prefix are untouched.
  EXPECT_TRUE(wide.Test(297));
}

TEST(SmallBitsetTest, AndWordsWithComplementMatchesOperatorMinus) {
  Rng rng(11);
  SmallBitset a(150), b(150);
  for (int i = 0; i < 60; ++i) a.Set(rng.NextBounded(150));
  for (int i = 0; i < 60; ++i) b.Set(rng.NextBounded(150));
  SmallBitset via_op = a;
  via_op -= b;
  SmallBitset via_words = a;
  SmallBitset copy = b;
  via_words.AndWords(3, [&](size_t w) {
    uint64_t word = 0;
    for (size_t i = 0; i < 64 && w * 64 + i < 150; ++i) {
      if (copy.Test(w * 64 + i)) word |= uint64_t{1} << i;
    }
    return ~word;
  });
  EXPECT_TRUE(via_op == via_words);
  EXPECT_EQ(via_words.Count(), via_op.Count());  // The tail stayed zero.
}

// Property test: random operations agree with std::set<size_t> oracle.
class BitsetPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BitsetPropertyTest, MatchesSetOracle) {
  Rng rng(GetParam());
  const size_t nbits = 1 + rng.NextBounded(400);
  SmallBitset b(nbits);
  std::set<size_t> oracle;
  for (int step = 0; step < 500; ++step) {
    const size_t i = rng.NextBounded(nbits);
    if (rng.NextBool(0.5)) {
      b.Set(i);
      oracle.insert(i);
    } else {
      b.Clear(i);
      oracle.erase(i);
    }
    ASSERT_EQ(b.Count(), oracle.size());
    ASSERT_EQ(b.Test(i), oracle.count(i) != 0);
    ASSERT_EQ(b.FirstSet(), oracle.empty() ? nbits : *oracle.begin());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BitsetPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace tcq
