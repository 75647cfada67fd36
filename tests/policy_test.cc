#include "eddy/policy.h"

#include <gtest/gtest.h>

namespace tcq {
namespace {

std::vector<EddyOpStats> MakeStats(size_t n) {
  return std::vector<EddyOpStats>(n);
}

TEST(PolicyTest, FixedPrefersLowestRank) {
  FixedPolicy policy({2, 0, 1});
  auto stats = MakeStats(3);
  std::vector<double> costs{1, 1, 1};
  EXPECT_EQ(policy.Choose({0, 1, 2}, stats, costs), 1u);
  EXPECT_EQ(policy.Choose({0, 2}, stats, costs), 2u);
  EXPECT_EQ(policy.Choose({0}, stats, costs), 0u);
}

TEST(PolicyTest, FixedWithoutPrioritiesUsesIndexOrder) {
  FixedPolicy policy({});
  auto stats = MakeStats(3);
  std::vector<double> costs{1, 1, 1};
  EXPECT_EQ(policy.Choose({2, 1}, stats, costs), 1u);
}

TEST(PolicyTest, RandomCoversAllEligible) {
  RandomPolicy policy(3);
  auto stats = MakeStats(4);
  std::vector<double> costs{1, 1, 1, 1};
  std::vector<int> hits(4, 0);
  for (int i = 0; i < 1000; ++i) {
    ++hits[policy.Choose({0, 1, 2, 3}, stats, costs)];
  }
  for (int h : hits) EXPECT_GT(h, 150);
}

TEST(PolicyTest, ObserveAccumulatesTicketsForSelectiveOps) {
  LotteryPolicy policy(3);
  auto stats = MakeStats(2);
  // Op 0 drops everything (never passes); op 1 passes everything.
  for (int i = 0; i < 100; ++i) {
    policy.Observe(0, /*passed=*/false, &stats);
    policy.Observe(1, /*passed=*/true, &stats);
  }
  EXPECT_GT(stats[0].tickets, stats[1].tickets);
  EXPECT_GT(stats[0].tickets, 50.0);
}

TEST(PolicyTest, TicketsNeverNegative) {
  LotteryPolicy policy(3);
  auto stats = MakeStats(1);
  for (int i = 0; i < 50; ++i) policy.Observe(0, true, &stats);
  EXPECT_GE(stats[0].tickets, 0.0);
}

TEST(PolicyTest, LotteryFavorsTicketRichOps) {
  LotteryPolicy policy(11);
  auto stats = MakeStats(2);
  stats[0].tickets = 100.0;
  stats[1].tickets = 1.0;
  std::vector<double> costs{1, 1};
  int first = 0;
  for (int i = 0; i < 1000; ++i) {
    if (policy.Choose({0, 1}, stats, costs) == 0) ++first;
  }
  EXPECT_GT(first, 800);
}

TEST(PolicyTest, LotteryPenalizesExpensiveOps) {
  LotteryPolicy policy(11);
  auto stats = MakeStats(2);
  stats[0].tickets = 10.0;
  stats[1].tickets = 10.0;
  std::vector<double> costs{1.0, 100.0};
  int cheap = 0;
  for (int i = 0; i < 1000; ++i) {
    if (policy.Choose({0, 1}, stats, costs) == 0) ++cheap;
  }
  EXPECT_GT(cheap, 900);
}

TEST(PolicyTest, DecayForgetsHistory) {
  LotteryPolicy::Options opts;
  opts.decay = 0.5;
  opts.decay_interval = 10;
  LotteryPolicy policy(3, opts);
  auto stats = MakeStats(1);
  stats[0].tickets = 1000.0;
  std::vector<double> costs{1};
  // Passing tuples keep debiting while decay halves the balance every 10
  // decisions; history must fade fast.
  for (int i = 0; i < 100; ++i) {
    policy.Choose({0}, stats, costs);
    policy.Observe(0, true, &stats);
  }
  EXPECT_LT(stats[0].tickets, 10.0);
}

// Decisions served from a decision cache, and fixed-route visits, call
// Observe without a Choose. Tickets decay once per decay interval the
// decision count passes, however many Observe calls follow.
TEST(PolicyTest, DecayOncePerIntervalWhateverTheObserveCalls) {
  LotteryPolicy policy(3);  // Decay 0.9 every 128 decisions.
  auto stats = MakeStats(2);
  const std::vector<double> costs{1, 1};
  for (int i = 0; i < 128; ++i) policy.Choose({0, 1}, stats, costs);
  stats[0].tickets = 100.0;
  stats[1].tickets = 50.0;
  // 64 Observe calls with the count on 128. A passing tuple leaves its
  // op's balance unchanged, so only decay moves them.
  for (int i = 0; i < 64; ++i) policy.Observe(1, /*passed=*/true, &stats);
  EXPECT_DOUBLE_EQ(stats[0].tickets, 100.0 * 0.9);
  EXPECT_DOUBLE_EQ(stats[1].tickets, 50.0 * 0.9);
  // The next multiple decays once more.
  for (int i = 0; i < 128; ++i) {
    policy.Choose({0, 1}, stats, costs);
    policy.Observe(1, /*passed=*/true, &stats);
  }
  EXPECT_DOUBLE_EQ(stats[0].tickets, 100.0 * 0.9 * 0.9);
  EXPECT_DOUBLE_EQ(stats[1].tickets, 50.0 * 0.9 * 0.9);
}

TEST(PolicyTest, ExplorationFloorKeepsStarvedOpAlive) {
  LotteryPolicy policy(13);
  auto stats = MakeStats(2);
  stats[0].tickets = 1000.0;
  stats[1].tickets = 0.0;  // Starved op.
  std::vector<double> costs{1, 1};
  int starved_hits = 0;
  for (int i = 0; i < 20000; ++i) {
    if (policy.Choose({0, 1}, stats, costs) == 1) ++starved_hits;
  }
  EXPECT_GT(starved_hits, 0);  // Exploration keeps sampling it.
}

TEST(PolicyTest, MakePolicyFactory) {
  EXPECT_STREQ(MakePolicy("fixed")->name(), "fixed");
  EXPECT_STREQ(MakePolicy("random")->name(), "random");
  EXPECT_STREQ(MakePolicy("lottery")->name(), "lottery");
  EXPECT_STREQ(MakePolicy("bogus")->name(), "lottery");  // Fallback.
}

}  // namespace
}  // namespace tcq
