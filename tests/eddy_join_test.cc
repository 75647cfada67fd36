#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "eddy/eddy.h"
#include "eddy/operators.h"
#include "kv.h"

namespace tcq {
namespace {

/// Two-source fixture wiring a symmetric hash join: S.k = T.k through two
/// SteMs, exactly as Figure 2 of the paper.
struct JoinFixture {
  SourceLayout layout;
  size_t s, t;
  SteMPtr stem_s, stem_t;

  JoinFixture() {
    s = layout.AddSource("S", KV());
    t = layout.AddSource("T", KV());
    stem_s = std::make_shared<SteM>("SteM_S", layout.full_schema(),
                                    static_cast<int>(layout.offset(s)));
    stem_t = std::make_shared<SteM>("SteM_T", layout.full_schema(),
                                    static_cast<int>(layout.offset(t)));
  }

  SmallBitset Only(size_t src) const {
    SmallBitset b(layout.num_sources());
    b.Set(src);
    return b;
  }

  void WireSymmetricHashJoin(Eddy* eddy) {
    eddy->AddOperator(std::make_shared<StemBuildOp>("build_S", s, stem_s));
    eddy->AddOperator(std::make_shared<StemBuildOp>("build_T", t, stem_t));
    eddy->AddOperator(std::make_shared<StemProbeOp>(
        "probe_T", &layout, t, stem_t, Only(s),
        static_cast<int>(layout.offset(s))));
    eddy->AddOperator(std::make_shared<StemProbeOp>(
        "probe_S", &layout, s, stem_s, Only(t),
        static_cast<int>(layout.offset(t))));
  }
};

size_t ReferenceJoinCount(const TupleVector& s_rows, const TupleVector& t_rows) {
  size_t n = 0;
  for (const Tuple& a : s_rows) {
    for (const Tuple& b : t_rows) {
      if (a.cell(0) == b.cell(0)) ++n;
    }
  }
  return n;
}

TEST(EddyJoinTest, SymmetricHashJoinSmall) {
  JoinFixture fx;
  Eddy eddy(&fx.layout, std::make_unique<FixedPolicy>(std::vector<size_t>{}));
  fx.WireSymmetricHashJoin(&eddy);

  TupleVector out;
  eddy.SetSink([&](RoutedTuple&& rt) { out.push_back(rt.tuple); });

  eddy.Inject(fx.s, KVTuple(1, 100));
  eddy.Inject(fx.t, KVTuple(1, 200));
  eddy.Inject(fx.t, KVTuple(2, 300));
  eddy.Inject(fx.s, KVTuple(2, 400));
  eddy.Inject(fx.s, KVTuple(3, 500));
  eddy.Drain();

  ASSERT_EQ(out.size(), 2u);  // Keys 1 and 2 match once each.
  for (const Tuple& m : out) {
    EXPECT_EQ(m.arity(), 4u);
    EXPECT_EQ(m.cell(0), m.cell(2));  // S.k == T.k.
    EXPECT_FALSE(m.cell(1).is_null());
    EXPECT_FALSE(m.cell(3).is_null());
  }
}

// Property: interleaved arrival orders and all policies produce exactly the
// reference join, with no duplicates.
class EddyJoinPropertyTest
    : public ::testing::TestWithParam<std::tuple<const char*, uint64_t>> {};

TEST_P(EddyJoinPropertyTest, MatchesReferenceJoin) {
  const auto [policy, seed] = GetParam();
  JoinFixture fx;
  Eddy eddy(&fx.layout, MakePolicy(policy, seed));
  fx.WireSymmetricHashJoin(&eddy);

  size_t emitted = 0;
  eddy.SetSink([&](RoutedTuple&& rt) {
    // Every output spans both sources.
    EXPECT_EQ(rt.sources.Count(), 2u);
    ++emitted;
  });

  Rng rng(seed);
  TupleVector s_rows, t_rows;
  for (int i = 0; i < 300; ++i) {
    Tuple row = KVTuple(static_cast<int64_t>(rng.NextBounded(25)), i, i);
    if (rng.NextBool(0.5)) {
      s_rows.push_back(row);
      eddy.Inject(fx.s, row);
    } else {
      t_rows.push_back(row);
      eddy.Inject(fx.t, row);
    }
    if (rng.NextBool(0.3)) eddy.Drain();  // Interleave routing with arrival.
  }
  eddy.Drain();
  const size_t expected = ReferenceJoinCount(s_rows, t_rows);
  EXPECT_EQ(emitted, expected);
  // Each join output is counted once, by the SteM its probe read.
  EXPECT_EQ(fx.stem_s->stats().matches + fx.stem_t->stats().matches,
            expected);
}

INSTANTIATE_TEST_SUITE_P(
    Policies, EddyJoinPropertyTest,
    ::testing::Combine(::testing::Values("fixed", "random", "lottery"),
                       ::testing::Values(1u, 7u, 99u)));

TEST(EddyJoinTest, ResidualPredicateBandJoin) {
  // S.k = T.k AND T.v > S.v — equality key plus residual band predicate.
  JoinFixture fx;
  Eddy eddy(&fx.layout, std::make_unique<FixedPolicy>(std::vector<size_t>{}));
  auto residual_expr = Expr::Binary(BinaryOp::kGt, Expr::Column("T.v"),
                                    Expr::Column("S.v"));
  auto residual = residual_expr->Bind(*fx.layout.full_schema());
  ASSERT_TRUE(residual.ok()) << residual.status();

  fx.WireSymmetricHashJoin(&eddy);
  SmallBitset both = fx.Only(fx.s);
  both.Set(fx.t);
  eddy.AddOperator(
      std::make_shared<FilterOp>("T.v > S.v", *residual, std::move(both)));

  TupleVector out;
  eddy.SetSink([&](RoutedTuple&& rt) { out.push_back(rt.tuple); });

  eddy.Inject(fx.s, KVTuple(1, 10));
  eddy.Inject(fx.t, KVTuple(1, 20));  // T.v 20 > S.v 10: match.
  eddy.Inject(fx.t, KVTuple(1, 5));   // 5 < 10: filtered by residual.
  eddy.Drain();

  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].cell(3).int64_value(), 20);
}

TEST(EddyJoinTest, WindowedProbeRespectsHandle) {
  JoinFixture fx;
  auto window = std::make_shared<WindowHandle>();
  Eddy eddy(&fx.layout, std::make_unique<FixedPolicy>(std::vector<size_t>{}));
  eddy.AddOperator(std::make_shared<StemBuildOp>("build_T", fx.t, fx.stem_t));
  eddy.AddOperator(std::make_shared<StemProbeOp>(
      "probe_T", &fx.layout, fx.t, fx.stem_t, fx.Only(fx.s),
      static_cast<int>(fx.layout.offset(fx.s)), window));

  size_t emitted = 0;
  eddy.SetSink([&](RoutedTuple&&) { ++emitted; });

  for (int64_t ts = 1; ts <= 10; ++ts) eddy.Inject(fx.t, KVTuple(1, ts, ts));
  eddy.Drain();

  window->Set(3, 7);  // Probe sees only T tuples with ts in [3,7].
  eddy.Inject(fx.s, KVTuple(1, 0, 11));
  eddy.Drain();
  EXPECT_EQ(emitted, 5u);
}

TEST(EddyJoinTest, ThreeWayJoinMatchesReference) {
  // R(k) ⋈ S(k) ⋈ T(k) on a shared key, wired as three build/probe pairs.
  SourceLayout layout;
  const size_t r = layout.AddSource("R", KV());
  const size_t s = layout.AddSource("S", KV());
  const size_t t = layout.AddSource("T", KV());

  auto make_stem = [&](size_t src, const char* name) {
    return std::make_shared<SteM>(name, layout.full_schema(),
                                  static_cast<int>(layout.offset(src)));
  };
  auto stem_r = make_stem(r, "SteM_R");
  auto stem_s = make_stem(s, "SteM_S");
  auto stem_t = make_stem(t, "SteM_T");

  Eddy eddy(&layout, std::make_unique<LotteryPolicy>(5));
  eddy.AddOperator(std::make_shared<StemBuildOp>("build_R", r, stem_r));
  eddy.AddOperator(std::make_shared<StemBuildOp>("build_S", s, stem_s));
  eddy.AddOperator(std::make_shared<StemBuildOp>("build_T", t, stem_t));

  auto contains = [&](std::initializer_list<size_t> srcs) {
    SmallBitset b(layout.num_sources());
    for (size_t x : srcs) b.Set(x);
    return b;
  };
  // Probe into each target keyed by whichever source the probing tuple
  // carries. Probes into the same target form one operator group, so a
  // composite holding both R and S probes T through exactly one of them.
  auto add_probe = [&](const char* name, size_t target,
                       const SteMPtr& stem, size_t key_src) {
    eddy.AddOperator(
        std::make_shared<StemProbeOp>(
            name, &layout, target, stem, contains({key_src}),
            static_cast<int>(layout.offset(key_src))),
        /*group=*/static_cast<int>(target));
  };
  add_probe("probe_S_by_R", s, stem_s, r);
  add_probe("probe_T_by_R", t, stem_t, r);
  add_probe("probe_R_by_S", r, stem_r, s);
  add_probe("probe_T_by_S", t, stem_t, s);
  add_probe("probe_R_by_T", r, stem_r, t);
  add_probe("probe_S_by_T", s, stem_s, t);

  size_t emitted = 0;
  eddy.SetSink([&](RoutedTuple&& rt) {
    EXPECT_EQ(rt.sources.Count(), 3u);
    ++emitted;
  });

  Rng rng(31);
  TupleVector rows[3];
  for (int i = 0; i < 120; ++i) {
    const size_t src = rng.NextBounded(3);
    Tuple row = KVTuple(static_cast<int64_t>(rng.NextBounded(8)), i, i);
    rows[src].push_back(row);
    eddy.Inject(src == 0 ? r : (src == 1 ? s : t), row);
  }
  eddy.Drain();

  size_t expected = 0;
  for (const Tuple& a : rows[0]) {
    for (const Tuple& b : rows[1]) {
      if (!(a.cell(0) == b.cell(0))) continue;
      for (const Tuple& c : rows[2]) {
        if (b.cell(0) == c.cell(0)) ++expected;
      }
    }
  }
  EXPECT_EQ(emitted, expected);
}

TEST(EddyJoinTest, RemoteIndexHybridCachesLookups) {
  SourceLayout layout;
  const size_t s = layout.AddSource("S", KV());
  const size_t t = layout.AddSource("T", KV());

  // Remote T index with 5 rows over keys 0..4.
  TupleVector t_rows;
  for (int64_t k = 0; k < 5; ++k) t_rows.push_back(KVTuple(k, k * 10, k));
  RemoteIndex::Options ro;
  ro.latency_cost = 100;
  auto index = std::make_shared<RemoteIndex>("T_idx", KV(), 0, t_rows, ro);

  auto cache = std::make_shared<SteM>("T_cache", layout.full_schema(),
                                      static_cast<int>(layout.offset(t)));

  SmallBitset only_s(layout.num_sources());
  only_s.Set(s);
  Eddy eddy(&layout, std::make_unique<FixedPolicy>(std::vector<size_t>{}));
  auto probe = std::make_shared<RemoteIndexProbeOp>(
      "idx_probe", &layout, t, index, only_s,
      static_cast<int>(layout.offset(s)), cache);
  eddy.AddOperator(probe);

  size_t emitted = 0;
  eddy.SetSink([&](RoutedTuple&&) { ++emitted; });

  // 100 probes over only 5 distinct keys: the cache bounds remote lookups.
  Rng rng(9);
  for (int i = 0; i < 100; ++i) {
    eddy.Inject(s, KVTuple(static_cast<int64_t>(rng.NextBounded(5)), i, i));
  }
  eddy.Drain();

  EXPECT_EQ(emitted, 100u);          // Every S row matches its T row.
  EXPECT_EQ(index->lookups(), 5u);   // One remote fetch per distinct key.
  EXPECT_EQ(probe->cache_misses(), 5u);
  EXPECT_EQ(probe->cache_hits(), 95u);
}

TEST(EddyJoinTest, SelfJoinViaTwoAliases) {
  // The paper's temporal band join uses one stream under two aliases; each
  // arriving tuple is injected once per alias.
  SourceLayout layout;
  const size_t c1 = layout.AddSource("c1", KV());
  const size_t c2 = layout.AddSource("c2", KV());
  auto make_stem = [&](size_t src, const char* name) {
    return std::make_shared<SteM>(name, layout.full_schema(),
                                  static_cast<int>(layout.offset(src)));
  };
  auto stem1 = make_stem(c1, "SteM_c1");
  auto stem2 = make_stem(c2, "SteM_c2");

  auto only = [&](size_t src) {
    SmallBitset b(layout.num_sources());
    b.Set(src);
    return b;
  };

  // Residual: c2.v > c1.v (strict, so no self-pairing).
  auto residual = Expr::Binary(BinaryOp::kGt, Expr::Column("c2.v"),
                               Expr::Column("c1.v"))
                      ->Bind(*layout.full_schema());
  ASSERT_TRUE(residual.ok());

  Eddy eddy(&layout, std::make_unique<FixedPolicy>(std::vector<size_t>{}));
  eddy.AddOperator(std::make_shared<StemBuildOp>("build1", c1, stem1));
  eddy.AddOperator(std::make_shared<StemBuildOp>("build2", c2, stem2));
  eddy.AddOperator(std::make_shared<StemProbeOp>(
      "probe2", &layout, c2, stem2, only(c1),
      static_cast<int>(layout.offset(c1))));
  eddy.AddOperator(std::make_shared<StemProbeOp>(
      "probe1", &layout, c1, stem1, only(c2),
      static_cast<int>(layout.offset(c2))));
  SmallBitset both = only(c1);
  both.Set(c2);
  eddy.AddOperator(
      std::make_shared<FilterOp>("c2.v > c1.v", *residual, std::move(both)));

  size_t emitted = 0;
  eddy.SetSink([&](RoutedTuple&&) { ++emitted; });

  // Rows (k=day, v=price): day 1 has prices 10, 20, 30.
  for (int64_t v : {10, 20, 30}) {
    Tuple row = KVTuple(1, v, v);
    eddy.Inject(c1, row);
    eddy.Inject(c2, row);
  }
  eddy.Drain();
  // Pairs with c2.v > c1.v among {10,20,30}: (10,20),(10,30),(20,30).
  EXPECT_EQ(emitted, 3u);
}

}  // namespace
}  // namespace tcq
