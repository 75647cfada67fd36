#include "psoup/psoup.h"

#include <gtest/gtest.h>
#include <stdlib.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "common/rng.h"
#include "spool/spool.h"
#include "telemetry/metrics.h"

namespace tcq {
namespace {

SchemaPtr SensorSchema() {
  return Schema::Make({{"timestamp", ValueType::kInt64, ""},
                       {"sensorId", ValueType::kInt64, ""},
                       {"temperature", ValueType::kDouble, ""}});
}

Tuple Reading(int64_t ts, int64_t sensor, double temp) {
  return Tuple::Make(
      {Value::Int64(ts), Value::Int64(sensor), Value::Double(temp)}, ts);
}

ExprPtr SensorEq(int64_t id) {
  return Expr::Binary(BinaryOp::kEq, Expr::Column("sensorId"),
                      Expr::Literal(Value::Int64(id)));
}

ExprPtr TempGt(double t) {
  return Expr::Binary(BinaryOp::kGt, Expr::Column("temperature"),
                      Expr::Literal(Value::Double(t)));
}

TEST(PSoupTest, NewDataAppliedToOldQueries) {
  PSoup psoup(SensorSchema());
  auto q = psoup.Register(SensorEq(1), /*window_width=*/100);
  ASSERT_TRUE(q.ok());
  psoup.OnData(Reading(1, 1, 20));
  psoup.OnData(Reading(2, 2, 21));
  psoup.OnData(Reading(3, 1, 22));
  auto results = psoup.Invoke(*q, /*now=*/3);
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->size(), 2u);
  EXPECT_EQ((*results)[0].timestamp(), 1);
  EXPECT_EQ((*results)[1].timestamp(), 3);
}

TEST(PSoupTest, NewQueryAppliedToOldData) {
  // The PSoup signature move: register AFTER the data arrived.
  PSoup psoup(SensorSchema());
  for (int64_t ts = 1; ts <= 10; ++ts) {
    psoup.OnData(Reading(ts, ts % 3, 20.0 + ts));
  }
  auto q = psoup.Register(SensorEq(0), 100);
  ASSERT_TRUE(q.ok());
  auto results = psoup.Invoke(*q, 10);
  ASSERT_TRUE(results.ok());
  EXPECT_EQ(results->size(), 3u);  // ts 3, 6, 9.
}

TEST(PSoupTest, WindowImposedAtInvocation) {
  PSoup psoup(SensorSchema());
  auto q = psoup.Register(nullptr, /*window_width=*/5);
  ASSERT_TRUE(q.ok());
  for (int64_t ts = 1; ts <= 20; ++ts) psoup.OnData(Reading(ts, 1, 20));
  // Window [16, 20].
  auto r = psoup.Invoke(*q, 20);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 5u);
  EXPECT_EQ(r->front().timestamp(), 16);
  // Disconnected client invoking with an older "now" sees that window.
  r = psoup.Invoke(*q, 10);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->front().timestamp(), 6);
  EXPECT_EQ(r->back().timestamp(), 10);
}

TEST(PSoupTest, DisconnectedOperation) {
  // Results keep materializing while no client is attached; reconnection
  // is a pure lookup.
  PSoup psoup(SensorSchema());
  auto q = psoup.Register(TempGt(25.0), 1000);
  ASSERT_TRUE(q.ok());
  for (int64_t ts = 1; ts <= 100; ++ts) {
    psoup.OnData(Reading(ts, 1, ts >= 50 ? 30.0 : 20.0));
  }
  auto r = psoup.Invoke(*q, 100);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 51u);  // ts 50..100.
}

TEST(PSoupTest, UnregisterStopsMaterialization) {
  PSoup psoup(SensorSchema());
  auto q = psoup.Register(nullptr, 100);
  ASSERT_TRUE(q.ok());
  psoup.OnData(Reading(1, 1, 20));
  ASSERT_TRUE(psoup.Unregister(*q).ok());
  EXPECT_FALSE(psoup.Invoke(*q, 1).ok());
  EXPECT_EQ(psoup.materialized_results(), 0u);
  EXPECT_FALSE(psoup.Unregister(*q).ok());  // Idempotence check.
}

TEST(PSoupTest, MultipleQueriesMaterializeIndependently) {
  PSoup psoup(SensorSchema());
  auto q1 = psoup.Register(SensorEq(1), 100);
  auto q2 = psoup.Register(TempGt(25), 100);
  ASSERT_TRUE(q1.ok() && q2.ok());
  psoup.OnData(Reading(1, 1, 30));  // Both.
  psoup.OnData(Reading(2, 2, 30));  // q2 only.
  psoup.OnData(Reading(3, 1, 20));  // q1 only.
  EXPECT_EQ(psoup.Invoke(*q1, 3)->size(), 2u);
  EXPECT_EQ(psoup.Invoke(*q2, 3)->size(), 2u);
}

TEST(PSoupTest, BoundedHistoryLimitsNewQueryBackfill) {
  PSoup::Options opts;
  opts.history_span = 10;
  PSoup psoup(SensorSchema(), opts);
  for (int64_t ts = 1; ts <= 100; ++ts) psoup.OnData(Reading(ts, 1, 20));
  EXPECT_LE(psoup.history_size(), 10u);
  auto q = psoup.Register(nullptr, 1000);
  ASSERT_TRUE(q.ok());
  // Backfill covers only retained history (ts 91..100).
  EXPECT_EQ(psoup.Invoke(*q, 100)->size(), 10u);
}

TEST(PSoupTest, EvictBeforePrunesResults) {
  PSoup psoup(SensorSchema());
  auto q = psoup.Register(nullptr, 1000);
  ASSERT_TRUE(q.ok());
  for (int64_t ts = 1; ts <= 10; ++ts) psoup.OnData(Reading(ts, 1, 20));
  psoup.EvictBefore(6);
  EXPECT_EQ(psoup.Invoke(*q, 10)->size(), 5u);
  EXPECT_EQ(psoup.history_size(), 5u);
}

TEST(PSoupTest, InvalidWindowRejected) {
  PSoup psoup(SensorSchema());
  EXPECT_FALSE(psoup.Register(nullptr, 0).ok());
  EXPECT_FALSE(psoup.Register(nullptr, -5).ok());
}

TEST(PSoupTest, InvokeUnknownQueryFails) {
  PSoup psoup(SensorSchema());
  EXPECT_FALSE(psoup.Invoke(3, 10).ok());
}

// Property: materialized invocation == recompute-from-history oracle for
// random predicates and invocation times (within retained history).
class PSoupPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PSoupPropertyTest, InvocationMatchesRecompute) {
  Rng rng(GetParam());
  PSoup psoup(SensorSchema());
  SchemaPtr schema = SensorSchema();

  std::vector<std::pair<QueryId, ExprPtr>> queries;  // (id, bound pred).
  std::vector<Timestamp> widths;
  TupleVector all_data;
  Timestamp now = 0;

  for (int step = 0; step < 400; ++step) {
    if (queries.size() < 8 && rng.NextBool(0.05)) {
      ExprPtr pred = rng.NextBool(0.5)
                         ? SensorEq(static_cast<int64_t>(rng.NextBounded(3)))
                         : TempGt(20.0 + static_cast<double>(rng.NextBounded(10)));
      const Timestamp width = 1 + static_cast<Timestamp>(rng.NextBounded(50));
      auto q = psoup.Register(pred, width);
      ASSERT_TRUE(q.ok());
      queries.emplace_back(*q, *pred->Bind(*schema));
      widths.push_back(width);
    }
    ++now;
    Tuple t = Reading(now, static_cast<int64_t>(rng.NextBounded(3)),
                      20.0 + static_cast<double>(rng.NextBounded(10)));
    all_data.push_back(t);
    psoup.OnData(t);

    if (!queries.empty() && rng.NextBool(0.1)) {
      const size_t pick = rng.NextBounded(queries.size());
      const auto& [qid, pred] = queries[pick];
      auto got = psoup.Invoke(qid, now);
      ASSERT_TRUE(got.ok());
      // Oracle: rescan everything.
      TupleVector expect;
      const Timestamp lo = now - widths[pick] + 1;
      for (const Tuple& d : all_data) {
        if (d.timestamp() < lo || d.timestamp() > now) continue;
        const Value keep = pred->Eval(d);
        if (!keep.is_null() && keep.bool_value()) expect.push_back(d);
      }
      ASSERT_EQ(got->size(), expect.size());
      for (size_t i = 0; i < expect.size(); ++i) {
        ASSERT_EQ((*got)[i].timestamp(), expect[i].timestamp());
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PSoupPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

/// The rows of `rows` at or after `lo`, rendered.
std::vector<std::string> RowsFrom(const TupleVector& rows, Timestamp lo) {
  std::vector<std::string> out;
  for (const Tuple& t : rows) {
    if (t.timestamp() >= lo) out.push_back(t.ToString());
  }
  return out;
}

TEST(PSoupSpoolTest, SpooledHistoryMatchesInMemoryHistory) {
  // One disordered feed (stragglers inside and below the span floor, one
  // EvictBefore, a finite history_span) into a PSoup whose history keeps
  // a 4-tuple resident tail over a spool and into one without a spool.
  // EvictBefore frees history on the plain side but demotes it on the
  // spooled side, where new queries still seed from it, so answers are
  // compared from the evicted timestamp up.
  Gauge* gauge =
      MetricRegistry::Global().GetGauge("tcq.psoup.resident_bytes");
  const int64_t gauge_before = gauge->value();
  std::string dir = (std::filesystem::temp_directory_path() /
                     "tcq-psoup-spool-XXXXXX")
                        .string();
  ASSERT_NE(::mkdtemp(dir.data()), nullptr);
  {
    Spool::Options so;
    so.dir = dir;
    so.cache_pages = 2;
    so.segment_bytes = 4 * 1024;
    auto spool = Spool::Open(so);
    ASSERT_TRUE(spool.ok()) << spool.status();

    constexpr size_t kResident = 4;
    PSoup::Options opts;
    opts.history_span = 60;
    PSoup plain(SensorSchema(), opts);
    PSoup spooled(SensorSchema(), opts);
    spooled.AttachSpool(spool->get(), "psoup.sensors", kResident);

    Rng rng(11);
    Timestamp now = 0;
    Timestamp evicted = kMinTimestamp;
    std::vector<QueryId> queries;  // Same ids on both sides.
    auto expect_same = [&](size_t i, const char* when) {
      auto a = plain.Invoke(queries[i], now);
      auto b = spooled.Invoke(queries[i], now);
      ASSERT_TRUE(a.ok() && b.ok());
      EXPECT_EQ(RowsFrom(*a, evicted), RowsFrom(*b, evicted))
          << when << " query " << i << " at " << now;
    };
    for (int step = 0; step < 600; ++step) {
      Timestamp ts;
      if (now > 1 && rng.NextBool(0.2)) {
        // A straggler up to 80 ticks late: some land below the floor.
        const Timestamp back = 1 + static_cast<Timestamp>(rng.NextBounded(80));
        ts = std::max<Timestamp>(1, now - back);
      } else {
        now += static_cast<Timestamp>(rng.NextBounded(3));
        ts = now;
      }
      const Tuple t = Reading(ts, static_cast<int64_t>(rng.NextBounded(3)),
                              20.0 + static_cast<double>(rng.NextBounded(10)));
      plain.OnData(t);
      spooled.OnData(t);
      ASSERT_LE(spooled.resident_history_size(), kResident) << step;
      if (step == 300) {
        evicted = now - 20;  // Inside the span.
        plain.EvictBefore(evicted);
        spooled.EvictBefore(evicted);
      }
      if (step % 40 == 0) {
        ExprPtr pred =
            rng.NextBool(0.5)
                ? SensorEq(static_cast<int64_t>(rng.NextBounded(3)))
                : TempGt(20.0 + static_cast<double>(rng.NextBounded(10)));
        const Timestamp width =
            1 + static_cast<Timestamp>(rng.NextBounded(100));
        auto a = plain.Register(pred, width);
        auto b = spooled.Register(pred, width);
        ASSERT_TRUE(a.ok() && b.ok());
        ASSERT_EQ(*a, *b);
        queries.push_back(*a);
        expect_same(queries.size() - 1, "seed");
      }
      if (step % 7 == 0) {
        for (size_t i = 0; i < queries.size(); ++i) expect_same(i, "invoke");
      }
    }
    EXPECT_GT(spooled.spooled_history_size(), 0u);
    EXPECT_GE(spooled.history_size(), plain.history_size());
  }
  // Both PSoups gave back what they published.
  EXPECT_EQ(gauge->value(), gauge_before);
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

}  // namespace
}  // namespace tcq
