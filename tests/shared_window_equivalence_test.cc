// Shared window scan equivalence: every kDelayed single-stream windowed
// query fires through SharedWindowScan inside the Server. The reference is
// the per-query path kept for joins and speculative queries — standalone
// QueryRunners over an Archive that the test feeds exactly as the server
// feeds its own (reorder buffer releases, kIngestLate ordered inserts,
// retractions, an optional spool) and advances at the same points. Every
// delivered ResultSet must match byte for byte and in order: doubles are
// compared bit for bit, so SUM/AVG must accumulate in the same order.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/server.h"
#include "spool/spool.h"
#include "testing/disorder.h"
#include "testing/schedule_explorer.h"

namespace tcq {
namespace {

/// Self-cleaning spool directory under TMPDIR.
struct TempDir {
  TempDir() {
    std::string tmpl = (std::filesystem::temp_directory_path() /
                        "tcq-shared-window-XXXXXX")
                           .string();
    char* made = mkdtemp(tmpl.data());
    EXPECT_NE(made, nullptr);
    path = tmpl;
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  std::string path;
};

SchemaPtr TradesSchema() {
  return Schema::Make({{"ts", ValueType::kInt64, ""},
                       {"sym", ValueType::kString, ""},
                       {"price", ValueType::kDouble, ""},
                       {"qty", ValueType::kInt64, ""}});
}

/// Timestamps rise by 0-2 per tuple (ties included); prices carry
/// fractions whose double sums depend on accumulation order; about one
/// cell in twelve of sym/price/qty is NULL.
std::vector<Tuple> MakeFeed(Rng* rng, size_t n) {
  static const char* const kSyms[] = {"A", "B", "C", "D"};
  std::vector<Tuple> feed;
  int64_t ts = 1;
  for (size_t i = 0; i < n; ++i) {
    ts += static_cast<int64_t>(rng->NextBounded(3));
    auto maybe_null = [&](Value v) {
      return rng->NextBounded(12) == 0 ? Value::Null() : std::move(v);
    };
    feed.push_back(Tuple::Make(
        {Value::Int64(ts), maybe_null(Value::String(kSyms[rng->NextBounded(4)])),
         maybe_null(Value::Double(static_cast<double>(rng->NextBounded(1000)) /
                                  7.0)),
         maybe_null(Value::Int64(static_cast<int64_t>(rng->NextBounded(10))))},
        ts));
  }
  return feed;
}

/// One random single-stream windowed query.
std::string RandomQuery(Rng* rng) {
  static const char* const kFactors[] = {
      "sym = 'A'",       "sym != 'B'",      "price > 40.5",
      "price <= 90",     "qty > 2.5",       "qty != 3",
      "price + 1 > 5",   "qty * 2 < 13",    "(sym = 'C' OR qty > 6)",
      "qty >= 1",        "price < 120.25",  "sym = 'D'",
  };
  static const char* const kAggregates[] = {
      "COUNT(*), SUM(price), AVG(price)",
      "sym, SUM(price), MAX(qty), AVG(qty)",
      "MIN(price), SUM(qty), COUNT(price)",
  };
  static const char* const kProjections[] = {"ts, sym, price",
                                             "price * 2, qty", "*"};
  const int64_t w = 2 + static_cast<int64_t>(rng->NextBounded(10));
  const std::string width = std::to_string(w - 1);
  std::string loop;
  bool aggregate = rng->NextBounded(2) == 0;
  switch (rng->NextBounded(6)) {
    case 0:  // Sliding.
      loop = "for (t = ST; true; t++) { WindowIs(S, t - " + width + ", t); }";
      break;
    case 1:  // Sliding with a hop below the width.
      loop = "for (t = ST; true; t += " +
             std::to_string(1 + rng->NextBounded(static_cast<uint64_t>(w))) +
             ") { WindowIs(S, t - " + width + ", t); }";
      break;
    case 2:  // Hopping, hop > width: skips data between windows.
      loop = "for (t = ST; true; t += " +
             std::to_string(w + 1 + static_cast<int64_t>(rng->NextBounded(4))) +
             ") { WindowIs(S, t - " + width + ", t); }";
      break;
    case 3:  // Reverse: browses history backwards once t = 150 is final.
      loop = "for (t = 150; t >= 5; t -= " +
             std::to_string(1 + rng->NextBounded(6)) + ") { WindowIs(S, t - " +
             width + ", t); }";
      break;
    case 4:  // Landmark projection (landmark aggregates take the fast path).
      loop = "for (t = ST; true; t += " + std::to_string(3 + rng->NextBounded(8)) +
             ") { WindowIs(S, 1, t); }";
      aggregate = rng->NextBounded(4) == 0;
      break;
    default:  // Snapshot.
      loop = "for (; t == 0; t = -1) { WindowIs(S, 20, 90); }";
      break;
  }
  std::string sql = "SELECT ";
  const size_t pick = rng->NextBounded(3);
  sql += aggregate ? kAggregates[pick] : kProjections[pick];
  sql += " FROM S";
  const size_t factors = rng->NextBounded(4);
  for (size_t f = 0; f < factors; ++f) {
    sql += f == 0 ? " WHERE " : " AND ";
    sql += kFactors[rng->NextBounded(std::size(kFactors))];
  }
  if (aggregate && pick == 1) sql += " GROUP BY sym";
  return sql + " " + loop;
}

/// Exact rendering: type tags, doubles bit for bit, retraction signs and
/// row timestamps.
std::string Render(const ResultSet& rs) {
  std::string out = "t=" + std::to_string(rs.t) + "{";
  for (const Tuple& row : rs.rows) {
    out += row.retraction() ? "-(" : "(";
    for (size_t i = 0; i < row.arity(); ++i) {
      const Value& v = row.cell(i);
      char buf[64];
      switch (v.type()) {
        case ValueType::kDouble:
          std::snprintf(buf, sizeof(buf), "d%a", v.double_value());
          out += buf;
          break;
        case ValueType::kInt64:
          out += "i" + std::to_string(v.int64_value());
          break;
        default:
          out += v.ToString();
      }
      out += ",";
    }
    out += ")@" + std::to_string(row.timestamp());
  }
  return out + "}";
}

/// The reference: one Archive fed as Server::IngestBatchLocked feeds its
/// own (reorder releases appended, then kIngestLate stragglers inserted in
/// order, the safe watermark at the released frontier), plus standalone
/// QueryRunners advanced at the same points.
class Reference {
 public:
  Reference(const Server::Options& o, const std::string& spool_dir) {
    StreamDef def;
    def.name = "S";
    def.schema = TradesSchema();
    def.timestamp_field = 0;
    EXPECT_TRUE(catalog_.RegisterStream(def).ok());
    reorder_.set_max_disorder(o.max_disorder);
    if (!spool_dir.empty()) {
      Spool::Options so;
      so.dir = spool_dir;
      so.cache_pages = o.spool_cache_pages;
      so.segment_bytes = o.spool_segment_bytes;
      auto opened = Spool::Open(std::move(so));
      EXPECT_TRUE(opened.ok()) << opened.status();
      spool_ = std::move(*opened);
      archive_.AttachSpool(spool_.get(), "stream.S", o.spool_resident_tuples);
    }
  }

  size_t Submit(const std::string& sql) {
    auto analyzed = AnalyzeSql(sql, catalog_);
    EXPECT_TRUE(analyzed.ok()) << analyzed.status() << ": " << sql;
    QueryRunner::Options ro;
    ro.start_time = std::max<Timestamp>(1, watermark_ + 1);
    runners_.push_back(std::make_unique<QueryRunner>(
        *analyzed, std::vector<const Archive*>{&archive_},
        std::vector<TupleVector>(1), ro));
    results_.emplace_back();
    runners_.back()->Advance(watermark_, &results_.back());
    return runners_.size() - 1;
  }

  void Cancel(size_t q) { runners_[q].reset(); }

  void PushBatch(std::vector<Tuple> batch) {
    std::vector<Tuple> released;
    std::vector<Tuple> late;
    Timestamp frontier = watermark_;
    for (Tuple& t : batch) {
      t.set_timestamp(t.cell(0).int64_value());
      if (t.timestamp() < frontier) {  // LatePolicy::kIngestLate.
        late.push_back(std::move(t));
        continue;
      }
      reorder_.Offer(std::move(t), &released);
      if (!released.empty()) {
        frontier = std::max(frontier, released.back().timestamp());
      }
    }
    Apply(released);
    for (const Tuple& t : late) archive_.InsertOrdered(t);
    if (!batch.empty()) Advance();
  }

  void Heartbeat(Timestamp ts) {
    std::vector<Tuple> released;
    reorder_.Punctuate(ts, &released);
    Apply(released);
    watermark_ = std::max(watermark_, ts);
    Advance();
  }

  void Retract(const Tuple& t) {
    Tuple r = t;
    r.set_timestamp(r.cell(0).int64_value());
    r.set_retraction(true);
    archive_.CancelMatching(r);
  }

  const std::vector<ResultSet>& results(size_t q) const { return results_[q]; }

 private:
  void Apply(const std::vector<Tuple>& released) {
    for (const Tuple& t : released) {
      archive_.Append(t);
      watermark_ = std::max(watermark_, t.timestamp());
    }
  }

  void Advance() {
    for (size_t q = 0; q < runners_.size(); ++q) {
      if (runners_[q] != nullptr) runners_[q]->Advance(watermark_, &results_[q]);
    }
  }

  Catalog catalog_;
  std::unique_ptr<Spool> spool_;
  Archive archive_;
  ReorderBuffer reorder_;
  Timestamp watermark_ = kMinTimestamp;
  std::vector<std::unique_ptr<QueryRunner>> runners_;
  std::vector<std::vector<ResultSet>> results_;
};

constexpr size_t kQueries = 12;

/// One trial: a server and the reference fed the same operations. Returns
/// "equal", or the first divergence.
std::string RunTrial(uint64_t seed, const ScheduleExplorer::Schedule& schedule) {
  Rng rng(seed * 1000003 + schedule.trial_seed);
  std::vector<std::string> sqls;
  for (size_t i = 0; i < kQueries; ++i) sqls.push_back(RandomQuery(&rng));
  DisorderOptions dopts;
  dopts.max_disorder = static_cast<Timestamp>(rng.NextBounded(6));
  dopts.jitter_rate = 0.3;
  dopts.violation_rate = 0.05;
  dopts.violation_extra = 1 + static_cast<Timestamp>(rng.NextBounded(5));
  dopts.seed = schedule.trial_seed;
  const std::vector<Tuple> feed = InjectDisorder(MakeFeed(&rng, 260), dopts);
  const bool spooled = schedule.trial_seed % 2 == 0;

  TempDir server_dir;
  TempDir reference_dir;
  Server::Options o;
  o.max_disorder = dopts.max_disorder;
  o.late_policy = LatePolicy::kIngestLate;
  if (spooled) {
    o.spool_dir = server_dir.path;
    o.spool_cache_pages = 2;
    o.spool_resident_tuples = 8;
    o.spool_segment_bytes = 4096;
  }
  Server server(o);
  EXPECT_TRUE(server.DefineStream("S", TradesSchema(), 0).ok());
  Reference reference(o, spooled ? reference_dir.path : "");

  // Most queries stand from the start (in the schedule's order); the last
  // two join mid-stream and one early query is canceled late.
  std::vector<QueryId> server_ids(kQueries);
  std::vector<size_t> reference_ids(kQueries);
  auto submit = [&](size_t i) {
    auto q = server.Submit(sqls[i]);
    EXPECT_TRUE(q.ok()) << q.status() << ": " << sqls[i];
    server_ids[i] = q.ok() ? *q : 0;
    reference_ids[i] = reference.Submit(sqls[i]);
  };
  std::vector<size_t> late_joiners;
  for (size_t i : schedule.order) {
    if (i >= kQueries - 2) {
      late_joiners.push_back(i);
    } else {
      submit(i);
    }
  }
  // Cancel drops undelivered sets, so the canceled query is compared on
  // what it delivered up to the cancel.
  size_t canceled = schedule.order[0] % (kQueries - 2);
  std::vector<std::vector<ResultSet>> got(kQueries);
  size_t canceled_sets = 0;

  const size_t batch = schedule.quantum;
  for (size_t at = 0; at < feed.size(); at += batch) {
    if (at >= feed.size() / 2 && !late_joiners.empty()) {
      for (size_t i : late_joiners) submit(i);
      late_joiners.clear();
    }
    if (at >= 3 * feed.size() / 4 && canceled < kQueries) {
      got[canceled] = server.PollAll(server_ids[canceled]);
      canceled_sets = reference.results(reference_ids[canceled]).size();
      EXPECT_TRUE(server.Cancel(server_ids[canceled]).ok());
      reference.Cancel(reference_ids[canceled]);
      canceled = kQueries + canceled;  // Remembered, never canceled again.
    }
    const size_t n = std::min(batch, feed.size() - at);
    std::vector<Tuple> slice(feed.begin() + static_cast<ptrdiff_t>(at),
                             feed.begin() + static_cast<ptrdiff_t>(at + n));
    EXPECT_TRUE(server.PushBatch("S", slice).ok());
    reference.PushBatch(std::move(slice));
    // Now and then retract an earlier arrival (it may still be buffered,
    // in which case both sides drop it as unmatched).
    if (rng.NextBounded(4) == 0) {
      const Tuple& victim = feed[rng.NextBounded(at + n)];
      EXPECT_TRUE(server.Retract("S", victim).ok());
      reference.Retract(victim);
    }
  }
  for (size_t i : late_joiners) submit(i);
  Timestamp end = 0;
  for (const Tuple& t : feed) end = std::max(end, t.cell(0).int64_value());
  end += 40;  // Past every window the feed can fill.
  EXPECT_TRUE(server.Heartbeat("S", end).ok());
  reference.Heartbeat(end);

  for (size_t i = 0; i < kQueries; ++i) {
    std::vector<ResultSet> want = reference.results(reference_ids[i]);
    if (i + kQueries == canceled) {
      want.resize(std::min(want.size(), canceled_sets));
    } else {
      got[i] = server.PollAll(server_ids[i]);
    }
    const size_t common = std::min(got[i].size(), want.size());
    for (size_t k = 0; k < common; ++k) {
      if (Render(got[i][k]) != Render(want[k])) {
        return "query " + sqls[i] + " set " + std::to_string(k) +
               ": server " + Render(got[i][k]) + " reference " +
               Render(want[k]);
      }
    }
    if (got[i].size() != want.size()) {
      return "query " + sqls[i] + ": server delivered " +
             std::to_string(got[i].size()) + " sets, reference " +
             std::to_string(want.size());
    }
  }
  return "equal";
}

TEST(SharedWindowEquivalenceTest, ServerMatchesPerQueryRunnersByteForByte) {
  ScheduleExplorer::Options eopts;
  eopts.trials = 6;
  eopts.quanta = {1, 7, 64};
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    ScheduleExplorer explorer(seed, eopts);
    auto common = explorer.Explore(
        kQueries, [&](const ScheduleExplorer::Schedule& schedule) {
          const std::string verdict = RunTrial(seed, schedule);
          EXPECT_EQ(verdict, "equal")
              << "seed " << seed << ", " << ScheduleExplorer::Describe(schedule);
          return verdict;
        });
    ASSERT_TRUE(common.ok()) << common.status();
  }
}

TEST(SharedWindowEquivalenceTest, SharedScanReadsEachTupleOnce) {
  // Sixteen overlapping sliding windows over one stream: the per-query
  // path would read every tuple about width/step times per query; the
  // shared scan reads the merged union of the ready windows once per
  // advance.
  Server server;
  ASSERT_TRUE(server.DefineStream("S", TradesSchema(), 0).ok());
  std::vector<QueryId> ids;
  for (int q = 0; q < 16; ++q) {
    auto id = server.Submit(
        "SELECT COUNT(*), SUM(price) FROM S WHERE sym = '" +
        std::string(1, static_cast<char>('A' + q % 4)) +
        "' for (t = ST; true; t += 2) { WindowIs(S, t - 9, t); }");
    ASSERT_TRUE(id.ok()) << id.status();
    ids.push_back(*id);
  }
  Rng rng(5);
  const std::vector<Tuple> feed = MakeFeed(&rng, 400);
  for (size_t at = 0; at < feed.size(); at += 50) {
    ASSERT_TRUE(server
                    .PushBatch("S", std::vector<Tuple>(
                                        feed.begin() + static_cast<ptrdiff_t>(at),
                                        feed.begin() + static_cast<ptrdiff_t>(at + 50)))
                    .ok());
  }
  const std::string snap = server.SnapshotMetrics();
  const size_t at = snap.find("\"windows\":{\"fired\":");
  ASSERT_NE(at, std::string::npos) << snap;
  unsigned long long fired = 0, scanned = 0, shared = 0;
  ASSERT_EQ(std::sscanf(snap.c_str() + at,
                        "\"windows\":{\"fired\":%llu,\"scanned\":%llu,"
                        "\"shared_scans\":%llu",
                        &fired, &scanned, &shared),
            3);
  EXPECT_GT(fired, 16u * 100);
  EXPECT_EQ(shared, feed.size() / 50);
  // Each advance re-reads at most the 9 ticks of overlap with the last
  // one (about 1.5 tuples per tick here), so the reads stay close to the
  // arrivals instead of growing with queries x windows.
  EXPECT_LE(scanned, feed.size() + shared * 20);
  EXPECT_GE(scanned, feed.size() / 2);
}

}  // namespace
}  // namespace tcq
