// The equivalence matrix: random queries over random feeds through every
// engine configuration, diffed against one independent reference evaluator
// (tests/oracle.h). Feeds carry timestamp ties, bounded disorder,
// kIngestLate stragglers, matched and unmatched retractions, NULLs and
// integers near ±2^62; queries join and leave mid-stream. No plan, batch
// boundary, shard count, failover, spool or execution path may change the
// answer (§2.2); the oracle says what it is (§4.1.1; CEDR when
// speculative). Results are compared in order, byte for byte, where the
// configuration promises order (a join window's rows leave an eddy in
// routing order, so they are sorted within the window); as a sorted
// multiset for standing queries on shards and standing joins; and as the
// net answer after retractions when speculative.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "cacq/sharded_engine.h"
#include "common/rng.h"
#include "core/server.h"
#include "oracle.h"
#include "parser/parser.h"
#include "testing/crash_injector.h"
#include "testing/disorder.h"

namespace tcq {
namespace {

const char* const kStreams[] = {"A", "B"};

SchemaPtr StreamSchema(size_t stream) {
  std::vector<Field> fields = {
      {"ts", ValueType::kInt64, ""},
      {"k", ValueType::kInt64, ""},
      {stream == 0 ? "v" : "w", ValueType::kInt64, ""}};
  if (stream == 0) fields.push_back({"p", ValueType::kDouble, ""});
  return Schema::Make(std::move(fields));
}

// ---- Workload --------------------------------------------------------------

/// Timestamps rise by 0-2 per tuple. Join keys k span 0..7; the integer
/// column is sometimes within 1000 of ±2^62, so an exact SUM of a few
/// overflows; p's fractions make double sums depend on accumulation
/// order. About one cell in twelve is NULL.
std::vector<Tuple> MakeFeed(Rng* rng, size_t stream, size_t n) {
  std::vector<Tuple> feed;
  int64_t ts = 1;
  auto maybe_null = [&](Value v) {
    return rng->NextBounded(12) == 0 ? Value::Null() : std::move(v);
  };
  for (size_t i = 0; i < n; ++i) {
    ts += static_cast<int64_t>(rng->NextBounded(3));
    int64_t v = rng->NextInt(-20, 60);
    if (rng->NextBounded(12) == 0) {
      v = ((int64_t{1} << 62) + rng->NextInt(0, 999)) *
          (rng->NextBool(0.5) ? 1 : -1);
    }
    std::vector<Value> cells = {Value::Int64(ts),
                                maybe_null(Value::Int64(rng->NextInt(0, 7))),
                                maybe_null(Value::Int64(v))};
    if (stream == 0) {
      cells.push_back(maybe_null(
          Value::Double(static_cast<double>(rng->NextBounded(1000)) / 7.0)));
    }
    feed.push_back(Tuple::Make(std::move(cells), ts));
  }
  return feed;
}

std::string Pick(Rng* rng, std::initializer_list<const char*> options) {
  return options.begin()[rng->NextBounded(options.size())];
}

std::string Where(Rng* rng, std::string sql, size_t factors) {
  for (size_t f = 0; f < factors; ++f) {
    sql += f == 0 ? " WHERE " : " AND ";
    sql += Pick(rng, {"A.k = 3", "A.k != 5", "A.v > 10", "A.v <= 40",
                      "A.p >= 40.5", "A.p < 120.25", "A.v * 2 < 13",
                      "(A.k = 1 OR A.v > 30)", "A.v + 1 > 5", "A.p + 1 > 50"});
  }
  return sql;
}

/// Sliding, hopping, reverse, landmark or snapshot windows over A.
std::string WindowOverA(Rng* rng) {
  const uint64_t w = 2 + rng->NextBounded(10);
  const std::string clause =
      "{ WindowIs(A, t - " + std::to_string(w - 1) + ", t); }";
  switch (rng->NextBounded(6)) {
    case 0:
      return "for (t = ST; true; t++) " + clause;
    case 1:  // Hop at most the width.
      return "for (t = ST; true; t += " +
             std::to_string(1 + rng->NextBounded(w)) + ") " + clause;
    case 2:  // Hop past the width: skips data between windows.
      return "for (t = ST; true; t += " +
             std::to_string(w + 1 + rng->NextBounded(4)) + ") " + clause;
    case 3:  // Browses history backwards once t = 150 is final.
      return "for (t = 150; t >= 5; t -= " +
             std::to_string(3 + rng->NextBounded(4)) + ") " + clause;
    case 4:
      return "for (t = ST; true; t += " +
             std::to_string(3 + rng->NextBounded(8)) +
             ") { WindowIs(A, 1, t); }";
    default:
      return "for (; t == 0; t = -1) { WindowIs(A, 20, 90); }";
  }
}

/// Three standing filters, a standing equi-join, six windowed queries
/// over A and two windowed equi-joins.
std::vector<std::string> MakeQueries(Rng* rng) {
  std::vector<std::string> sqls;
  for (int i = 0; i < 2; ++i) {
    const std::string select =
        Pick(rng, {"*", "A.ts, A.v", "A.k, A.p * 2, A.v + 1"});
    sqls.push_back(
        Where(rng, "SELECT " + select + " FROM A", 1 + rng->NextBounded(3)));
  }
  sqls.push_back("SELECT " + Pick(rng, {"*", "B.k, B.w"}) + " FROM B WHERE " +
                 Pick(rng, {"B.k < 4", "B.w >= 20", "B.w != 7"}));
  sqls.push_back("SELECT * FROM A, B WHERE A.k = B.k" +
                 Pick(rng, {"", " AND A.v > 10", " AND B.w < 30"}));
  for (int i = 0; i < 6; ++i) {
    const bool grouped = rng->NextBounded(3) == 0;
    // The second grouped list merges exactly, so its sliding and hopping
    // windows are built from panes (DESIGN.md §17).
    const std::string select =
        rng->NextBool(0.5) ? Pick(rng, {"A.ts, A.k, A.p", "A.p * 2, A.v", "*"})
        : grouped ? Pick(rng, {"A.k, SUM(A.v), MAX(A.p), AVG(A.v), COUNT(A.v)",
                               "A.k, COUNT(*), SUM(A.v), MAX(A.p)"})
                  : Pick(rng, {"COUNT(*), SUM(A.v), AVG(A.p)",
                               "MIN(A.p), SUM(A.p), COUNT(A.p), MIN(A.v)"});
    std::string sql =
        Where(rng, "SELECT " + select + " FROM A", rng->NextBounded(3));
    if (select.rfind("A.k, ", 0) == 0) sql += " GROUP BY A.k";
    sqls.push_back(sql + " " + WindowOverA(rng));
  }
  for (int i = 0; i < 2; ++i) {
    const std::string w = std::to_string(1 + rng->NextBounded(8));
    sqls.push_back(
        "SELECT " + Pick(rng, {"*", "COUNT(*), SUM(A.v), MAX(B.w), MIN(A.p)"}) +
        " FROM A, B WHERE A.k = B.k" + Pick(rng, {"", " AND A.v > 10"}) +
        " for (t = ST; true; t += " + std::to_string(1 + rng->NextBounded(4)) +
        ") { WindowIs(A, t - " + w + ", t); WindowIs(B, t - " + w + ", t); }");
  }
  return sqls;
}

/// A Server hosts standing filters and windowed queries. A bare
/// ShardedEngine hosts the standing joins, which the Server has not, and
/// every standing query when there is no Server. Standalone QueryRunners
/// host the windowed queries when there is no Server.
struct Config {
  const char* name;
  size_t chunk = 7;  ///< Tuples per PushBatch; 1 pushes tuple by tuple.
  size_t shards = 1;
  bool server = true;
  bool engine = true;
  bool runners = false;
  bool crash = false;  ///< One standby per shard; kill every third slice.
  bool spool = false;  ///< 2-page cache, 3-tuple resident tail.
  bool speculative = false;
};

const Config kConfigs[] = {
    {.name = "push", .chunk = 1},
    {.name = "batch7"},
    {.name = "batch64", .chunk = 64},
    {.name = "shards4", .shards = 4},
    {.name = "failover", .shards = 2, .server = false, .crash = true},
    {.name = "spool", .engine = false, .spool = true},
    {.name = "runners", .server = false, .engine = false, .runners = true},
    {.name = "speculative", .engine = false, .speculative = true},
};

/// Standalone QueryRunners over archives fed as the Server feeds its own
/// (reorder-buffer releases appended, then kIngestLate stragglers
/// inserted in order) and advanced at the same points: the per-window
/// Eddy path for every window, landmarks included, which the Server
/// replaces with its window plan for kDelayed single-stream queries.
class RunnerRig {
 public:
  explicit RunnerRig(Timestamp disorder) {
    for (const char* name : kStreams) {
      streams_[name].reorder.set_max_disorder(disorder);
    }
  }

  void Submit(size_t label, const AnalyzedQuery& analyzed) {
    std::vector<const Archive*> archives;
    QueryRunner::Options ro;
    for (const StreamDef& def : analyzed.defs) {
      archives.push_back(&streams_[def.name].archive);
      ro.start_time = std::max(ro.start_time, streams_[def.name].safe + 1);
    }
    Query& q = queries_[label];
    q.runner = std::make_unique<QueryRunner>(
        analyzed, archives, std::vector<TupleVector>(archives.size()), ro);
    Advance(&q);
  }

  void Cancel(size_t label) { queries_[label].runner.reset(); }

  void PushBatch(const std::string& stream, std::vector<Tuple> batch) {
    Stream& s = streams_[stream];
    std::vector<Tuple> released;
    std::vector<Tuple> late;
    Timestamp frontier = s.safe;
    for (Tuple& t : batch) {
      if (t.timestamp() < frontier) {
        late.push_back(std::move(t));
        continue;
      }
      s.reorder.Offer(std::move(t), &released);
      if (!released.empty()) {
        frontier = std::max(frontier, released.back().timestamp());
      }
    }
    Apply(stream, released, late, frontier);
  }

  void Heartbeat(const std::string& stream, Timestamp ts) {
    std::vector<Tuple> released;
    streams_[stream].reorder.Punctuate(ts, &released);
    Apply(stream, released, {}, ts);
  }

  void Retract(const std::string& stream, Tuple t) {
    t.set_retraction(true);
    streams_[stream].archive.CancelMatching(t);
  }

  std::vector<ResultSet> Take(size_t label) {
    return std::move(queries_[label].results);
  }

 private:
  struct Stream {
    Archive archive;
    ReorderBuffer reorder;
    Timestamp safe = kMinTimestamp;
  };
  struct Query {
    std::unique_ptr<QueryRunner> runner;
    std::vector<ResultSet> results;
  };

  void Apply(const std::string& stream, const std::vector<Tuple>& released,
             const std::vector<Tuple>& late, Timestamp safe) {
    Stream& s = streams_[stream];
    for (const Tuple& t : released) s.archive.Append(t);
    for (const Tuple& t : late) s.archive.InsertOrdered(t);
    s.safe = std::max(s.safe, safe);
    for (auto& [label, q] : queries_) {
      if (q.runner != nullptr) Advance(&q);
    }
  }

  /// Fires the windows final on every stream the query reads.
  void Advance(Query* q) {
    Timestamp hwm = kMaxTimestamp;
    for (const StreamDef& def : q->runner->analyzed().defs) {
      hwm = std::min(hwm, streams_[def.name].safe);
    }
    q->runner->Advance(hwm, &q->results);
  }

  std::map<std::string, Stream> streams_;
  std::map<size_t, Query> queries_;
};

/// Type tags, doubles bit for bit, the sign and the row timestamp.
std::string RenderRow(const Tuple& row, bool with_sign) {
  std::string out = with_sign && row.retraction() ? "-(" : "(";
  for (const Value& v : row.cells()) {
    if (v.type() == ValueType::kDouble) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "d%a,", v.double_value());
      out += buf;
    } else {
      out += (v.type() == ValueType::kInt64 ? "i" : "") + v.ToString() + ",";
    }
  }
  return out + ")@" + std::to_string(row.timestamp());
}

enum class Compare { kOrdered, kSortedRows, kSorted, kNet };

/// One line per delivered set; kNet: one per net row, with its count.
/// `per_row` renders every row as its own set at the row's timestamp: a
/// standing query delivers one set per engine batch, and the oracle one
/// per row.
template <typename SetT>
std::vector<std::string> Render(Compare mode, const std::vector<SetT>& sets,
                                bool per_row) {
  std::vector<std::string> lines;
  std::map<std::string, int> net;
  const auto render = [&](Timestamp t, std::span<const Tuple> set_rows) {
    std::vector<std::string> rows;
    for (const Tuple& row : set_rows) {
      rows.push_back(RenderRow(row, mode != Compare::kNet));
      net["t=" + std::to_string(t) + " " + rows.back()] +=
          row.retraction() ? -1 : 1;
    }
    if (mode == Compare::kSortedRows) std::sort(rows.begin(), rows.end());
    std::string line = "t=" + std::to_string(t) + "{";
    for (const std::string& r : rows) line += r;
    lines.push_back(line + "}");
  };
  for (const SetT& set : sets) {
    if (!per_row) {
      render(set.t, set.rows);
      continue;
    }
    for (const Tuple& row : set.rows) render(row.timestamp(), {&row, 1});
  }
  if (mode == Compare::kSorted) std::sort(lines.begin(), lines.end());
  if (mode != Compare::kNet) return lines;
  lines.clear();
  for (const auto& [key, count] : net) {
    if (count != 0) lines.push_back(key + " x" + std::to_string(count));
  }
  return lines;
}

// ---- The runner ------------------------------------------------------------

enum class Host { kNone, kServer, kEngine, kRunners };

/// Generates seed `seed`'s workload and runs it through `config` and the
/// oracle in lockstep. Returns the first divergence, or "" when every
/// query matches; adds the oracle's row count to `rows`.
std::string RunConfig(uint64_t seed, const Config& config, size_t* rows) {
  Rng rng(seed * 7919 + 1);
  const std::vector<std::string> sqls = MakeQueries(&rng);
  const size_t n = sqls.size();
  const auto disorder = static_cast<Timestamp>(rng.NextBounded(6));
  std::vector<Tuple> feeds[2];
  Timestamp end = 0;
  for (size_t s = 0; s < 2; ++s) {
    const DisorderOptions dopts{
        .max_disorder = disorder, .jitter_rate = 0.3, .violation_rate = 0.05,
        .violation_extra = 1 + static_cast<Timestamp>(rng.NextBounded(5)),
        .seed = seed * 31 + s};
    feeds[s] = InjectDisorder(MakeFeed(&rng, s, s == 0 ? 150 : 90), dopts);
    for (const Tuple& t : feeds[s]) end = std::max(end, t.timestamp() + 40);
  }

  Catalog catalog;
  for (size_t s = 0; s < 2; ++s) {
    const StreamDef def{.name = kStreams[s], .schema = StreamSchema(s),
                        .timestamp_field = 0};
    EXPECT_TRUE(catalog.RegisterStream(def).ok());
  }
  Oracle oracle(&catalog, disorder);
  std::vector<Host> host(n, Host::kNone);
  std::vector<QueryId> ids(n);
  std::vector<std::vector<ResultSet>> got(n);

  std::string dir =
      (std::filesystem::temp_directory_path() / "tcq-matrix-XXXXXX").string();
  if (!config.spool) {
    dir.clear();
  } else if (mkdtemp(dir.data()) == nullptr) {
    return "mkdtemp failed";
  }
  std::unique_ptr<Server> server;
  if (config.server) {
    Server::Options o;
    o.max_disorder = disorder;
    o.late_policy = LatePolicy::kIngestLate;
    o.cacq_shards = config.shards;
    o.spool_dir = dir;
    o.spool_cache_pages = 2;
    o.spool_resident_tuples = 3;
    o.spool_segment_bytes = 4096;
    server = std::make_unique<Server>(o);
    for (size_t s = 0; s < 2; ++s) {
      EXPECT_TRUE(
          server->DefineStream(kStreams[s], StreamSchema(s), 0, 1).ok());
    }
  }
  std::unique_ptr<RunnerRig> rig;
  if (config.runners) rig = std::make_unique<RunnerRig>(disorder);

  // The engine emits full-width (A, B) tuples; a single-stream query's
  // rows are narrowed to its stream and projected as the Server would.
  struct EngineQuery {
    size_t label;
    int source;  ///< -1 for a join: the row is the whole pair.
    std::vector<ExprPtr> projections;
  };
  std::mutex mu;
  std::map<QueryId, EngineQuery> engine_queries;
  std::unique_ptr<ShardedEngine> engine;
  if (config.engine) {
    ShardedEngine::Options eo;
    eo.num_shards = config.shards;
    eo.seed = seed;
    eo.num_replicas = config.crash ? 1 : 0;
    eo.checkpoint_interval = 1 + seed % 7;
    engine = std::make_unique<ShardedEngine>(eo);
    for (size_t s = 0; s < 2; ++s) {
      EXPECT_TRUE(engine->AddStream(kStreams[s], StreamSchema(s), 1).ok());
    }
    engine->SetSink([&](std::vector<ShardedEngine::Emission>&& batch) {
      std::lock_guard<std::mutex> lock(mu);
      for (const auto& [q, t] : batch) {
        const auto it = engine_queries.find(q);
        if (it == engine_queries.end()) continue;
        Tuple row = t;
        if (it->second.source >= 0) {
          const Tuple narrow = engine->layout().Narrow(
              static_cast<size_t>(it->second.source), t);
          std::vector<Value> cells;
          for (const ExprPtr& e : it->second.projections) {
            cells.push_back(e->Eval(narrow));
          }
          row = Tuple::Make(std::move(cells), t.timestamp());
          row.set_retraction(t.retraction());
        }
        got[it->second.label].push_back(ResultSet{t.timestamp(), {row}});
      }
    });
    engine->Start();
  }
  const uint64_t failovers_before = engine ? engine->ha_stats().failovers : 0;

  auto sync = [&] {
    if (server && config.shards > 1) server->Quiesce();
    if (engine) {
      EXPECT_TRUE(engine->Quiesce().ok());
    }
  };
  auto collect = [&](size_t label) {
    std::vector<ResultSet> sets;
    if (host[label] == Host::kServer) sets = server->PollAll(ids[label]);
    if (host[label] == Host::kRunners) sets = rig->Take(label);
    std::lock_guard<std::mutex> lock(mu);
    got[label].insert(got[label].end(), sets.begin(), sets.end());
  };
  auto submit = [&](size_t label) {
    auto parsed = ParseQuery(sqls[label]);
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    const bool join = parsed->from.size() > 1;
    Host& h = host[label];
    if (parsed->window.has_value()) {
      h = server ? Host::kServer : rig ? Host::kRunners : Host::kNone;
    } else if (join || !server) {
      h = engine ? Host::kEngine : Host::kNone;
    } else {
      h = Host::kServer;
    }
    if (h == Host::kNone) return;
    // The engine's queries see every arrival: the speculative lane.
    const bool speculative = config.speculative || h == Host::kEngine;
    const Status st = oracle.Submit(label, sqls[label], speculative);
    ASSERT_TRUE(st.ok()) << st << ": " << sqls[label];
    if (h == Host::kServer) {
      Server::SubmitOptions so;
      so.consistency =
          speculative ? Consistency::kSpeculative : Consistency::kDelayed;
      auto q = server->Submit(sqls[label], so);
      ASSERT_TRUE(q.ok()) << q.status() << ": " << sqls[label];
      ids[label] = *q;
      return;
    }
    EngineQuery eq{label, -1, {}};
    if (!join || h == Host::kRunners) {
      auto analyzed = AnalyzeSql(sqls[label], catalog);
      ASSERT_TRUE(analyzed.ok()) << analyzed.status();
      if (h == Host::kRunners) return rig->Submit(label, *analyzed);
      eq.source = parsed->from[0].name == kStreams[0] ? 0 : 1;
      eq.projections = analyzed->projections;
    }
    CacqQuerySpec spec;
    for (const TableRef& ref : parsed->from) spec.sources.push_back(ref.name);
    spec.where = parsed->where;
    auto q = engine->AddQuery(spec);
    ASSERT_TRUE(q.ok()) << q.status() << ": " << sqls[label];
    std::lock_guard<std::mutex> lock(mu);
    engine_queries.emplace(*q, std::move(eq));
    ids[label] = *q;
  };
  auto cancel = [&](size_t label) {
    if (host[label] == Host::kNone) return;
    sync();  // Cancel drops undelivered results: take the delivered ones.
    collect(label);
    oracle.Cancel(label);
    if (host[label] == Host::kServer) {
      EXPECT_TRUE(server->Cancel(ids[label]).ok());
    } else if (host[label] == Host::kRunners) {
      rig->Cancel(label);
    } else {
      {
        std::lock_guard<std::mutex> lock(mu);
        engine_queries.erase(ids[label]);
      }
      EXPECT_TRUE(engine->RemoveQuery(ids[label]).ok());
    }
  };

  // Ten queries stand from the start in a random order; two join at half
  // time and one early query is cancelled at three quarters.
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  for (size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng.NextBounded(i)]);
  }
  for (size_t i = 0; i + 2 < n; ++i) submit(order[i]);
  const size_t total = feeds[0].size() + feeds[1].size();
  size_t at[2] = {0, 0};
  size_t slices = 0;
  size_t crashes = 0;
  while (at[0] + at[1] < total) {
    const size_t s = at[1] == feeds[1].size()   ? 0
                     : at[0] == feeds[0].size() ? 1
                                                : rng.NextBounded(2);
    const std::string stream = kStreams[s];
    const size_t before = at[0] + at[1];
    const size_t run_end =
        std::min(feeds[s].size(), at[s] + 1 + rng.NextBounded(12));
    for (; at[s] < run_end; at[s] += config.chunk) {
      const std::vector<Tuple> slice(
          feeds[s].begin() + static_cast<ptrdiff_t>(at[s]),
          feeds[s].begin() +
              static_cast<ptrdiff_t>(std::min(run_end, at[s] + config.chunk)));
      oracle.PushBatch(stream, slice);
      if (server && config.chunk == 1) {
        EXPECT_TRUE(server->Push(stream, slice[0]).ok());
      } else if (server) {
        EXPECT_TRUE(server->PushBatch(stream, slice).ok());
      }
      if (rig) rig->PushBatch(stream, slice);
      if (engine) {
        EXPECT_TRUE(engine->PushBatch(stream, slice).ok());
        if (config.crash && ++slices % 3 == 0) {
          CrashAndRecover(engine.get(), (crashes++ + seed) % config.shards);
        }
      }
    }
    at[s] = run_end;
    if (rng.NextBounded(4) == 0) {
      // Retract a recent arrival: it may still wait in the reorder buffer
      // (then it is unmatched), and one in five never existed at all.
      Tuple victim =
          feeds[s][at[s] - 1 - rng.NextBounded(std::min<size_t>(at[s], 12))];
      if (rng.NextBounded(5) == 0) {
        std::vector<Value> cells(victim.cells().begin(), victim.cells().end());
        cells[2] = Value::Int64(-7777);
        victim = Tuple::Make(std::move(cells), victim.timestamp());
      }
      const bool matched = oracle.Retract(stream, victim);
      if (server) {
        EXPECT_TRUE(server->Retract(stream, victim).ok());
      }
      if (rig) rig->Retract(stream, victim);
      // The Server drops unmatched retractions against its archive; the
      // bare engine has none, so it only gets the matched ones.
      victim.set_retraction(true);
      if (engine && matched) {
        EXPECT_TRUE(engine->Push(stream, victim).ok());
      }
    }
    if (rng.NextBounded(5) == 0) {
      // Punctuation up to 8 ticks past the last arrival: the next
      // arrivals below it are stragglers, often newer than all history.
      const Timestamp ts =
          feeds[s][at[s] - 1].timestamp() + rng.NextInt(0, 8);
      oracle.Heartbeat(stream, ts);
      if (server) {
        EXPECT_TRUE(server->Heartbeat(stream, ts).ok());
      }
      if (rig) rig->Heartbeat(stream, ts);
    }
    if (before < total / 2 && at[0] + at[1] >= total / 2) {
      if (config.crash) {
        // The first Submit lands on a killed shard: the registration waits
        // in its dead queue, and the promoted standby applies it at its
        // changelog LSN.
        const size_t victim = (crashes++ + seed) % config.shards;
        EXPECT_TRUE(engine->KillShard(victim).ok());
        while (engine->shard_alive(victim)) {
          std::this_thread::sleep_for(std::chrono::microseconds(50));
        }
        submit(order[n - 2]);
        EXPECT_TRUE(engine->FailoverShard(victim).ok());
      } else {
        submit(order[n - 2]);
      }
      submit(order[n - 1]);
    }
    if (before < 3 * total / 4 && at[0] + at[1] >= 3 * total / 4) {
      cancel(order[rng.NextBounded(n - 2)]);
    }
  }
  // The sources close: punctuation past every window the feeds can fill,
  // then a replay of each stream's history to the standing queries.
  for (const char* stream : kStreams) {
    oracle.Heartbeat(stream, end);
    if (server) {
      EXPECT_TRUE(server->Heartbeat(stream, end).ok());
    }
    if (rig) rig->Heartbeat(stream, end);
  }
  for (const char* stream : kStreams) {
    if (!server) break;
    if (engine) {
      EXPECT_TRUE(engine->PushBatch(stream, oracle.History(stream)).ok());
    }
    EXPECT_TRUE(server->ReplayStream(stream, kMinTimestamp).ok());
    oracle.Replay(stream);
  }
  sync();
  if (engine) {
    EXPECT_EQ(engine->ha_stats().failovers - failovers_before, crashes);
  }
  if (!dir.empty()) std::filesystem::remove_all(dir);

  for (size_t label = 0; label < n; ++label) {
    if (host[label] == Host::kNone) continue;
    collect(label);
    const bool windowed = sqls[label].find(" for ") != std::string::npos;
    const bool join = sqls[label].find("A, B") != std::string::npos;
    const bool sorted = !windowed && (join || host[label] == Host::kEngine ||
                                      config.shards > 1);
    const Compare mode = config.speculative ? Compare::kNet
                         : sorted           ? Compare::kSorted
                         : join             ? Compare::kSortedRows
                                            : Compare::kOrdered;
    const std::vector<Oracle::Set> want_sets = oracle.Results(label);
    for (const Oracle::Set& set : want_sets) *rows += set.rows.size();
    std::lock_guard<std::mutex> lock(mu);
    const bool standing = !windowed && !join;
    const std::vector<std::string> have = Render(mode, got[label], standing);
    const std::vector<std::string> want = Render(mode, want_sets, standing);
    size_t i = 0;
    while (i < have.size() && i < want.size() && have[i] == want[i]) ++i;
    if (i < have.size() || i < want.size()) {
      return sqls[label] + ": line " + std::to_string(i) + " of " +
             std::to_string(have.size()) + " (oracle: " +
             std::to_string(want.size()) + "): got " +
             (i < have.size() ? have[i] : "<end>") + ", oracle " +
             (i < want.size() ? want[i] : "<end>");
    }
  }
  return "";
}

class EquivalenceMatrixTest : public ::testing::TestWithParam<Config> {};

TEST_P(EquivalenceMatrixTest, MatchesTheOracle) {
  const Config& config = GetParam();
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    size_t rows = 0;
    EXPECT_EQ(RunConfig(seed, config, &rows), "") << "seed " << seed;
    EXPECT_GT(rows, 0u) << "seed " << seed;
  }
}

// One instance per configuration, named after it, so that a ctest entry
// can run a subset with --gtest_filter (see tests/CMakeLists.txt).
INSTANTIATE_TEST_SUITE_P(
    Configs, EquivalenceMatrixTest, ::testing::ValuesIn(kConfigs),
    [](const ::testing::TestParamInfo<Config>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace tcq
