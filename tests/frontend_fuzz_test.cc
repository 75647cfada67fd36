// A seeded, grammar-aware fuzzer of the query front end. It generates
// query text from the grammar (random keyword case, huge and negative
// literals, WindowIs clauses, joins, tables, aggregates), then mutates
// some of it (truncation, stray bytes, deleted and repeated spans), and
// runs each text through ParseQuery -> AnalyzeSql -> Server::Submit ->
// PushBatch -> Cancel on a live server. Properties:
//  * nothing crashes, aborts or throws: every rejection is a Status;
//  * Submit rejects what AnalyzeSql rejects, with the same status code;
//  * every accepted WHERE clause prints (Expr::ToString) to text that
//    parses back to the same string.
// `Short` runs in the unit suite; `Long` runs under the stress label, so
// the sanitizer jobs run it.

#include <gtest/gtest.h>

#include <cstdint>
#include <exception>
#include <random>
#include <string>
#include <vector>

#include "core/analyzer.h"
#include "core/server.h"
#include "parser/parser.h"

namespace tcq {
namespace {

SchemaPtr TradesSchema() {
  return Schema::Make({{"ts", ValueType::kInt64, ""},
                       {"sym", ValueType::kString, ""},
                       {"price", ValueType::kInt64, ""},
                       {"id", ValueType::kInt64, ""}});
}

SchemaPtr QuotesSchema() {
  return Schema::Make({{"ts", ValueType::kInt64, ""},
                       {"sym", ValueType::kString, ""},
                       {"bid", ValueType::kDouble, ""}});
}

SchemaPtr SectorsSchema() {
  return Schema::Make({{"sym", ValueType::kString, ""},
                       {"sector", ValueType::kInt64, ""}});
}

TupleVector SectorRows() {
  return {Tuple::Make({Value::String("K01"), Value::Int64(1)}, 0),
          Tuple::Make({Value::String("K03"), Value::Int64(2)}, 0)};
}

/// Query text from the grammar, sometimes mutated.
class QueryGen {
 public:
  explicit QueryGen(uint64_t seed) : rng_(seed) {}

  std::string Next() {
    std::string sql = Query();
    if (Chance(0.2)) Mutate(&sql);
    return sql;
  }

 private:
  int Pick(int n) { return std::uniform_int_distribution<int>(0, n - 1)(rng_); }
  bool Chance(double p) { return std::bernoulli_distribution(p)(rng_); }
  template <size_t N>
  const char* OneOf(const char* const (&options)[N]) {
    return options[Pick(static_cast<int>(N))];
  }

  /// A keyword in random case: SELECT, select, SeLeCt, ...
  std::string Kw(const char* word) {
    std::string out = word;
    const int mode = Pick(3);
    for (char& c : out) {
      const bool lower = mode == 1 || (mode == 2 && Chance(0.5));
      if (lower && c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
    }
    return out;
  }

  std::string IntLit() {
    static const char* const kEdges[] = {
        "0", "1", "9223372036854775807", "9223372036854775808",
        "-9223372036854775808", "-9223372036854775809",
        "99999999999999999999", "00042", "-1"};
    if (Chance(0.1)) return OneOf(kEdges);
    const int64_t v = std::uniform_int_distribution<int64_t>(-50, 120)(rng_);
    return std::to_string(v);
  }

  std::string FloatLit() {
    static const char* const kFloats[] = {
        "1.5", "0.25", "-2.75", "123456789.25", "42.0", "0.001",
        "3.14159265358979", "100000000000000000000.5"};
    return OneOf(kFloats);
  }

  std::string StrLit() {
    static const char* const kStrings[] = {"'K03'", "'K01'", "''",
                                           "'it''s'"};
    return Chance(0.03) ? "'K03" : OneOf(kStrings);
  }

  /// Mostly a column of the query's sources, sometimes one it lacks.
  std::string Column() {
    static const char* const kStray[] = {"nope", "t", "Trades.price",
                                         "x.price", "Quotes.bid", "sector"};
    if (columns_.empty() || Chance(0.08)) return OneOf(kStray);
    const int n = static_cast<int>(columns_.size());
    return columns_[static_cast<size_t>(Pick(n))];
  }

  std::string Aggregate() {
    const char* fn = OneOf({"COUNT", "SUM", "MAX", "MIN", "AVG"});
    const bool star = fn[0] == 'C' ? Chance(0.6) : Chance(0.03);
    return Kw(fn) + "(" + (star ? "*" : Column()) + ")";
  }

  std::string Operand(int depth) {
    switch (Pick(depth > 0 ? 7 : 5)) {
      case 0:
      case 1:
        return Column();
      case 2:
        return IntLit();
      case 3:
        return Chance(0.5) ? FloatLit() : StrLit();
      case 4:
        if (Chance(0.3)) return "- " + Column();
        return Kw(OneOf({"TRUE", "FALSE", "NULL"}));
      case 5:
        return "(" + Operand(depth - 1) + " " +
               OneOf({"+", "-", "*", "/", "%"}) + " " + Operand(depth - 1) +
               ")";
      default:
        return Chance(0.2) ? Aggregate() : Column();
    }
  }

  std::string Predicate(int depth) {
    if (depth > 0 && Chance(0.35)) {
      const std::string op = Kw(OneOf({"AND", "OR", "AND"}));
      return Predicate(depth - 1) + " " + op + " " + Predicate(depth - 1);
    }
    if (depth > 0 && Chance(0.1)) {
      return Kw("NOT") + " (" + Predicate(depth - 1) + ")";
    }
    return Operand(depth) + " " +
           OneOf({"=", "==", "!=", "<>", "<", "<=", ">", ">="}) + " " +
           Operand(depth);
  }

  std::string SelectList(bool windowed) {
    if (Chance(0.2)) return "*";
    std::string out;
    const int n = 1 + Pick(3);
    for (int i = 0; i < n; ++i) {
      if (i > 0) out += ", ";
      if (windowed && Chance(0.6)) {
        out += Aggregate();
      } else {
        out += Chance(0.8) ? Column() : Operand(1);
      }
      if (Chance(0.15)) out += " " + Kw("AS") + " c" + std::to_string(i);
    }
    return out;
  }

  /// A window bound over the loop variable and ST.
  std::string Bound(const std::string& var) {
    if (Chance(0.02)) return var + " + " + Aggregate();
    switch (Pick(6)) {
      case 0:
        return var;
      case 1:
        return var + " - " + std::to_string(Pick(12));
      case 2:
        return var + " + " + std::to_string(Pick(4));
      case 3:
        return "ST";
      case 4:
        return IntLit();
      default:
        return var + " - " + IntLit();
    }
  }

  std::string ForLoop(const std::vector<std::string>& sources) {
    const std::string var = Chance(0.9) ? "t" : OneOf({"u", "ST", "st"});
    static const char* const kInits[] = {"ST", "ST - 5", "1", "0", "ST + 3"};
    std::string init = Chance(0.15) ? IntLit() : OneOf(kInits);
    if (Chance(0.1)) init = "ST - " + IntLit();
    std::string cond;
    switch (Pick(5)) {
      case 0:
      case 1:
        cond = Kw("TRUE");
        break;
      case 2:
        cond = var + " < ST + " + std::to_string(Pick(60));
        break;
      case 3:
        cond = var + " == 0";
        break;
      default:
        cond = var + " <= " + IntLit();
    }
    std::string step;
    switch (Pick(6)) {
      case 0:
        step = var + "++";
        break;
      case 1:
        step = var + " += " + std::to_string(1 + Pick(8));
        break;
      case 2:
        step = var + " = " + var + " + " + std::to_string(Pick(5));
        break;
      case 3:
        step = var + " -= " + std::to_string(1 + Pick(5));
        break;
      case 4:
        step = var + " = -1";
        break;
      default:
        step = var + " += " + IntLit();
    }
    const std::string head = Chance(0.9) ? var + " = " + init : "";
    std::string out =
        Kw("for") + " (" + head + "; " + cond + "; " + step + ") { ";
    for (const std::string& s : sources) {
      if (Chance(0.05)) continue;  // A stream without a window.
      out += Kw("WindowIs") + "(" + s + ", " + Bound(var) + ", " + Bound(var) +
             "); ";
    }
    if (Chance(0.05)) out += Kw("WindowIs") + "(Nowhere, t, t); ";
    return out + "}";
  }

  std::string Query() {
    static const char* const kFrom[] = {
        "Trades", "Trades", "Trades", "Trades", "Trades", "Trades x",
        "Trades AS x", "Quotes",
        "Trades, Quotes", "Trades, Sectors", "Sectors", "Nowhere",
        "Trades, Trades"};
    const std::string from = OneOf(kFrom);
    std::vector<std::string> sources;
    columns_.clear();
    if (from.find("Trades") != std::string::npos) {
      const bool aliased = from.find(" x") != std::string::npos;
      sources.push_back(aliased ? "x" : "Trades");
      for (const char* c : {"price", "id", "ts", "sym"}) {
        columns_.push_back(c);
        columns_.push_back(sources.back() + "." + c);
      }
    }
    if (from.find("Quotes") != std::string::npos) {
      sources.push_back("Quotes");
      for (const char* c : {"bid", "Quotes.bid", "Quotes.sym", "Quotes.ts"}) {
        columns_.push_back(c);
      }
    }
    if (from.find("Sectors") != std::string::npos) {
      columns_.push_back("sector");
      columns_.push_back("Sectors.sym");
    }
    const bool windowed = Chance(0.55);
    std::string sql = Kw("SELECT") + " " + SelectList(windowed) + " " +
                      Kw("FROM") + " " + from;
    if (Chance(0.75)) sql += " " + Kw("WHERE") + " " + Predicate(2);
    if (windowed && Chance(0.15)) {
      sql += " " + Kw("GROUP") + " " + Kw("BY") + " sym";
    }
    if (windowed) sql += " " + ForLoop(sources);
    if (Chance(0.1)) sql += ";";
    return sql;
  }

  void Mutate(std::string* sql) {
    if (sql->empty()) return;
    const size_t at = static_cast<size_t>(Pick(static_cast<int>(sql->size())));
    switch (Pick(5)) {
      case 0:
        sql->resize(at);  // Truncation.
        break;
      case 1:
        sql->insert(at, 1, static_cast<char>(Pick(256)));  // A stray byte.
        break;
      case 2:
        sql->erase(at, 1 + static_cast<size_t>(Pick(6)));
        break;
      case 3:
        sql->insert(at, sql->substr(at, static_cast<size_t>(Pick(12))));
        break;
      default:
        sql->insert(at, OneOf({"--", "'", "(", ")", "{", "}", ";", ",", ".",
                               "!", "9223372036854775808"}));
    }
  }

  std::mt19937_64 rng_;
  std::vector<std::string> columns_;  ///< Of the query being generated.
};

/// One server and the catalog of the same sources; a fresh pair every
/// few dozen queries keeps history and registrations small.
struct Harness {
  explicit Harness(uint64_t seed) {
    Server::Options opts;
    opts.seed = seed;
    opts.max_disorder = seed % 2 == 0 ? 0 : 4;
    opts.retention_span = 200;
    server = std::make_unique<Server>(opts);
    EXPECT_TRUE(server->DefineStream("Trades", TradesSchema(), 0, 1).ok());
    EXPECT_TRUE(server->DefineStream("Quotes", QuotesSchema(), 0, 1).ok());
    EXPECT_TRUE(server->DefineTable("Sectors", SectorsSchema(), SectorRows())
                    .ok());
    auto def = [](const char* name, SchemaPtr schema, int ts_field) {
      StreamDef d;
      d.name = name;
      d.schema = std::move(schema);
      d.timestamp_field = ts_field;
      return d;
    };
    EXPECT_TRUE(catalog.RegisterStream(def("Trades", TradesSchema(), 0)).ok());
    EXPECT_TRUE(catalog.RegisterStream(def("Quotes", QuotesSchema(), 0)).ok());
    EXPECT_TRUE(
        catalog.RegisterTable(def("Sectors", SectorsSchema(), -1), SectorRows())
            .ok());
  }

  void Push(std::mt19937_64* rng) {
    std::vector<Tuple> trades, quotes;
    for (int i = 0; i < 4; ++i) {
      ++ts;
      const Timestamp t = ts - static_cast<Timestamp>((*rng)() % 3);
      const std::string sym = (*rng)() % 2 == 0 ? "K03" : "K01";
      const auto price = static_cast<int64_t>((*rng)() % 100);
      trades.push_back(Tuple::Make({Value::Int64(t), Value::String(sym),
                                    Value::Int64(price), Value::Int64(ts)},
                                   t));
      quotes.push_back(Tuple::Make(
          {Value::Int64(t), Value::String(sym), Value::Double(1.5 * i)}, t));
    }
    size_t rejected = 0;
    EXPECT_TRUE(server->PushBatch("Trades", std::move(trades), &rejected).ok());
    EXPECT_TRUE(server->PushBatch("Quotes", std::move(quotes), &rejected).ok());
  }

  std::unique_ptr<Server> server;
  Catalog catalog;
  Timestamp ts = 0;
};

/// The round-trip property of one parsed WHERE clause.
void ExpectWhereRoundTrips(const std::string& sql, const ExprPtr& where) {
  const std::string printed = where->ToString();
  auto again = ParseQuery("SELECT a FROM S WHERE " + printed);
  ASSERT_TRUE(again.ok()) << "WHERE of `" << sql << "` prints as `" << printed
                          << "`, which does not parse: " << again.status();
  EXPECT_EQ(again->where->ToString(), printed) << "from `" << sql << "`";
}

struct Tally {
  size_t parsed = 0, analyzed = 0, submitted = 0;
};

Tally Fuzz(uint64_t seed, size_t cases) {
  QueryGen gen(seed);
  std::mt19937_64 data_rng(seed ^ 0x9e3779b97f4a7c15ULL);
  Tally tally;
  std::unique_ptr<Harness> h;
  for (size_t i = 0; i < cases; ++i) {
    if (i % 40 == 0) h = std::make_unique<Harness>(seed + i);
    const std::string sql = gen.Next();
    SCOPED_TRACE("case " + std::to_string(i) + ": " + sql);
    try {
      auto parsed = ParseQuery(sql);
      if (parsed.ok()) {
        ++tally.parsed;
        if (parsed->where != nullptr) ExpectWhereRoundTrips(sql, parsed->where);
      }
      auto analyzed = AnalyzeSql(sql, h->catalog);
      tally.analyzed += analyzed.ok();
      h->Push(&data_rng);
      Server::SubmitOptions opts;
      if (data_rng() % 4 == 0) opts.consistency = Consistency::kSpeculative;
      auto q = h->server->Submit(sql, opts);
      if (!analyzed.ok()) {
        EXPECT_FALSE(q.ok());
        EXPECT_EQ(q.status().code(), analyzed.status().code())
            << analyzed.status() << " vs " << q.status();
      }
      h->Push(&data_rng);
      EXPECT_TRUE(h->server->Heartbeat("Trades", h->ts + 1).ok());
      if (q.ok()) {
        ++tally.submitted;
        (void)h->server->PollAll(*q);
        EXPECT_TRUE(h->server->Cancel(*q).ok());
      }
    } catch (const std::exception& e) {
      ADD_FAILURE() << "threw " << e.what();
    } catch (...) {
      ADD_FAILURE() << "threw a non-exception";
    }
    if (::testing::Test::HasFailure()) break;
  }
  return tally;
}

void Report(const char* name, size_t cases, const Tally& t) {
  std::printf("%s: %zu cases, %zu parsed, %zu analyzed, %zu submitted\n",
              name, cases, t.parsed, t.analyzed, t.submitted);
  // The generator must reach past the parser, or the run shows nothing.
  EXPECT_GT(t.parsed, cases / 3);
  EXPECT_GT(t.submitted, cases / 10);
}

TEST(FrontendFuzzTest, Short) {
  constexpr size_t kCases = 400;
  Report("short", kCases, Fuzz(1, kCases));
}

TEST(FrontendFuzzTest, Long) {
  constexpr size_t kCases = 4000;
  for (uint64_t seed : {2, 3}) Report("long", kCases, Fuzz(seed, kCases));
}

}  // namespace
}  // namespace tcq
