#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "fjords/scheduler.h"
#include "ingress/sources.h"
#include "ingress/wrapper.h"

namespace tcq {
namespace {

TEST(SourcesTest, StockTickerShapeAndDeterminism) {
  StockTickerSource::Options opts;
  opts.num_symbols = 4;
  opts.num_days = 3;
  StockTickerSource a(opts), b(opts);
  size_t n = 0;
  while (auto ta = a.Next()) {
    auto tb = b.Next();
    ASSERT_TRUE(tb.has_value());
    EXPECT_EQ(*ta, *tb);  // Same seed, same stream.
    EXPECT_EQ(ta->arity(), 3u);
    EXPECT_GT(ta->cell(2).double_value(), 0.0);
    ++n;
  }
  EXPECT_EQ(n, 12u);  // 4 symbols x 3 days.
  EXPECT_FALSE(b.Next().has_value());
}

TEST(SourcesTest, StockTickerTimestampsAreDays) {
  StockTickerSource::Options opts;
  opts.num_symbols = 2;
  opts.num_days = 2;
  StockTickerSource src(opts);
  std::vector<Timestamp> ts;
  while (auto t = src.Next()) ts.push_back(t->timestamp());
  EXPECT_EQ(ts, (std::vector<Timestamp>{1, 1, 2, 2}));
}

TEST(SourcesTest, SymbolNames) {
  EXPECT_EQ(StockTickerSource::SymbolName(0), "MSFT");
  EXPECT_EQ(StockTickerSource::SymbolName(7), "S007");
}

TEST(SourcesTest, PacketSourceSkew) {
  PacketSource::Options opts;
  opts.num_hosts = 100;
  opts.host_skew = 1.3;
  opts.num_packets = 20000;
  PacketSource src(opts);
  std::map<int64_t, int> counts;
  while (auto t = src.Next()) {
    ASSERT_EQ(t->arity(), 5u);
    ++counts[t->cell(1).int64_value()];
  }
  EXPECT_GT(counts[0], 2000);  // Head host dominates under skew.
}

TEST(SourcesTest, SensorDropoutSkipsTimestamps) {
  SensorSource::Options opts;
  opts.num_readings = 1000;
  opts.dropout = 0.2;
  SensorSource src(opts);
  size_t produced = 0;
  while (src.Next()) ++produced;
  EXPECT_LT(produced, 1000u);  // Some readings dropped.
  EXPECT_GT(produced, 600u);
}

TEST(SourcesTest, CsvRoundTrip) {
  const char* path = "/tmp/tcq_csv_test.csv";
  {
    std::ofstream out(path);
    out << "1,MSFT,51.5\n2,IBM,99.25\n";
  }
  SchemaPtr schema = StockTickerSource::MakeSchema();
  auto src = CsvFileSource::Create(path, schema, /*timestamp_field=*/0);
  ASSERT_TRUE(src.ok()) << src.status();
  auto t1 = (*src)->Next();
  ASSERT_TRUE(t1.has_value());
  EXPECT_EQ(t1->cell(1).string_value(), "MSFT");
  EXPECT_DOUBLE_EQ(t1->cell(2).double_value(), 51.5);
  EXPECT_EQ(t1->timestamp(), 1);
  auto t2 = (*src)->Next();
  ASSERT_TRUE(t2.has_value());
  EXPECT_EQ(t2->timestamp(), 2);
  EXPECT_FALSE((*src)->Next().has_value());
  std::remove(path);
}

TEST(SourcesTest, CsvErrors) {
  SchemaPtr schema = StockTickerSource::MakeSchema();
  EXPECT_FALSE(CsvFileSource::Create("/nonexistent.csv", schema).ok());
  const char* path = "/tmp/tcq_csv_bad.csv";
  {
    std::ofstream out(path);
    out << "1,MSFT\n";  // Too few columns.
  }
  EXPECT_EQ(CsvFileSource::Create(path, schema).status().code(),
            StatusCode::kParseError);
  std::remove(path);
}

TEST(SourceModuleTest, ProducesIntoQueueAndCloses) {
  StockTickerSource::Options sopts;
  sopts.num_symbols = 2;
  sopts.num_days = 50;
  auto out = std::make_shared<TupleQueue>(PushQueueOptions(4096));
  SourceModule mod("src", std::make_unique<StockTickerSource>(sopts), out);
  while (mod.Step(64) != FjordModule::StepResult::kDone) {
  }
  EXPECT_EQ(mod.produced(), 100u);
  EXPECT_TRUE(out->closed());
  size_t n = 0;
  while (out->Dequeue()) ++n;
  EXPECT_EQ(n, 100u);
}

TEST(SourceModuleTest, StallingSourceGoesIdle) {
  SourceModule::Options mopts;
  mopts.tuples_per_step = 10;
  mopts.stall_every = 1;
  mopts.stall_for = 3;
  StockTickerSource::Options sopts;
  sopts.num_symbols = 1;
  sopts.num_days = 100;
  auto out = std::make_shared<TupleQueue>(PushQueueOptions(4096));
  SourceModule mod("src", std::make_unique<StockTickerSource>(sopts), out,
                   mopts);
  EXPECT_EQ(mod.Step(64), FjordModule::StepResult::kDidWork);
  // Now stalled for 3 steps.
  EXPECT_EQ(mod.Step(64), FjordModule::StepResult::kIdle);
  EXPECT_EQ(mod.Step(64), FjordModule::StepResult::kIdle);
  EXPECT_EQ(mod.Step(64), FjordModule::StepResult::kIdle);
  EXPECT_EQ(mod.Step(64), FjordModule::StepResult::kDidWork);
}

TEST(ArchiveTest, ScanWindow) {
  Archive archive;
  for (Timestamp ts = 1; ts <= 10; ++ts) {
    archive.Append(Tuple::Make({Value::Int64(ts)}, ts));
  }
  TupleVector w = archive.Scan(3, 7);
  ASSERT_EQ(w.size(), 5u);
  EXPECT_EQ(w.front().timestamp(), 3);
  EXPECT_EQ(w.back().timestamp(), 7);
  EXPECT_TRUE(archive.Scan(11, 20).empty());
  EXPECT_EQ(archive.min_timestamp(), 1);
  EXPECT_EQ(archive.max_timestamp(), 10);
}

TEST(ArchiveTest, DuplicateTimestampsSupported) {
  Archive archive;
  archive.Append(Tuple::Make({Value::Int64(1)}, 5));
  archive.Append(Tuple::Make({Value::Int64(2)}, 5));
  archive.Append(Tuple::Make({Value::Int64(3)}, 5));
  EXPECT_EQ(archive.Scan(5, 5).size(), 3u);
}

TEST(ArchiveTest, RetentionEvictsOldHistory) {
  Archive archive(/*retention_span=*/10);
  for (Timestamp ts = 1; ts <= 100; ++ts) {
    archive.Append(Tuple::Make({Value::Int64(ts)}, ts));
  }
  EXPECT_EQ(archive.size(), 10u);
  EXPECT_EQ(archive.min_timestamp(), 91);
}

TEST(ArchiveTest, ExplicitEviction) {
  Archive archive;
  for (Timestamp ts = 1; ts <= 10; ++ts) {
    archive.Append(Tuple::Make({Value::Int64(ts)}, ts));
  }
  archive.EvictBefore(8);
  EXPECT_EQ(archive.size(), 3u);
}

TEST(ArchiveTest, StragglerBelowTheFloorIsDropped) {
  // EvictBefore(8) says history below 8 is gone, so a straggler at 5 must
  // not come back in scans; one at 9 is still placed in order.
  Archive archive;
  for (Timestamp ts = 1; ts <= 10; ++ts) {
    archive.Append(Tuple::Make({Value::Int64(ts)}, ts));
  }
  archive.EvictBefore(8);
  EXPECT_EQ(archive.floor(), 8);
  archive.InsertOrdered(Tuple::Make({Value::Int64(5)}, 5));
  EXPECT_EQ(archive.size(), 3u);
  EXPECT_TRUE(archive.Scan(kMinTimestamp, 7).empty());
  EXPECT_EQ(archive.min_timestamp(), 8);
  archive.InsertOrdered(Tuple::Make({Value::Int64(9)}, 9));
  EXPECT_EQ(archive.Scan(9, 9).size(), 2u);
}

TEST(ArchiveTest, ResidentBytesFollowTheResidentTuples) {
  // Strings of growing length make every tuple's ApproxBytes distinct.
  Archive archive(/*retention_span=*/20);
  auto row = [](Timestamp ts) {
    return Tuple::Make({Value::Int64(ts),
                        Value::String(std::string(static_cast<size_t>(ts),
                                                  'x'))},
                       ts);
  };
  auto held = [&archive] {
    int64_t bytes = 0;
    for (const Tuple& t : archive.Scan(kMinTimestamp, kMaxTimestamp)) {
      bytes += static_cast<int64_t>(t.ApproxBytes());
    }
    return bytes;
  };
  EXPECT_EQ(archive.resident_bytes(), 0);
  for (Timestamp ts = 1; ts <= 30; ++ts) {
    archive.Append(row(ts));
    ASSERT_EQ(archive.resident_bytes(), held()) << "append " << ts;
  }
  archive.InsertOrdered(row(15));  // Straggler inside the span.
  EXPECT_EQ(archive.resident_bytes(), held());
  archive.InsertOrdered(row(3));  // Below the span floor: dropped.
  EXPECT_EQ(archive.resident_bytes(), held());
  EXPECT_TRUE(archive.CancelMatching(row(20)));
  EXPECT_EQ(archive.resident_bytes(), held());
  archive.EvictBefore(25);
  EXPECT_EQ(archive.size(), 6u);
  EXPECT_EQ(archive.resident_bytes(), held());
  archive.EvictBefore(kMaxTimestamp);
  EXPECT_EQ(archive.resident_bytes(), 0);
}

}  // namespace
}  // namespace tcq
