#include "stem/remote_index.h"

#include <gtest/gtest.h>

#include "kv.h"

namespace tcq {
namespace {

RemoteIndex MakeIndex(uint64_t latency = 100) {
  TupleVector rows;
  rows.push_back(Tuple::Make({Value::Int64(1), Value::Int64(10)}, 1));
  rows.push_back(Tuple::Make({Value::Int64(1), Value::Int64(11)}, 2));
  rows.push_back(Tuple::Make({Value::Int64(2), Value::Int64(20)}, 3));
  RemoteIndex::Options opts;
  opts.latency_cost = latency;
  return RemoteIndex("idx", KV(), /*key_field=*/0, std::move(rows), opts);
}

TEST(RemoteIndexTest, LookupReturnsMatchingRows) {
  RemoteIndex idx = MakeIndex();
  TupleVector rows = idx.Lookup(Value::Int64(1));
  EXPECT_EQ(rows.size(), 2u);
  for (const Tuple& t : rows) EXPECT_EQ(t.cell(0).int64_value(), 1);
}

TEST(RemoteIndexTest, MissingKeyReturnsEmpty) {
  RemoteIndex idx = MakeIndex();
  EXPECT_TRUE(idx.Lookup(Value::Int64(99)).empty());
}

TEST(RemoteIndexTest, ChargesLatencyPerLookup) {
  RemoteIndex idx = MakeIndex(250);
  idx.Lookup(Value::Int64(1));
  idx.Lookup(Value::Int64(2));
  idx.Lookup(Value::Int64(99));  // Misses also cost.
  EXPECT_EQ(idx.lookups(), 3u);
  EXPECT_EQ(idx.total_cost(), 750u);
}

}  // namespace
}  // namespace tcq
