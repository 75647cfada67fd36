#ifndef TCQ_TESTS_KV_H_
#define TCQ_TESTS_KV_H_

#include "tuple/tuple.h"

namespace tcq {

/// The two-INT64-column (k, v) schema most unit tests stream.
inline SchemaPtr KV() {
  return Schema::Make(
      {{"k", ValueType::kInt64, ""}, {"v", ValueType::kInt64, ""}});
}

inline Tuple KVTuple(int64_t k, int64_t v, Timestamp ts = 0) {
  return Tuple::Make({Value::Int64(k), Value::Int64(v)}, ts);
}

}  // namespace tcq

#endif  // TCQ_TESTS_KV_H_
