#ifndef TCQ_TESTS_RESULT_ROWS_H_
#define TCQ_TESTS_RESULT_ROWS_H_

#include <vector>

#include "core/runner.h"

namespace tcq {

/// Every row of `sets`, in delivery order. A standing query delivers one
/// set per engine batch, so tests that count or index its rows flatten
/// the sets first; each row keeps its own timestamp.
inline TupleVector FlattenRows(const std::vector<ResultSet>& sets) {
  TupleVector rows;
  for (const ResultSet& rs : sets) {
    rows.insert(rows.end(), rs.rows.begin(), rs.rows.end());
  }
  return rows;
}

}  // namespace tcq

#endif  // TCQ_TESTS_RESULT_ROWS_H_
