#ifndef TCQ_TESTING_CRASH_INJECTOR_H_
#define TCQ_TESTING_CRASH_INJECTOR_H_

#include <cstddef>

#include "cacq/sharded_engine.h"

namespace tcq {

/// Crash-recovery step for the sharded CACQ engine's process-pair HA
/// (DESIGN.md §13): kills `shard` and immediately fails it over. Requests
/// the kill, waits for the worker to exit at its task boundary, then
/// promotes the standby (blocking until recovery completes). The engine
/// must be running with Options::num_replicas > 0. Crashes the test
/// (CHECK) on any recovery failure — recovery is the property under test.
void CrashAndRecover(ShardedEngine* engine, size_t shard);

}  // namespace tcq

#endif  // TCQ_TESTING_CRASH_INJECTOR_H_
