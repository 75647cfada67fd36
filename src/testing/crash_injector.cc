#include "testing/crash_injector.h"

#include <chrono>
#include <thread>

#include "common/logging.h"

namespace tcq {

void CrashAndRecover(ShardedEngine* engine, size_t shard) {
  const Status killed = engine->KillShard(shard);
  TCQ_CHECK(killed.ok()) << killed.ToString();
  // The worker observes the kill at its next task boundary (it polls the
  // flag even when idle), so this always terminates.
  while (engine->shard_alive(shard)) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  const Status recovered = engine->FailoverShard(shard);
  TCQ_CHECK(recovered.ok()) << recovered.ToString();
}

}  // namespace tcq
