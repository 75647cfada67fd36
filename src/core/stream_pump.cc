#include "core/stream_pump.h"

#include "common/logging.h"

namespace tcq {

StreamPumpModule::StreamPumpModule(std::string name, Server* server,
                                   std::string stream, TupleQueuePtr in)
    : BatchInputModule(std::move(name), std::move(in)),
      server_(server),
      stream_(std::move(stream)) {
  TCQ_CHECK(server_ != nullptr && input() != nullptr);
}

bool StreamPumpModule::ProcessBatch(std::vector<Tuple>* batch, size_t* pos) {
  const size_t n = batch->size() - *pos;
  std::vector<Tuple> chunk(
      std::make_move_iterator(batch->begin() + static_cast<ptrdiff_t>(*pos)),
      std::make_move_iterator(batch->end()));
  *pos = batch->size();
  size_t rejected = 0;
  const Status st = server_->PushBatch(stream_, std::move(chunk), &rejected);
  if (!st.ok()) {
    // Unknown stream: nothing was ingested, but the tuples are consumed —
    // a misrouted wrapper must not wedge the scheduler (§4.2.3).
    rejected_ += n;
    TCQ_LOG(Debug) << name() << ": " << st;
    return true;
  }
  pumped_ += n - rejected;
  if (rejected > 0) {
    // Out-of-order or malformed input: count and continue.
    rejected_ += rejected;
    TCQ_LOG(Debug) << name() << ": rejected " << rejected << " of " << n;
  }
  return true;
}

bool StreamPumpModule::ProcessOne(Tuple& t) {
  const Status st = server_->Push(stream_, t);
  if (st.ok()) {
    ++pumped_;
  } else {
    ++rejected_;
    TCQ_LOG(Debug) << name() << ": " << st;
  }
  return true;
}

}  // namespace tcq
