#ifndef TCQ_CORE_STREAM_PUMP_H_
#define TCQ_CORE_STREAM_PUMP_H_

#include <string>

#include "core/server.h"
#include "fjords/module.h"

namespace tcq {

/// A streamer in reverse: drains a Fjord tuple queue into a server stream.
/// Lets ingress dataflows (SourceModule pipelines, unions, juggles) feed
/// the query engine under ExecutionObject scheduling — the Wrapper-to-
/// Executor hand-off of Figure 5.
class StreamPumpModule : public BatchInputModule {
 public:
  StreamPumpModule(std::string name, Server* server, std::string stream,
                   TupleQueuePtr in);

  uint64_t pumped() const { return pumped_; }
  uint64_t rejected() const { return rejected_; }

 protected:
  /// Forwards the whole remaining batch through ONE Server::PushBatch
  /// call — one server lock, one shared-eddy drain, one windowed advance
  /// for the batch instead of per tuple.
  bool ProcessBatch(std::vector<Tuple>* batch, size_t* pos) override;
  bool ProcessOne(Tuple& t) override;

 private:
  Server* server_;
  std::string stream_;
  uint64_t pumped_ = 0;
  uint64_t rejected_ = 0;
};

}  // namespace tcq

#endif  // TCQ_CORE_STREAM_PUMP_H_
