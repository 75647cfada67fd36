#include "testing/fault_injector.h"

#include "common/logging.h"

namespace tcq {

FaultInjector::FaultInjector(uint64_t seed) : rng_(seed) {}

void FaultInjector::Record(std::string event) {
  std::lock_guard<std::mutex> lock(mu_);
  trace_.push_back(std::move(event));
}

std::vector<std::string> FaultInjector::Trace() const {
  std::lock_guard<std::mutex> lock(mu_);
  return trace_;
}

size_t FaultInjector::TraceSize() const {
  std::lock_guard<std::mutex> lock(mu_);
  return trace_.size();
}

// One MakeQueueHooks call's shared state: a child Rng plus its own lock so
// that concurrent queue operations serialize their draws (the decision
// sequence is seed-deterministic; assignment to operations follows thread
// interleaving).
struct FaultInjector::HookState {
  std::mutex mu;
  Rng rng{0};
  QueueFaultProfile enq;
  QueueFaultProfile deq;
  FaultInjector* owner = nullptr;
};

namespace {

QueueFaultDecision DrawQueueFault(
    Rng* rng, const FaultInjector::QueueFaultProfile& p) {
  QueueFaultDecision d;
  // One uniform draw partitions [0,1) into drop|delay|reorder|none bands,
  // a second draw supplies the argument. Two draws per decision keeps the
  // trace alignment stable across profile changes.
  const double u = rng->NextDouble();
  const uint64_t arg = rng->Next();
  if (u < p.drop) {
    d.action = QueueFaultDecision::Action::kDrop;
  } else if (u < p.drop + p.delay) {
    d.action = QueueFaultDecision::Action::kDelay;
    d.arg = p.max_delay == 0 ? 1 : 1 + arg % p.max_delay;
  } else if (u < p.drop + p.delay + p.reorder) {
    d.action = QueueFaultDecision::Action::kReorder;
    d.arg = arg;
  }
  return d;
}

const char* ActionCode(QueueFaultDecision::Action a) {
  switch (a) {
    case QueueFaultDecision::Action::kNone:
      return "none";
    case QueueFaultDecision::Action::kDrop:
      return "drop";
    case QueueFaultDecision::Action::kDelay:
      return "delay";
    case QueueFaultDecision::Action::kReorder:
      return "reorder";
  }
  return "?";
}

}  // namespace

std::shared_ptr<QueueFaultHooks> FaultInjector::MakeQueueHooks(
    const QueueFaultProfile& enqueue, const QueueFaultProfile& dequeue) {
  auto state = std::make_shared<HookState>();
  {
    std::lock_guard<std::mutex> lock(mu_);
    state->rng.Seed(rng_.Next());
    hooks_.push_back(state);
  }
  state->enq = enqueue;
  state->deq = dequeue;
  state->owner = this;

  auto hooks = std::make_shared<QueueFaultHooks>();
  hooks->on_enqueue = [state] {
    QueueFaultDecision d;
    {
      std::lock_guard<std::mutex> lock(state->mu);
      d = DrawQueueFault(&state->rng, state->enq);
    }
    if (d.action != QueueFaultDecision::Action::kNone) {
      state->owner->Record(std::string("enq:") + ActionCode(d.action));
    }
    return d;
  };
  hooks->on_dequeue = [state] {
    QueueFaultDecision d;
    {
      std::lock_guard<std::mutex> lock(state->mu);
      d = DrawQueueFault(&state->rng, state->deq);
    }
    if (d.action != QueueFaultDecision::Action::kNone) {
      state->owner->Record(std::string("deq:") + ActionCode(d.action));
    }
    return d;
  };
  return hooks;
}

TupleVector FaultInjector::Perturb(const TupleVector& input,
                                   const StreamFaultProfile& profile,
                                   int ts_field) {
  TupleVector out;
  out.reserve(input.size() + input.size() / 4);
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < input.size(); ++i) {
    Tuple t = input[i];
    const double u = rng_.NextDouble();
    if (u < profile.duplicate) {
      trace_.push_back("stream:dup@" + std::to_string(i));
      out.push_back(t);
      out.push_back(t);
    } else if (u < profile.duplicate + profile.late) {
      trace_.push_back("stream:late@" + std::to_string(i));
      const Timestamp ts = t.timestamp() - profile.late_by;
      t.set_timestamp(ts);
      if (ts_field >= 0) {
        std::vector<Value> cells;
        cells.reserve(t.arity());
        for (size_t c = 0; c < t.arity(); ++c) cells.push_back(t.cell(c));
        cells[static_cast<size_t>(ts_field)] = Value::Int64(ts);
        t = Tuple::Make(std::move(cells), ts);
      }
      out.push_back(std::move(t));
    } else if (u < profile.duplicate + profile.late + profile.swap &&
               i + 1 < input.size()) {
      trace_.push_back("stream:swap@" + std::to_string(i));
      out.push_back(input[i + 1]);
      out.push_back(std::move(t));
      ++i;  // The successor was consumed by the swap.
    } else {
      out.push_back(std::move(t));
    }
  }
  return out;
}

}  // namespace tcq
