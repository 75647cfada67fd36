#include "fjords/scheduler.h"

#include <chrono>

#include "common/logging.h"

namespace tcq {

ExecutionObject::ExecutionObject(std::string name)
    : ExecutionObject(std::move(name), Options()) {}

ExecutionObject::ExecutionObject(std::string name, Options options,
                                 std::shared_ptr<Waker> waker)
    : name_(std::move(name)),
      options_(options),
      waker_(waker != nullptr ? std::move(waker)
                              : std::make_shared<Waker>()) {}

ExecutionObject::~ExecutionObject() { Stop(); }

void ExecutionObject::AddModule(FjordModulePtr module) {
  TCQ_CHECK(module != nullptr);
  std::lock_guard<std::mutex> lock(pending_mu_);
  // Count BEFORE publishing: any completion check that still reads the
  // old count also cannot see (and skip) this module.
  incomplete_.fetch_add(1, std::memory_order_release);
  total_added_.fetch_add(1, std::memory_order_release);
  all_done_.store(false, std::memory_order_release);
  pending_.push_back(std::move(module));
  waker_->Wake();
}

void ExecutionObject::DrainPending() {
  std::lock_guard<std::mutex> lock(pending_mu_);
  for (auto& m : pending_) {
    modules_.push_back(std::move(m));
    done_.push_back(false);
  }
  pending_.clear();
}

bool ExecutionObject::RunRound(bool* all_done) {
  DrainPending();
  bool any_work = false;
  for (size_t i = 0; i < modules_.size(); ++i) {
    if (done_[i]) continue;
    const FjordModule::StepResult r = modules_[i]->Step(options_.quantum);
    switch (r) {
      case FjordModule::StepResult::kDidWork:
        any_work = true;
        work_quanta_.fetch_add(1, std::memory_order_relaxed);
        break;
      case FjordModule::StepResult::kIdle:
        break;
      case FjordModule::StepResult::kDone:
        done_[i] = true;
        incomplete_.fetch_sub(1, std::memory_order_release);
        break;
    }
  }
  // incomplete_ counts pending modules too, so a concurrent AddModule
  // can never be missed by this check (it raises the count before the
  // module becomes visible). Modules marked done this round count.
  *all_done = !modules_.empty() &&
              incomplete_.load(std::memory_order_acquire) == 0;
  return any_work;
}

void ExecutionObject::Park(uint64_t seen) {
  waker_->Park(seen, std::chrono::microseconds(options_.idle_sleep_micros));
}

void ExecutionObject::ThreadMain() {
  for (;;) {
    // Snapshot first, then check for stop and work: a Stop, AddModule or
    // enqueue that lands after this line moves the sequence, so the park
    // below returns at once instead of missing it.
    const uint64_t seen = waker_->Snapshot();
    if (stop_requested_.load(std::memory_order_acquire)) break;
    bool all_done = false;
    const bool any_work = RunRound(&all_done);
    all_done_.store(all_done, std::memory_order_release);
    // Stay alive even when all modules are done: new queries may still be
    // folded in dynamically. Park whenever idle.
    if (!any_work) Park(seen);
  }
  running_.store(false, std::memory_order_release);
}

void ExecutionObject::Start() {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  TCQ_CHECK(!thread_.joinable()) << "EO " << name_ << " already started";
  stop_requested_.store(false);
  all_done_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { ThreadMain(); });
}

void ExecutionObject::Stop() {
  // The store must happen under lifecycle_mu_: set before the lock, a
  // Start() racing in between would reset the flag and launch a thread
  // this Stop() then joins forever (it never sees the request).
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  stop_requested_.store(true, std::memory_order_release);
  waker_->Wake();
  if (thread_.joinable()) thread_.join();
  thread_ = std::thread();
  running_.store(false, std::memory_order_release);
}

void ExecutionObject::Join() {
  // Checks incomplete_ directly rather than all_done_: the cached flag
  // can be momentarily stale-true right after an AddModule, and stopping
  // on it would strand the freshly added module.
  while (running() &&
         (total_added_.load(std::memory_order_acquire) == 0 ||
          incomplete_.load(std::memory_order_acquire) != 0)) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  Stop();
}

void ExecutionObject::RunToCompletion() {
  TCQ_CHECK(!running_.load()) << "EO " << name_ << " is running on a thread";
  while (true) {
    const uint64_t seen = waker_->Snapshot();
    bool all_done = false;
    const bool any_work = RunRound(&all_done);
    if (all_done) return;
    // Single-threaded mode: idle means sources are non-blocking and
    // temporarily dry; park until one wakes us or the bound elapses.
    if (!any_work) Park(seen);
  }
}

}  // namespace tcq
