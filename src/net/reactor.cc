#include "net/reactor.h"

#include <utility>

namespace hypermine::net {

Reactor::Reactor(size_t reactor_index, EventLoop reactor_loop)
    : index(reactor_index),
      loop(std::move(reactor_loop)),
      read_scratch(64u << 10) {}

void Reactor::PushCompletion(BatchCompletion done) {
  MutexLock lock(completion_mutex);
  completions.push_back(std::move(done));
}

std::vector<BatchCompletion> Reactor::TakeCompletions() {
  std::vector<BatchCompletion> done;
  MutexLock lock(completion_mutex);
  done.swap(completions);
  return done;
}

void Reactor::BeginBatch() {
  MutexLock lock(completion_mutex);
  ++outstanding_batches;
}

void Reactor::FinishBatch() {
  // Decrement and notify under the lock: once Stop() observes zero it may
  // tear the reactor down, so its predicate wait must not return (and free
  // the cv) until this worker has released the mutex — after which the
  // worker touches no reactor member again.
  MutexLock lock(completion_mutex);
  --outstanding_batches;
  outstanding_cv.NotifyAll();
}

std::vector<BatchCompletion> Reactor::WaitIdleAndCollect() {
  std::vector<BatchCompletion> leftovers;
  MutexLock lock(completion_mutex);
  outstanding_cv.Wait(completion_mutex,
                      [this]() HM_REQUIRES(completion_mutex) {
                        return outstanding_batches == 0;
                      });
  leftovers.swap(completions);
  return leftovers;
}

size_t Reactor::outstanding() const {
  MutexLock lock(completion_mutex);
  return outstanding_batches;
}

}  // namespace hypermine::net
