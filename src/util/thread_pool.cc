#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <memory>

namespace hypermine {

size_t ThreadPool::HardwareThreads() {
  return std::max<size_t>(1, std::thread::hardware_concurrency());
}

ThreadPool::ThreadPool(size_t num_threads) {
  const size_t n = num_threads == 0 ? HardwareThreads() : num_threads;
  workers_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mutex_);
    shutting_down_ = true;
  }
  cv_.NotifyAll();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mutex_);
      cv_.Wait(mutex_,
               [this]() HM_REQUIRES(mutex_) {
                 return shutting_down_ || !pending_.empty();
               });
      if (pending_.empty()) return;  // shutting down with a drained queue
      task = std::move(pending_.front());
      pending_.pop_front();
    }
    task();
  }
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    MutexLock lock(mutex_);
    pending_.push_back(std::move(task));
  }
  cv_.NotifyOne();
}

void ThreadPool::ParallelFor(size_t n,
                             const std::function<void(size_t)>& body) {
  if (n == 0) return;
  if (n == 1 || workers_.empty()) {
    for (size_t i = 0; i < n; ++i) body(i);
    return;
  }

  // Shared cursor state. Helper tasks hold shared ownership because a
  // queued helper can wake after the caller already finished every index
  // and returned; such a helper only reads the exhausted cursor and exits
  // without touching `body`.
  struct State {
    const std::function<void(size_t)>* body = nullptr;
    size_t n = 0;
    std::atomic<size_t> next{0};
    std::atomic<size_t> done{0};
    Mutex mutex;
    CondVar cv;
    bool complete HM_GUARDED_BY(mutex) = false;
  };
  auto state = std::make_shared<State>();
  state->body = &body;
  state->n = n;

  auto drain = [](const std::shared_ptr<State>& s) {
    size_t i;
    while ((i = s->next.fetch_add(1)) < s->n) {
      (*s->body)(i);
      if (s->done.fetch_add(1) + 1 == s->n) {
        MutexLock lock(s->mutex);
        s->complete = true;
        s->cv.NotifyAll();
      }
    }
  };

  // One lock/notify round enqueues every helper.
  {
    MutexLock lock(mutex_);
    for (size_t c = 0; c < std::min(workers_.size(), n - 1); ++c) {
      pending_.emplace_back([state, drain] { drain(state); });
    }
  }
  cv_.NotifyAll();
  drain(state);

  MutexLock lock(state->mutex);
  state->cv.Wait(state->mutex, [&state]() HM_REQUIRES(state->mutex) {
    return state->complete;
  });
}

}  // namespace hypermine
