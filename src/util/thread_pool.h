#ifndef HYPERMINE_UTIL_THREAD_POOL_H_
#define HYPERMINE_UTIL_THREAD_POOL_H_

#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace hypermine {

/// Fixed-size worker pool: the helpers of a multi-threaded api::Engine and
/// of core::BuildAssociationHypergraph, and hypermine_serve's reload
/// thread, each run on one. net::Server starts none: its reactors answer
/// their own batches. Tasks are plain
/// closures; Submit never blocks. Queued tasks start in submit order
/// (FIFO), so on a one-worker pool they also finish in that order: back-to-
/// back `!reload`s apply in the order they were typed. Tasks still queued
/// at destruction time are drained, not dropped: a `!reload` queued behind
/// a running one still runs, against the engine it captured, before the
/// pool is gone.
class ThreadPool {
 public:
  /// Starts `num_threads` workers; 0 = HardwareThreads().
  explicit ThreadPool(size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return workers_.size(); }

  /// Enqueues one task behind every task already queued.
  void Submit(std::function<void()> task);

  /// Runs body(0) .. body(n - 1), distributing indices over the workers via
  /// an atomic cursor; the calling thread participates, so a ParallelFor on
  /// a pool of w workers uses up to w + 1 threads, and a call whose helpers
  /// are all still queued finishes on the caller alone (nested calls cannot
  /// deadlock). Blocks until every index has completed. Which thread runs
  /// which index is nondeterministic — callers needing deterministic output
  /// must make body(i) depend only on i (the hypergraph builder's
  /// per-head-block buffers do exactly this, then merge serially).
  void ParallelFor(size_t n, const std::function<void(size_t)>& body);

  /// std::thread::hardware_concurrency with a floor of 1.
  static size_t HardwareThreads();

 private:
  void WorkerLoop();

  Mutex mutex_;
  CondVar cv_;
  std::deque<std::function<void()>> pending_ HM_GUARDED_BY(mutex_);
  bool shutting_down_ HM_GUARDED_BY(mutex_) = false;
  /// Written once by the constructor before any worker exists, then only
  /// read (num_threads, joins) — no lock needed.
  std::vector<std::thread> workers_;
};

}  // namespace hypermine

#endif  // HYPERMINE_UTIL_THREAD_POOL_H_
