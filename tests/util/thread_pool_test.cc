#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <numeric>
#include <vector>

namespace hypermine {
namespace {

TEST(ThreadPoolTest, HardwareThreadsHasFloorOfOne) {
  EXPECT_GE(ThreadPool::HardwareThreads(), 1u);
}

TEST(ThreadPoolTest, DefaultSizeIsHardwareThreads) {
  ThreadPool pool;
  EXPECT_EQ(pool.num_threads(), ThreadPool::HardwareThreads());
}

TEST(ThreadPoolTest, SubmitRunsTask) {
  ThreadPool pool(2);
  std::promise<int> promise;
  pool.Submit([&promise] { promise.set_value(42); });
  EXPECT_EQ(promise.get_future().get(), 42);
}

TEST(ThreadPoolTest, PendingTasksDrainOnDestruction) {
  std::atomic<size_t> ran{0};
  {
    ThreadPool pool(1);
    // The first task occupies the single worker; the rest sit queued until
    // the destructor, which must drain rather than drop them.
    pool.Submit([] {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    });
    for (size_t i = 0; i < 16; ++i) {
      pool.Submit([&ran] { ran.fetch_add(1); });
    }
  }
  EXPECT_EQ(ran.load(), 16u);
}

TEST(ThreadPoolTest, RunsQueuedTasksInSubmitOrder) {
  // One worker, held busy until every task is queued: the queue alone
  // decides the order, and it must be the order of submission.
  std::vector<int> order;
  {
    ThreadPool pool(1);
    std::promise<void> started;
    std::promise<void> release;
    std::shared_future<void> gate = release.get_future().share();
    pool.Submit([&started, gate] {
      started.set_value();
      gate.wait();
    });
    started.get_future().wait();
    for (int i = 1; i <= 3; ++i) {
      pool.Submit([&order, i] { order.push_back(i); });
    }
    release.set_value();
  }  // the destructor drains the queue on the one worker
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexOnce) {
  ThreadPool pool(4);
  constexpr size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  for (auto& h : hits) h.store(0);
  pool.ParallelFor(kN, [&hits](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ParallelForHandlesEdgeSizes) {
  ThreadPool pool(4);
  pool.ParallelFor(0, [](size_t) { FAIL() << "body called for n = 0"; });

  std::atomic<size_t> sum{0};
  pool.ParallelFor(1, [&sum](size_t i) { sum.fetch_add(i + 1); });
  EXPECT_EQ(sum.load(), 1u);

  // n smaller than the worker count.
  sum.store(0);
  pool.ParallelFor(2, [&sum](size_t i) { sum.fetch_add(i + 1); });
  EXPECT_EQ(sum.load(), 3u);
}

TEST(ThreadPoolTest, ParallelForComputesCorrectSum) {
  ThreadPool pool(3);
  constexpr size_t kN = 4096;
  std::vector<uint64_t> values(kN, 0);
  pool.ParallelFor(kN, [&values](size_t i) { values[i] = i * i; });
  uint64_t expected = 0;
  for (size_t i = 0; i < kN; ++i) expected += i * i;
  EXPECT_EQ(std::accumulate(values.begin(), values.end(), uint64_t{0}),
            expected);
}

TEST(ThreadPoolTest, ParallelForIsSerializable) {
  // Repeated ParallelFor calls on the same pool must not interfere.
  ThreadPool pool(2);
  for (int round = 0; round < 20; ++round) {
    std::atomic<size_t> count{0};
    pool.ParallelFor(100, [&count](size_t) { count.fetch_add(1); });
    ASSERT_EQ(count.load(), 100u) << "round " << round;
  }
}

}  // namespace
}  // namespace hypermine
