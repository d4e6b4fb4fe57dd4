// The engine's result cache: one exact LRU over all of cache_capacity
// under one lock. Capacity 0 caches nothing, what leaves the cache is
// what eviction turned away, a hot swap purges every entry (no stale
// model_version can ever be served), and threads hammering disjoint keys
// get exact accounting (this test is part of the CI TSan matrix — the
// absence of data-race reports under load is the point, not just the
// counter math). The file keeps the name it had when the cache was split
// into shards.
#include "api/engine.h"

#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "api/model.h"
#include "testing/random_serve.h"

namespace hypermine::api {
namespace {

std::shared_ptr<const Model> RandomModel(size_t vertices, size_t edges,
                                         uint64_t seed) {
  return Model::FromGraph(testing::RandomServeGraph(vertices, edges, seed));
}

/// Distinct single-item top-k queries make distinct cache keys: the key is
/// (version, kind, k, min_acv, items), so varying the item or k varies it.
QueryRequest ItemQuery(core::VertexId item, size_t k = 5) {
  QueryRequest request;
  request.items = {item};
  request.k = k;
  return request;
}

TEST(EngineCacheTest, ZeroCapacityCachesAndCountsNothing) {
  EngineOptions options;
  options.cache_capacity = 0;
  Engine engine(RandomModel(16, 40, 7), options);
  auto response = engine.Query(ItemQuery(0));
  ASSERT_TRUE(response.ok());
  EXPECT_FALSE(response->from_cache);
  auto again = engine.Query(ItemQuery(0));
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(again->from_cache) << "nothing may be cached";
  EXPECT_EQ(again->ranked, response->ranked);
  const CacheStats stats = engine.cache_stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(engine.cache_entries(), 0u);
}

TEST(EngineCacheTest, EvictionsAreTheMissesTheCapacityTurnedAway) {
  std::shared_ptr<const Model> model = RandomModel(40, 120, 13);
  EngineOptions options;
  options.cache_capacity = 8;
  options.num_threads = 1;
  Engine engine(model, options);

  for (core::VertexId v = 0; v < 40; ++v) {
    ASSERT_TRUE(engine.Query(ItemQuery(v)).ok());
  }
  // One LRU over the whole capacity ends full, and every miss is
  // admitted, so what is gone is what was evicted.
  EXPECT_EQ(engine.cache_entries(), 8u);
  const CacheStats stats = engine.cache_stats();
  EXPECT_EQ(stats.misses, 40u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.evictions, stats.misses - engine.cache_entries());
}

TEST(EngineCacheTest, HotSwapPurgesEveryEntry) {
  const size_t kVertices = 48;
  std::shared_ptr<const Model> a = RandomModel(kVertices, 160, 21);
  std::shared_ptr<const Model> b = RandomModel(kVertices, 160, 22);
  ASSERT_NE(a->version(), b->version());

  EngineOptions options;
  options.cache_capacity = 256;
  options.num_threads = 1;
  Engine engine(a, options);

  for (core::VertexId v = 0; v < kVertices; ++v) {
    auto response = engine.Query(ItemQuery(v));
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response->model_version, a->version());
  }
  ASSERT_EQ(engine.cache_entries(), kVertices);

  engine.Swap(b);
  // The purge is eager: no entry of the dead version outlives Swap.
  EXPECT_EQ(engine.cache_entries(), 0u)
      << "an entry of the old model survived the swap";

  // And no stale answer is served: every re-query misses and carries the
  // new model's version.
  for (core::VertexId v = 0; v < kVertices; ++v) {
    auto response = engine.Query(ItemQuery(v));
    ASSERT_TRUE(response.ok());
    EXPECT_FALSE(response->from_cache) << "stale model_version served";
    EXPECT_EQ(response->model_version, b->version());
  }
  // The new entries cache normally.
  auto warm = engine.Query(ItemQuery(0));
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->from_cache);
  EXPECT_EQ(warm->model_version, b->version());
}

TEST(EngineCacheTest, DefaultCacheKeepsEveryAnswerFromEightThreads) {
  // Eight threads own disjoint keys and fill a default engine to its
  // capacity of 4,096 at once, then replay their keys in order. Exact LRU
  // over the whole capacity keeps every answer, so each first pass
  // misses, each replay hits and nothing is evicted. The threads all go
  // through the one cache lock, which keeps a cross-thread cache hammer
  // in CI's TSan scope.
  constexpr size_t kThreads = 8;
  constexpr core::VertexId kVertices = 64;
  constexpr size_t kMaxK = 64;
  const size_t capacity = EngineOptions{}.cache_capacity;
  ASSERT_EQ(capacity, kVertices * kMaxK);
  std::shared_ptr<const Model> model = RandomModel(kVertices, 300, 31);
  Engine engine(model);

  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&engine, t] {
      // Thread t asks about its own vertices, each with every k: the key
      // holds both, so no two threads share a key.
      const core::VertexId begin = t * (kVertices / kThreads);
      for (int pass = 0; pass < 2; ++pass) {
        for (core::VertexId v = begin; v < begin + kVertices / kThreads;
             ++v) {
          for (size_t k = 1; k <= kMaxK; ++k) {
            auto response = engine.Query(ItemQuery(v, k));
            ASSERT_TRUE(response.ok());
            ASSERT_EQ(response->from_cache, pass == 1)
                << "thread " << t << " item " << v << " k " << k;
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  const CacheStats stats = engine.cache_stats();
  EXPECT_EQ(stats.misses, capacity);
  EXPECT_EQ(stats.hits, capacity);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(engine.cache_entries(), capacity);
}

}  // namespace
}  // namespace hypermine::api
