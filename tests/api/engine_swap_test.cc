// Hot-swap safety under concurrency: QueryBatch callers race Engine::Swap
// and every response must be internally consistent — the (model_version,
// answer) pair always matches one single model, batches are never torn
// across a swap, post-swap queries see only the new model, and the cache
// never serves one model's entries as another's. Assertions are collected
// in atomics and checked after joining, so the test is TSan-friendly
// (no cross-thread gtest state) and any data race in the engine is
// TSan-visible through the normal query path.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "api/engine.h"
#include "api/model.h"
#include "util/logging.h"

namespace hypermine::api {
namespace {

/// A model whose single rule {0} -> `head` marks it unambiguously: any
/// answer reveals which model produced it.
std::shared_ptr<const Model> MarkedModel(core::VertexId head) {
  auto graph = core::DirectedHypergraph::CreateAnonymous(4);
  HM_CHECK_OK(graph.status());
  HM_CHECK_OK(graph->AddEdge({0}, head, 0.9).status());
  ModelSpec spec;
  spec.provenance.note = "marker head " + std::to_string(head);
  return Model::FromGraph(std::move(graph).value(), spec);
}

TEST(EngineSwapTest, ConcurrentBatchesRacingSwapStayConsistent) {
  std::shared_ptr<const Model> a = MarkedModel(1);
  std::shared_ptr<const Model> b = MarkedModel(2);
  const uint64_t va = a->version();
  const uint64_t vb = b->version();

  EngineOptions options;
  options.num_threads = 4;
  options.cache_capacity = 128;
  Engine engine(a, options);

  constexpr size_t kCallers = 4;
  constexpr size_t kBatchSize = 16;
  std::atomic<bool> stop{false};
  std::atomic<bool> swapped{false};
  // Callers that finished a batch they started after the first swap.
  std::atomic<size_t> raced{0};
  std::atomic<uint64_t> answered{0};
  std::atomic<uint64_t> errors{0};          // non-OK responses (must be 0)
  std::atomic<uint64_t> inconsistent{0};    // version/answer mismatch
  std::atomic<uint64_t> torn_batches{0};    // mixed versions in one batch

  std::vector<std::thread> callers;
  for (size_t t = 0; t < kCallers; ++t) {
    callers.emplace_back([&] {
      QueryRequest q;
      q.items = {0};
      q.k = 3;
      std::vector<QueryRequest> batch(kBatchSize, q);
      bool counted = false;
      while (!stop.load(std::memory_order_relaxed)) {
        const bool after_swap = swapped.load();
        std::vector<StatusOr<QueryResponse>> responses =
            engine.QueryBatch(batch);
        if (after_swap && !counted) {
          counted = true;
          raced.fetch_add(1);
        }
        uint64_t batch_version = 0;
        for (const auto& response : responses) {
          if (!response.ok()) {
            errors.fetch_add(1);
            continue;
          }
          answered.fetch_add(1);
          const uint64_t version = response->model_version;
          const bool single_answer = response->ranked.size() == 1;
          const core::VertexId head =
              single_answer ? response->ranked[0].head : core::kNoVertex;
          // The answer must identify the same model as the version does.
          const bool consistent =
              (version == va && single_answer && head == 1) ||
              (version == vb && single_answer && head == 2);
          if (!consistent) inconsistent.fetch_add(1);
          if (batch_version == 0) {
            batch_version = version;
          } else if (batch_version != version) {
            torn_batches.fetch_add(1);
          }
        }
      }
    });
  }

  // Hammer swaps while the callers run: at least 400, and on until every
  // caller has finished a batch that raced them (on a loaded host 400
  // swaps can all land before any caller completes one).
  for (int i = 0; i < 400 || raced.load() < kCallers; ++i) {
    engine.Swap(i % 2 == 0 ? b : a);
    swapped.store(true);
    std::this_thread::yield();
  }
  stop.store(true);
  for (std::thread& caller : callers) caller.join();

  EXPECT_GT(answered.load(), 0u);
  EXPECT_EQ(errors.load(), 0u);
  EXPECT_EQ(inconsistent.load(), 0u) << "stale cache or torn model read";
  EXPECT_EQ(torn_batches.load(), 0u)
      << "one batch answered by two different models";
}

TEST(EngineSwapTest, PostSwapQueriesSeeOnlyTheNewModel) {
  std::shared_ptr<const Model> a = MarkedModel(1);
  std::shared_ptr<const Model> b = MarkedModel(2);
  EngineOptions options;
  options.cache_capacity = 64;
  Engine engine(a, options);

  QueryRequest q;
  q.items = {0};
  q.k = 3;
  // Warm a's cache entry, then swap. Every subsequent query — including
  // the one that would have hit a's cached entry — must answer from b.
  ASSERT_TRUE(engine.Query(q).ok());
  ASSERT_TRUE(engine.Query(q)->from_cache);
  engine.Swap(b);
  for (int i = 0; i < 3; ++i) {
    auto response = engine.Query(q);
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response->model_version, b->version());
    ASSERT_EQ(response->ranked.size(), 1u);
    EXPECT_EQ(response->ranked[0].head, 2u);
    EXPECT_EQ(response->from_cache, i > 0);
  }
  // Swapping back: a is immutable, so its answers are valid again, and
  // its purged cache entries must have been purged (miss, then hit).
  engine.Swap(a);
  auto back = engine.Query(q);
  ASSERT_TRUE(back.ok());
  EXPECT_FALSE(back->from_cache);
  EXPECT_EQ(back->model_version, a->version());
  ASSERT_EQ(back->ranked.size(), 1u);
  EXPECT_EQ(back->ranked[0].head, 1u);
}

TEST(EngineSwapTest, InFlightBatchesFinishOnTheirModel) {
  // A batch acquired model a; swapping mid-batch must not redirect its
  // remaining queries. With a single worker thread the batch is processed
  // sequentially, so swapping from the main thread while the batch runs
  // is a real interleaving, and the all-same-version invariant is exact.
  std::shared_ptr<const Model> a = MarkedModel(1);
  std::shared_ptr<const Model> b = MarkedModel(2);
  EngineOptions options;
  options.num_threads = 1;
  options.cache_capacity = 0;
  Engine engine(a, options);

  QueryRequest q;
  q.items = {0};
  q.k = 3;
  std::vector<QueryRequest> batch(64, q);
  std::thread swapper([&] {
    for (int i = 0; i < 100; ++i) engine.Swap(i % 2 == 0 ? b : a);
  });
  for (int round = 0; round < 20; ++round) {
    std::vector<StatusOr<QueryResponse>> responses =
        engine.QueryBatch(batch);
    ASSERT_EQ(responses.size(), batch.size());
    const uint64_t version = (*responses[0]).model_version;
    for (const auto& response : responses) {
      ASSERT_TRUE(response.ok());
      EXPECT_EQ(response->model_version, version);
      EXPECT_EQ(response->ranked[0].head, version == a->version() ? 1u : 2u);
    }
  }
  swapper.join();
}

}  // namespace
}  // namespace hypermine::api
