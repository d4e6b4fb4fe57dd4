#include "api/engine.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <thread>
#include <vector>

#include "api/model.h"
#include "testing/process_threads.h"
#include "testing/random_serve.h"
#include "util/logging.h"

namespace hypermine::api {
namespace {

std::shared_ptr<const Model> RandomModel(size_t vertices, size_t edges,
                                         uint64_t seed) {
  return Model::FromGraph(testing::RandomServeGraph(vertices, edges, seed));
}

QueryRequest TopKRequest(std::vector<core::VertexId> items, size_t k) {
  QueryRequest request;
  request.items = std::move(items);
  request.k = k;
  return request;
}

TEST(ApiEngineTest, BatchMatchesDirectIndexLookups) {
  std::shared_ptr<const Model> model = RandomModel(40, 150, 17);
  EngineOptions options;
  options.num_threads = 4;
  Engine engine(model, options);
  EXPECT_EQ(engine.num_threads(), 4u);

  const std::vector<QueryRequest> requests = testing::RandomServeQueries(
      200, 40, 99, /*k=*/5, /*reach_every=*/7, /*reach_min_acv=*/0.5);

  // Four callers submit the same batch at once; their batches share the
  // engine's helpers and every answer must still match the index.
  std::vector<std::vector<StatusOr<QueryResponse>>> per_caller(4);
  std::vector<std::thread> callers;
  for (auto& responses : per_caller) {
    callers.emplace_back([&engine, &requests, &responses] {
      responses = engine.QueryBatch(requests);
    });
  }
  for (std::thread& caller : callers) caller.join();
  for (const auto& responses : per_caller) {
    ASSERT_EQ(responses.size(), requests.size());
    for (size_t i = 0; i < requests.size(); ++i) {
      ASSERT_TRUE(responses[i].ok()) << i;
      EXPECT_EQ(responses[i]->model_version, model->version()) << i;
      if (requests[i].kind == QueryRequest::Kind::kTopK) {
        EXPECT_EQ(responses[i]->ranked, model->index().TopKWithin(
                                            requests[i].items, requests[i].k))
            << i;
      } else {
        EXPECT_EQ(responses[i]->closure,
                  model->index().Reachable(requests[i].items,
                                           requests[i].min_acv))
            << i;
      }
    }
  }
}

TEST(ApiEngineTest, PerQueryStatusDoesNotFailTheBatch) {
  Engine engine(RandomModel(10, 20, 3));
  std::vector<QueryRequest> requests;
  requests.push_back(TopKRequest({1}, 5));       // fine
  requests.push_back(TopKRequest({}, 5));        // empty: invalid
  QueryRequest oversized;
  oversized.items.assign(kMaxQueryItems + 1, 0);  // too large: invalid
  requests.push_back(oversized);
  QueryRequest unknown_name;
  unknown_name.names = {"no-such-vertex"};       // unresolvable
  requests.push_back(unknown_name);
  QueryRequest nan_threshold = TopKRequest({1}, 5);
  nan_threshold.kind = QueryRequest::Kind::kReachable;
  nan_threshold.min_acv = std::nan("");          // would fire every rule
  requests.push_back(nan_threshold);
  QueryRequest at_cap;
  for (core::VertexId v = 0; v < kMaxQueryItems; ++v) {
    at_cap.items.push_back(v % 10);              // exactly the cap: fine
  }
  requests.push_back(at_cap);
  QueryRequest oversized_names;  // too large, even with an unknown name
  for (size_t i = 0; i < kMaxQueryItems; ++i) {
    oversized_names.names.push_back("v" + std::to_string(i % 10));
  }
  oversized_names.names.push_back("no-such-vertex");
  requests.push_back(oversized_names);

  std::vector<StatusOr<QueryResponse>> responses =
      engine.QueryBatch(requests);
  ASSERT_EQ(responses.size(), 7u);
  EXPECT_TRUE(responses[0].ok());
  EXPECT_EQ(responses[1].status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(responses[2].status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(responses[3].status().code(), StatusCode::kNotFound);
  EXPECT_EQ(responses[4].status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(responses[5].ok()) << responses[5].status().ToString();
  EXPECT_EQ(responses[6].status().code(), StatusCode::kInvalidArgument)
      << responses[6].status().ToString();
}

TEST(ApiEngineTest, NamesResolveAgainstTheLiveModel) {
  auto graph = core::DirectedHypergraph::Create({"alpha", "beta", "gamma"});
  ASSERT_TRUE(graph.ok());
  ASSERT_TRUE(graph->AddEdge({0}, 1, 0.9).ok());
  std::shared_ptr<const Model> model =
      Model::FromGraph(std::move(graph).value());
  Engine engine(model);

  QueryRequest request;
  request.names = {"alpha"};
  request.k = 5;
  auto response = engine.Query(request);
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response->ranked.size(), 1u);
  EXPECT_EQ(response->ranked[0].head, 1u);  // beta

  // Names win over ids when both are set.
  request.items = {2};
  auto named = engine.Query(request);
  ASSERT_TRUE(named.ok());
  EXPECT_EQ(named->ranked.size(), 1u);
}

TEST(ApiEngineTest, EmptyBatch) {
  Engine engine(RandomModel(10, 20, 3));
  EXPECT_TRUE(engine.QueryBatch({}).empty());
}

TEST(ApiEngineTest, CacheServesRepeatsWithinOneModelVersion) {
  EngineOptions options;
  options.cache_capacity = 64;
  std::shared_ptr<const Model> model = RandomModel(20, 60, 5);
  Engine engine(model, options);

  QueryRequest q = TopKRequest({3, 1}, 5);
  auto first = engine.Query(q);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->from_cache);
  auto second = engine.Query(q);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->from_cache);
  EXPECT_EQ(second->ranked, first->ranked);
  EXPECT_EQ(second->model_version, model->version());

  // Item order and duplicates canonicalize to the same cache entry.
  auto reordered = engine.Query(TopKRequest({1, 3, 3}, 5));
  ASSERT_TRUE(reordered.ok());
  EXPECT_TRUE(reordered->from_cache);

  // Kind, k and min_acv are part of the key: each variant misses once,
  // then hits.
  QueryRequest other_k = TopKRequest({1, 3}, 3);
  QueryRequest reach = q;
  reach.kind = QueryRequest::Kind::kReachable;
  QueryRequest reach_high = reach;
  reach_high.min_acv = 0.9;
  for (bool repeat : {false, true}) {
    for (const QueryRequest* variant : {&other_k, &reach, &reach_high}) {
      auto response = engine.Query(*variant);
      ASSERT_TRUE(response.ok());
      EXPECT_EQ(response->from_cache, repeat);
    }
  }

  CacheStats stats = engine.cache_stats();
  EXPECT_EQ(stats.hits, 5u);
  EXPECT_EQ(stats.misses, 4u);
}

TEST(ApiEngineTest, LruEvictsLeastRecentlyUsed) {
  EngineOptions options;
  options.num_threads = 1;
  options.cache_capacity = 2;
  Engine engine(RandomModel(20, 60, 5), options);

  const QueryRequest a = TopKRequest({1}, 5);
  const QueryRequest b = TopKRequest({2}, 5);
  const QueryRequest c = TopKRequest({3}, 5);
  ASSERT_TRUE(engine.Query(a).ok());
  ASSERT_TRUE(engine.Query(b).ok());
  // Refreshing a leaves b least recent, so c evicts b, not a.
  ASSERT_TRUE(engine.Query(a)->from_cache);
  ASSERT_FALSE(engine.Query(c)->from_cache);
  EXPECT_TRUE(engine.Query(a)->from_cache);
  EXPECT_FALSE(engine.Query(b)->from_cache);  // evicts c
  EXPECT_EQ(engine.cache_stats().evictions, 2u);
}

TEST(ApiEngineTest, SwapInvalidatesCacheCoherently) {
  EngineOptions options;
  options.cache_capacity = 64;
  std::shared_ptr<const Model> a = RandomModel(20, 60, 5);
  std::shared_ptr<const Model> b = RandomModel(20, 60, 6);
  Engine engine(a, options);

  QueryRequest q = TopKRequest({3}, 5);
  auto warm = engine.Query(q);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm->model_version, a->version());
  ASSERT_TRUE(engine.Query(q)->from_cache);

  engine.Swap(b);
  EXPECT_EQ(engine.model()->version(), b->version());
  // The a-keyed entry must not answer for b: first post-swap query is a
  // miss computed against b...
  auto post = engine.Query(q);
  ASSERT_TRUE(post.ok());
  EXPECT_FALSE(post->from_cache);
  EXPECT_EQ(post->model_version, b->version());
  EXPECT_EQ(post->ranked, b->index().TopKWithin(q.items, q.k));
  // ...and the repeat is a hit against b's entry.
  auto repeat = engine.Query(q);
  ASSERT_TRUE(repeat.ok());
  EXPECT_TRUE(repeat->from_cache);
  EXPECT_EQ(repeat->model_version, b->version());
}

using hypermine::testing::ProcessThreads;

TEST(ApiEngineTest, EngineStartsOnlyItsHelpers) {
  // The caller answers its own batch, so N threads take N - 1 helpers,
  // and a one-thread engine (hypermine_serve's default) starts none.
  if (ProcessThreads() == 0) {
    GTEST_SKIP() << "/proc/self/task cannot be read";
  }
  std::shared_ptr<const Model> model = RandomModel(30, 120, 11);
  std::vector<QueryRequest> requests;
  for (core::VertexId v = 0; v < 30; ++v) {
    requests.push_back(TopKRequest({v}, 4));
  }
  for (size_t threads : {size_t{1}, size_t{3}}) {
    EngineOptions options;
    options.num_threads = threads;
    const size_t before = ProcessThreads();
    Engine engine(model, options);
    EXPECT_EQ(ProcessThreads(), before + threads - 1)
        << "num_threads = " << threads;
    EXPECT_EQ(engine.num_threads(), threads);

    std::vector<StatusOr<QueryResponse>> responses =
        engine.QueryBatch(requests);
    ASSERT_EQ(responses.size(), requests.size());
    for (size_t i = 0; i < requests.size(); ++i) {
      ASSERT_TRUE(responses[i].ok());
      EXPECT_EQ(responses[i]->ranked,
                model->index().TopKWithin(requests[i].items, 4))
          << "num_threads = " << threads << ", query " << i;
    }
  }
}

}  // namespace
}  // namespace hypermine::api
