#ifndef HYPERMINE_TESTS_TESTING_RANDOM_SERVE_H_
#define HYPERMINE_TESTS_TESTING_RANDOM_SERVE_H_

#include <vector>

#include "api/engine.h"
#include "core/hypergraph.h"
#include "util/logging.h"
#include "util/rng.h"

namespace hypermine::testing {

/// Deterministic random association graph for the serving tests:
/// `edges` distinct single/pair-tail hyperedges (pair with probability
/// `pair_prob`) over `vertices` vertices with uniform weights.
inline core::DirectedHypergraph RandomServeGraph(size_t vertices,
                                                 size_t edges, uint64_t seed,
                                                 double pair_prob = 0.4) {
  auto graph = core::DirectedHypergraph::CreateAnonymous(vertices);
  HM_CHECK_OK(graph.status());
  Rng rng(seed);
  size_t added = 0;
  while (added < edges) {
    core::VertexId head =
        static_cast<core::VertexId>(rng.NextBounded(vertices));
    std::vector<core::VertexId> tail;
    tail.push_back(static_cast<core::VertexId>(rng.NextBounded(vertices)));
    if (rng.NextBernoulli(pair_prob)) {
      tail.push_back(static_cast<core::VertexId>(rng.NextBounded(vertices)));
    }
    if (graph->AddEdge(tail, head, rng.NextDouble()).ok()) ++added;
  }
  return std::move(graph).value();
}

/// Deterministic query mix: 1-3 random items each, every `reach_every`-th
/// query a forward-closure query at `reach_min_acv`, the rest top-k.
inline std::vector<api::QueryRequest> RandomServeQueries(
    size_t n, size_t vertices, uint64_t seed, size_t k, size_t reach_every,
    double reach_min_acv) {
  Rng rng(seed);
  std::vector<api::QueryRequest> queries;
  queries.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    api::QueryRequest q;
    size_t items = 1 + rng.NextBounded(3);
    for (size_t j = 0; j < items; ++j) {
      q.items.push_back(
          static_cast<core::VertexId>(rng.NextBounded(vertices)));
    }
    q.k = k;
    if (reach_every > 0 && i % reach_every == 0) {
      q.kind = api::QueryRequest::Kind::kReachable;
      q.min_acv = reach_min_acv;
    }
    queries.push_back(std::move(q));
  }
  return queries;
}

}  // namespace hypermine::testing

#endif  // HYPERMINE_TESTS_TESTING_RANDOM_SERVE_H_
