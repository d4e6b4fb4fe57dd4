// Differential oracle for serve::RuleIndex: every answer of TopK,
// TopKWithin and Reachable on seeded random graphs must equal a naive
// computation made straight from DirectedHypergraph::edges() — a full
// edge scan for the top-k queries and a fixpoint B-closure for
// reachability. The graphs mix tails of size 1, 2 and 3, and one of them
// has more than 65,536 vertices so ids above 0xFFFE take part.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "api/engine.h"
#include "core/hypergraph.h"
#include "serve/rule_index.h"
#include "testing/scan_oracle.h"
#include "util/logging.h"
#include "util/rng.h"

namespace hypermine::serve {
namespace {

using core::DirectedHypergraph;
using core::Hyperedge;
using core::VertexId;
using hypermine::testing::FixpointClosure;
using hypermine::testing::ScanTopKWithin;

struct GraphShape {
  const char* name;
  uint64_t seed;
  size_t num_vertices;
  /// Vertices that edges are drawn from; small pools give dense graphs
  /// whose closures reach tails of size 3.
  size_t pool_size;
  size_t num_edges;
};

/// Weights come from a short list so ties — between consequents, and
/// between a weight and min_acv — occur often.
constexpr double kWeights[] = {0.0,  0.125, 0.25, 0.375, 0.5,
                               0.5,  0.625, 0.75, 0.875, 1.0};

struct Fixture {
  DirectedHypergraph graph;
  std::vector<VertexId> pool;
};

Fixture MakeGraph(const GraphShape& shape) {
  Rng rng(shape.seed);
  // The pool spans both ends of the id range, so on the wide graph about
  // half its vertices sit above 0xFFFE.
  std::set<VertexId> pool_set;
  while (pool_set.size() < shape.pool_size) {
    const bool high = rng.NextBernoulli(0.5);
    const size_t span = std::min<size_t>(shape.num_vertices, 1024);
    const size_t offset = rng.NextBounded(span);
    pool_set.insert(static_cast<VertexId>(
        high ? shape.num_vertices - 1 - offset : offset));
  }
  std::vector<VertexId> pool(pool_set.begin(), pool_set.end());

  auto created = DirectedHypergraph::CreateAnonymous(shape.num_vertices);
  HM_CHECK_OK(created.status());
  DirectedHypergraph graph = std::move(created).value();
  for (size_t attempt = 0; graph.num_edges() < shape.num_edges; ++attempt) {
    HM_CHECK_LT(attempt, 50 * shape.num_edges);  // graph too dense to fill
    const double roll = rng.NextDouble();
    const size_t tail_size = roll < 0.4 ? 1 : (roll < 0.8 ? 2 : 3);
    std::vector<size_t> picks = rng.SampleIndices(pool.size(), tail_size + 1);
    std::vector<VertexId> tail;
    for (size_t i = 0; i < tail_size; ++i) tail.push_back(pool[picks[i]]);
    const VertexId head = pool[picks[tail_size]];
    const double weight = kWeights[rng.NextBounded(std::size(kWeights))];
    auto added = graph.AddEdge(tail, head, weight);
    if (!added.ok()) {
      // Only a repeated (T, H) pair may be refused.
      HM_CHECK(added.status().code() == StatusCode::kAlreadyExists);
    }
  }
  return {std::move(graph), std::move(pool)};
}

// --- Oracles (the other two live in testing/scan_oracle.h) ----------------

bool HasDuplicates(std::vector<VertexId> ids) {
  std::sort(ids.begin(), ids.end());
  return std::adjacent_find(ids.begin(), ids.end()) != ids.end();
}

std::vector<RankedConsequent> ScanTopK(const DirectedHypergraph& graph,
                                       const std::vector<VertexId>& tail,
                                       size_t k) {
  std::vector<RankedConsequent> out;
  if (tail.empty() || tail.size() > core::kMaxTailSize ||
      HasDuplicates(tail)) {
    return out;
  }
  const std::set<VertexId> wanted(tail.begin(), tail.end());
  for (core::EdgeId id = 0; id < graph.num_edges(); ++id) {
    const Hyperedge& e = graph.edges()[id];
    const std::set<VertexId> have(e.TailSpan().begin(), e.TailSpan().end());
    if (have == wanted) out.push_back({e.head, e.weight, id});
  }
  std::sort(out.begin(), out.end(),
            [](const RankedConsequent& a, const RankedConsequent& b) {
              if (a.acv != b.acv) return a.acv > b.acv;
              return a.head < b.head;
            });
  if (out.size() > k) out.resize(k);
  return out;
}

// --- Inputs ---------------------------------------------------------------

/// Ids no edge can use: just past the graph, the kMaxVertices bound and
/// the kNoVertex sentinel.
std::vector<VertexId> OutOfRange(const DirectedHypergraph& graph) {
  const auto n = static_cast<VertexId>(graph.num_vertices());
  return {n, n + 7, static_cast<VertexId>(core::kMaxVertices),
          core::kNoVertex};
}

/// 0..max_size ids: mostly pool vertices, sometimes a repeat of an
/// earlier pick or an out-of-range id.
std::vector<VertexId> DrawItems(Rng& rng, const Fixture& fx,
                                size_t max_size) {
  const std::vector<VertexId> bad = OutOfRange(fx.graph);
  std::vector<VertexId> items;
  const size_t size = rng.NextBounded(max_size + 1);
  for (size_t i = 0; i < size; ++i) {
    const double roll = rng.NextDouble();
    if (roll < 0.1 && !items.empty()) {
      items.push_back(items[rng.NextBounded(items.size())]);
    } else if (roll < 0.15) {
      items.push_back(bad[rng.NextBounded(bad.size())]);
    } else {
      items.push_back(fx.pool[rng.NextBounded(fx.pool.size())]);
    }
  }
  return items;
}

/// The tail of a random edge, shuffled, so exact-tail lookups hit.
std::vector<VertexId> EdgeTail(Rng& rng, const DirectedHypergraph& graph) {
  const Hyperedge& e = graph.edges()[rng.NextBounded(graph.num_edges())];
  std::vector<VertexId> tail(e.TailSpan().begin(), e.TailSpan().end());
  rng.Shuffle(&tail);
  return tail;
}

/// min_acv 0, exactly at some edge's weight, above every weight, and the
/// infinities.
std::vector<double> Thresholds(Rng& rng, const DirectedHypergraph& graph) {
  const double at_edge =
      graph.edges()[rng.NextBounded(graph.num_edges())].weight;
  return {0.0,
          at_edge,
          std::nextafter(1.0, 2.0),
          -std::numeric_limits<double>::infinity(),
          std::numeric_limits<double>::infinity()};
}

std::string Show(const std::vector<VertexId>& ids) {
  std::string out = "{";
  for (VertexId v : ids) out += " " + std::to_string(v);
  return out + " }";
}

// --- Tests ----------------------------------------------------------------

class RuleIndexOracleTest : public ::testing::TestWithParam<GraphShape> {};

TEST_P(RuleIndexOracleTest, TopKMatchesFullEdgeScan) {
  const GraphShape& shape = GetParam();
  const Fixture fx = MakeGraph(shape);
  const RuleIndex index = RuleIndex::Build(fx.graph);
  Rng rng(shape.seed ^ 0x70b4);
  for (int q = 0; q < 300; ++q) {
    std::vector<VertexId> tail =
        q % 2 == 0 ? EdgeTail(rng, fx.graph) : DrawItems(rng, fx, 4);
    for (size_t k : {size_t{0}, size_t{1}, size_t{3}, size_t{1000}}) {
      EXPECT_EQ(index.TopK(tail, k), ScanTopK(fx.graph, tail, k))
          << shape.name << " tail " << Show(tail) << " k=" << k;
    }
  }
}

/// Checks one TopKWithin answer against the full edge scan: the same
/// (head, ACV) list, and per head the witness edge TopKWithin documents,
/// the smallest id among the edges that give the head its ACV from a tail
/// inside the items.
void ExpectTopKWithinMatchesScan(const GraphShape& shape, const Fixture& fx,
                                 const RuleIndex& index,
                                 const std::vector<VertexId>& items,
                                 size_t k) {
  const std::set<VertexId> have(items.begin(), items.end());
  const std::vector<RankedConsequent> got = index.TopKWithin(items, k);
  std::vector<std::pair<VertexId, double>> heads;
  for (const RankedConsequent& r : got) {
    heads.emplace_back(r.head, r.acv);
    core::EdgeId witness = fx.graph.num_edges();
    for (core::EdgeId id = 0; id < fx.graph.num_edges(); ++id) {
      const Hyperedge& e = fx.graph.edges()[id];
      bool inside = true;
      for (VertexId v : e.TailSpan()) inside = inside && have.count(v) > 0;
      if (inside && e.head == r.head && e.weight == r.acv) {
        witness = id;
        break;
      }
    }
    EXPECT_EQ(r.edge, witness)
        << shape.name << " items " << Show(items) << " head " << r.head;
  }
  EXPECT_EQ(heads, ScanTopKWithin(fx.graph, items, k))
      << shape.name << " items " << Show(items) << " k=" << k;
}

TEST_P(RuleIndexOracleTest, TopKWithinMatchesFullEdgeScan) {
  const GraphShape& shape = GetParam();
  const Fixture fx = MakeGraph(shape);
  const RuleIndex index = RuleIndex::Build(fx.graph);
  Rng rng(shape.seed ^ 0x3147);
  for (int q = 0; q < 300; ++q) {
    const std::vector<VertexId> items = DrawItems(rng, fx, 7);
    for (size_t k : {size_t{0}, size_t{1}, size_t{5}, size_t{1000}}) {
      ExpectTopKWithinMatchesScan(shape, fx, index, items, k);
    }
  }
}

// Item sets up to the engine's cap: up to C(64, 3) subsets, so on the
// denser shapes the merge runs over many slices at once.
TEST_P(RuleIndexOracleTest, TopKWithinMatchesFullEdgeScanUpToMaxQueryItems) {
  const GraphShape& shape = GetParam();
  const Fixture fx = MakeGraph(shape);
  const RuleIndex index = RuleIndex::Build(fx.graph);
  Rng rng(shape.seed ^ 0x6464);
  for (int q = 0; q < 30; ++q) {
    const std::vector<VertexId> items =
        DrawItems(rng, fx, api::kMaxQueryItems);
    for (size_t k : {size_t{1}, size_t{5}, size_t{40},
                     std::numeric_limits<size_t>::max()}) {
      ExpectTopKWithinMatchesScan(shape, fx, index, items, k);
    }
  }
}

TEST_P(RuleIndexOracleTest, ReachableMatchesFixpointClosure) {
  const GraphShape& shape = GetParam();
  const Fixture fx = MakeGraph(shape);
  const RuleIndex index = RuleIndex::Build(fx.graph);
  Rng rng(shape.seed ^ 0x12ea);
  size_t grown = 0;
  size_t whole = 0;
  for (int q = 0; q < 150; ++q) {
    const std::vector<VertexId> seeds = DrawItems(rng, fx, 4);
    for (double min_acv : Thresholds(rng, fx.graph)) {
      const std::vector<VertexId> want =
          FixpointClosure(fx.graph, seeds, min_acv);
      EXPECT_EQ(index.Reachable(seeds, min_acv), want)
          << shape.name << " seeds " << Show(seeds)
          << " min_acv=" << min_acv;
      std::set<VertexId> seed_set(seeds.begin(), seeds.end());
      if (want.size() > seed_set.size()) ++grown;
      if (want.size() == fx.graph.num_vertices()) ++whole;
    }
  }
  // The inputs must exercise firing, not only the trivial closures.
  EXPECT_GT(grown, 50u) << shape.name;
  // Reachable stops once every vertex is in; the dense shape must take
  // that exit.
  if (std::string(shape.name) == "tiny_dense") {
    EXPECT_GT(whole, 0u) << shape.name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeededGraphs, RuleIndexOracleTest,
    ::testing::Values(
        GraphShape{"tiny_dense", 11, 6, 6, 40},
        GraphShape{"small", 23, 24, 24, 200},
        GraphShape{"medium", 37, 80, 60, 900},
        GraphShape{"sparse", 41, 400, 300, 700},
        // More than 65,536 vertices: pool ids reach 0x1116F.
        GraphShape{"wide_ids", 53, 70000, 120, 1200}),
    [](const ::testing::TestParamInfo<GraphShape>& param_info) {
      return std::string(param_info.param.name);
    });

}  // namespace
}  // namespace hypermine::serve
