#include "core/hypergraph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <random>
#include <set>

#include "util/logging.h"

namespace hypermine::core {
namespace {

DirectedHypergraph SmallGraph() {
  auto graph = DirectedHypergraph::CreateAnonymous(6);
  HM_CHECK_OK(graph.status());
  return std::move(graph).value();
}

TEST(HypergraphTest, CreateValidations) {
  EXPECT_FALSE(DirectedHypergraph::Create({}).ok());
  EXPECT_TRUE(DirectedHypergraph::Create({"A"}).ok());
  auto named = DirectedHypergraph::Create({"XOM", "CVX"});
  ASSERT_TRUE(named.ok());
  EXPECT_EQ(named->vertex_name(1), "CVX");
}

TEST(HypergraphTest, AddEdgeValidations) {
  DirectedHypergraph g = SmallGraph();
  EXPECT_FALSE(g.AddEdge({}, 0, 0.5).ok());                // empty tail
  EXPECT_FALSE(g.AddEdge({1, 2, 3, 4}, 0, 0.5).ok());      // |T| > 3
  EXPECT_FALSE(g.AddEdge({1}, 9, 0.5).ok());               // head range
  EXPECT_FALSE(g.AddEdge({9}, 0, 0.5).ok());               // tail range
  EXPECT_FALSE(g.AddEdge({0}, 0, 0.5).ok());               // T ∩ H ≠ ∅
  EXPECT_FALSE(g.AddEdge({1, 1}, 0, 0.5).ok());            // repeated tail
  EXPECT_FALSE(g.AddEdge({1}, 0, 1.5).ok());               // weight range
  EXPECT_FALSE(g.AddEdge({1}, 0, -0.1).ok());
  EXPECT_FALSE(g.AddEdge({1}, 0, std::nan("")).ok());
  EXPECT_TRUE(g.AddEdge({1}, 0, 0.5).ok());
  // Duplicate combination rejected, in any tail order.
  EXPECT_TRUE(g.AddEdge({1, 2}, 0, 0.5).ok());
  auto dup = g.AddEdge({2, 1}, 0, 0.9);
  EXPECT_FALSE(dup.ok());
  EXPECT_EQ(dup.status().code(), StatusCode::kAlreadyExists);
}

TEST(HypergraphTest, TailSizeAndSpan) {
  DirectedHypergraph g = SmallGraph();
  EdgeId e1 = g.AddEdge({1}, 0, 0.4).value();
  EdgeId e2 = g.AddEdge({2, 1}, 0, 0.5).value();
  EdgeId e3 = g.AddEdge({3, 1, 2}, 0, 0.6).value();
  EXPECT_EQ(g.edge(e1).tail_size(), 1u);
  EXPECT_EQ(g.edge(e2).tail_size(), 2u);
  EXPECT_TRUE(g.edge(e2).is_pair());
  EXPECT_EQ(g.edge(e3).tail_size(), 3u);
  // Tail is stored sorted.
  EXPECT_EQ(g.edge(e3).tail[0], 1u);
  EXPECT_EQ(g.edge(e3).tail[2], 3u);
  EXPECT_TRUE(g.edge(e3).TailContains(2));
  EXPECT_FALSE(g.edge(e3).TailContains(4));
}

TEST(HypergraphTest, InOutIncidence) {
  DirectedHypergraph g = SmallGraph();
  EdgeId a = g.AddEdge({1}, 0, 0.4).value();
  EdgeId b = g.AddEdge({1, 2}, 0, 0.5).value();
  EdgeId c = g.AddEdge({0}, 1, 0.6).value();
  EXPECT_EQ(g.InEdgeIds(0), (std::vector<EdgeId>{a, b}));
  EXPECT_EQ(g.InEdgeIds(1), (std::vector<EdgeId>{c}));
  EXPECT_EQ(g.OutEdgeIds(1), (std::vector<EdgeId>{a, b}));
  EXPECT_EQ(g.OutEdgeIds(2), (std::vector<EdgeId>{b}));
  EXPECT_EQ(g.OutEdgeIds(0), (std::vector<EdgeId>{c}));
  EXPECT_TRUE(g.InEdgeIds(5).empty());
}

TEST(HypergraphTest, FindEdgeIgnoresTailOrder) {
  DirectedHypergraph g = SmallGraph();
  EdgeId id = g.AddEdge({3, 1}, 0, 0.7).value();
  std::vector<VertexId> query = {3, 1};
  auto found = g.FindEdge(query, 0);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(*found, id);
  std::vector<VertexId> sorted_query = {1, 3};
  EXPECT_EQ(*g.FindEdge(sorted_query, 0), id);
  std::vector<VertexId> other = {1, 2};
  EXPECT_FALSE(g.FindEdge(other, 0).has_value());
  EXPECT_FALSE(g.FindEdge(sorted_query, 4).has_value());
}

/// (sorted tail padded with kNoVertex, head): the oracle's edge key.
using Combo = std::array<VertexId, kMaxTailSize + 1>;

Combo MakeCombo(std::vector<VertexId> tail, VertexId head) {
  std::sort(tail.begin(), tail.end());
  Combo combo = {kNoVertex, kNoVertex, kNoVertex, head};
  std::copy(tail.begin(), tail.end(), combo.begin());
  return combo;
}

/// Checks `g` against the oracle: edge i is (tails[i], heads[i]), and
/// `present` holds exactly those combinations out of `universe`.
void ExpectMatchesOracle(DirectedHypergraph& g,
                         const std::vector<std::vector<VertexId>>& tails,
                         const std::vector<VertexId>& heads,
                         const std::set<Combo>& present,
                         const std::vector<Combo>& universe) {
  ASSERT_EQ(g.num_edges(), tails.size());
  for (EdgeId id = 0; id < tails.size(); ++id) {
    std::vector<VertexId> tail = tails[id];
    std::sort(tail.begin(), tail.end());
    do {
      ASSERT_EQ(g.FindEdge(tail, heads[id]), std::optional<EdgeId>(id))
          << g.EdgeToString(id);
    } while (std::next_permutation(tail.begin(), tail.end()));
  }
  for (const Combo& combo : universe) {
    if (present.count(combo) > 0) continue;
    const size_t size = std::find(combo.begin(), combo.begin() + kMaxTailSize,
                                  kNoVertex) -
                        combo.begin();
    ASSERT_FALSE(
        g.FindEdge({combo.data(), size}, combo[kMaxTailSize]).has_value())
        << "absent combination found, head " << combo[kMaxTailSize];
  }
  for (EdgeId id = 0; id < tails.size(); ++id) {
    std::vector<VertexId> reversed(tails[id].rbegin(), tails[id].rend());
    auto again = g.AddEdge(std::move(reversed), heads[id], 0.5);
    ASSERT_EQ(again.status().code(), StatusCode::kAlreadyExists);
  }
  EXPECT_EQ(g.num_edges(), tails.size());
}

TEST(HypergraphTest, ExactEdgeTableMatchesASetOracle) {
  // Vertices on both sides of the old 16-bit cap 0xFFFE, few enough that
  // every (T, H) over them can be enumerated and random draws repeat.
  std::vector<VertexId> pool = {0, 1, 2, 3, 4, 5};
  for (VertexId v = 0xFFFE - 6; v < 0xFFFE + 6; ++v) pool.push_back(v);
  const size_t num_vertices = pool.back() + 1;

  std::vector<Combo> universe;
  for (VertexId h : pool) {
    std::vector<VertexId> others;
    for (VertexId v : pool) {
      if (v != h) others.push_back(v);
    }
    for (size_t i = 0; i < others.size(); ++i) {
      universe.push_back(MakeCombo({others[i]}, h));
      for (size_t j = i + 1; j < others.size(); ++j) {
        universe.push_back(MakeCombo({others[i], others[j]}, h));
        for (size_t l = j + 1; l < others.size(); ++l) {
          universe.push_back(MakeCombo({others[i], others[j], others[l]}, h));
        }
      }
    }
  }

  // 3000 distinct random edges (a fifth of the universe), each tail in
  // the order it was drawn.
  std::mt19937 rng(20120401);
  std::vector<std::vector<VertexId>> tails;
  std::vector<VertexId> heads;
  std::vector<double> weights;
  std::set<Combo> present;
  while (tails.size() < 3000) {
    std::vector<VertexId> drawn = pool;
    std::shuffle(drawn.begin(), drawn.end(), rng);
    const size_t size = 1 + rng() % kMaxTailSize;
    std::vector<VertexId> tail(drawn.begin(), drawn.begin() + size);
    const VertexId head = drawn[size];
    if (!present.insert(MakeCombo(tail, head)).second) continue;
    tails.push_back(std::move(tail));
    heads.push_back(head);
    weights.push_back(std::uniform_real_distribution<double>(0, 1)(rng));
  }
  const size_t n = tails.size();

  // Without a reserve, with one the load outgrows, and with the exact one.
  for (size_t reserve : {size_t{0}, n / 4, n}) {
    SCOPED_TRACE(reserve);
    auto created = DirectedHypergraph::CreateAnonymous(num_vertices);
    ASSERT_TRUE(created.ok());
    DirectedHypergraph g = std::move(created).value();
    if (reserve > 0) g.ReserveEdges(reserve);
    EXPECT_FALSE(g.FindEdge(tails[0], heads[0]).has_value());
    for (EdgeId id = 0; id < n; ++id) {
      auto added = g.AddEdge(tails[id], heads[id], weights[id]);
      ASSERT_TRUE(added.ok()) << added.status().ToString();
      ASSERT_EQ(*added, id);
    }
    DirectedHypergraph copy = g;
    DirectedHypergraph filtered = g.FilteredByWeight(0.0);
    ExpectMatchesOracle(g, tails, heads, present, universe);
    ExpectMatchesOracle(copy, tails, heads, present, universe);
    ExpectMatchesOracle(filtered, tails, heads, present, universe);
  }
}

TEST(HypergraphTest, WeightedDegreesFollowSection52) {
  DirectedHypergraph g = SmallGraph();
  // in-degree(v) = sum of entering weights; out-degree(v) = sum of
  // w(e)/|T(e)| over leaving edges.
  ASSERT_TRUE(g.AddEdge({1}, 0, 0.4).ok());
  ASSERT_TRUE(g.AddEdge({1, 2}, 0, 0.6).ok());
  ASSERT_TRUE(g.AddEdge({0}, 1, 0.8).ok());
  EXPECT_NEAR(g.WeightedInDegree(0), 1.0, 1e-12);
  EXPECT_NEAR(g.WeightedInDegree(1), 0.8, 1e-12);
  EXPECT_NEAR(g.WeightedOutDegree(1), 0.4 + 0.3, 1e-12);
  EXPECT_NEAR(g.WeightedOutDegree(2), 0.3, 1e-12);
  EXPECT_NEAR(g.WeightedOutDegree(0), 0.8, 1e-12);
}

TEST(HypergraphTest, EdgeAndPairCounts) {
  DirectedHypergraph g = SmallGraph();
  ASSERT_TRUE(g.AddEdge({1}, 0, 0.4).ok());
  ASSERT_TRUE(g.AddEdge({2}, 0, 0.2).ok());
  ASSERT_TRUE(g.AddEdge({1, 2}, 0, 0.6).ok());
  EXPECT_EQ(g.NumDirectedEdges(), 2u);
  EXPECT_EQ(g.NumPairEdges(), 1u);
  EXPECT_NEAR(g.MeanDirectedEdgeWeight(), 0.3, 1e-12);
  EXPECT_NEAR(g.MeanPairEdgeWeight(), 0.6, 1e-12);
}

TEST(HypergraphTest, FilteredByWeightKeepsStrongEdges) {
  DirectedHypergraph g = SmallGraph();
  ASSERT_TRUE(g.AddEdge({1}, 0, 0.3).ok());
  ASSERT_TRUE(g.AddEdge({2}, 0, 0.5).ok());
  ASSERT_TRUE(g.AddEdge({1, 2}, 3, 0.7).ok());
  DirectedHypergraph pruned = g.FilteredByWeight(0.5);
  EXPECT_EQ(pruned.num_edges(), 2u);
  EXPECT_EQ(pruned.num_vertices(), g.num_vertices());
  std::vector<VertexId> tail = {2};
  EXPECT_TRUE(pruned.FindEdge(tail, 0).has_value());
  std::vector<VertexId> weak = {1};
  EXPECT_FALSE(pruned.FindEdge(weak, 0).has_value());
}

TEST(HypergraphTest, WeightQuantileThreshold) {
  DirectedHypergraph g = SmallGraph();
  ASSERT_TRUE(g.AddEdge({1}, 0, 0.1).ok());
  ASSERT_TRUE(g.AddEdge({2}, 0, 0.2).ok());
  ASSERT_TRUE(g.AddEdge({3}, 0, 0.3).ok());
  ASSERT_TRUE(g.AddEdge({4}, 0, 0.4).ok());
  ASSERT_TRUE(g.AddEdge({5}, 0, 0.5).ok());
  // Top 40% of 5 edges = 2 edges -> threshold 0.4.
  auto threshold = g.WeightQuantileThreshold(0.4);
  ASSERT_TRUE(threshold.ok());
  EXPECT_NEAR(*threshold, 0.4, 1e-12);
  EXPECT_EQ(g.FilteredByWeight(*threshold).num_edges(), 2u);
  EXPECT_FALSE(g.WeightQuantileThreshold(0.0).ok());
  EXPECT_FALSE(g.WeightQuantileThreshold(1.5).ok());
}

TEST(HypergraphTest, EdgeToStringFormat) {
  auto g = DirectedHypergraph::Create({"HES", "SLB", "XOM"});
  ASSERT_TRUE(g.ok());
  EdgeId id = g->AddEdge({0, 1}, 2, 0.58).value();
  EXPECT_EQ(g->EdgeToString(id), "HES, SLB -> XOM (0.58)");
}

}  // namespace
}  // namespace hypermine::core
