#include "core/builder.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "core/assoc_table.h"
#include "testing/fixtures.h"

namespace hypermine::core {
namespace {

using hypermine::testing::RandomDatabase;

/// One edge of the expected model.
struct ExpectedEdge {
  std::vector<VertexId> tail;
  VertexId head = 0;
  double weight = 0.0;
};

struct ExpectedModel {
  std::vector<ExpectedEdge> edges;
  BuildStats stats;
};

/// Definition 3.7 applied from scratch to every (T, {H}) with |T| in
/// {1, 2}, with the config's candidate rules, using only BaseAcv and the
/// byte kernels. The edges come in the documented insertion order:
/// directed edges by head, then tail; then 2-to-1 edges by head, then
/// (a, b).
ExpectedModel Definition37(const Database& db,
                           const HypergraphConfig& config) {
  const size_t n = db.num_attributes();
  const size_t m = db.num_observations();
  const size_t k = db.num_values();
  auto col = [&](size_t a) { return db.column(static_cast<AttrId>(a)).data(); };
  // acv1[a * n + h] = ACV({a}, {h}); bar[h] = γ_edge · ACV(∅, {h}).
  std::vector<double> acv1(n * n, 0.0);
  std::vector<double> bar(n);
  for (size_t h = 0; h < n; ++h) {
    bar[h] = config.gamma_edge * *BaseAcv(db, static_cast<AttrId>(h));
    for (size_t a = 0; a < n; ++a) {
      if (a != h) acv1[a * n + h] = AcvEdgeKernel(col(a), col(h), m, k);
    }
  }

  ExpectedModel model;
  BuildStats& stats = model.stats;
  double edge_sum = 0.0;
  for (size_t h = 0; h < n; ++h) {
    for (size_t a = 0; a < n; ++a) {
      if (a == h) continue;
      ++stats.edge_candidates;
      if (acv1[a * n + h] >= bar[h]) {
        model.edges.push_back(
            {{static_cast<VertexId>(a)}, static_cast<VertexId>(h),
             acv1[a * n + h]});
        edge_sum += acv1[a * n + h];
        ++stats.edges_kept;
      }
    }
  }
  double pair_sum = 0.0;
  for (size_t h = 0; h < n; ++h) {
    for (size_t a = 0; a < n; ++a) {
      for (size_t b = a + 1; b < n; ++b) {
        if (a == h || b == h) continue;
        const double acv_a = acv1[a * n + h];
        const double acv_b = acv1[b * n + h];
        if (config.restrict_pairs_to_edges &&
            !(acv_a >= bar[h] && acv_b >= bar[h])) {
          continue;
        }
        ++stats.pair_candidates;
        // max over v in T of ACV(T - {v}, {H}).
        const double best = std::max(acv_a, acv_b);
        if (!config.keep_pairs_without_edges && best < bar[h]) continue;
        const double acv2 = AcvPairKernel(col(a), col(b), col(h), m, k);
        if (acv2 >= config.gamma_hyper * best) {
          model.edges.push_back(
              {{static_cast<VertexId>(a), static_cast<VertexId>(b)},
               static_cast<VertexId>(h), acv2});
          pair_sum += acv2;
          ++stats.pairs_kept;
        }
      }
    }
  }
  if (stats.edges_kept > 0) {
    stats.mean_edge_acv = edge_sum / static_cast<double>(stats.edges_kept);
  }
  if (stats.pairs_kept > 0) {
    stats.mean_pair_acv = pair_sum / static_cast<double>(stats.pairs_kept);
  }
  return model;
}

TEST(BuilderConfigTest, PaperConfigurations) {
  // Section 5.1.2: C1 = (k=3, 1.15, 1.05); C2 = (k=5, 1.20, 1.12).
  HypergraphConfig c1 = ConfigC1();
  EXPECT_EQ(c1.k, 3u);
  EXPECT_DOUBLE_EQ(c1.gamma_edge, 1.15);
  EXPECT_DOUBLE_EQ(c1.gamma_hyper, 1.05);
  HypergraphConfig c2 = ConfigC2();
  EXPECT_EQ(c2.k, 5u);
  EXPECT_DOUBLE_EQ(c2.gamma_edge, 1.20);
  EXPECT_DOUBLE_EQ(c2.gamma_hyper, 1.12);
}

TEST(BuilderTest, ValidatesInputs) {
  Database db = RandomDatabase(4, 50, 3, 1);
  HypergraphConfig config = ConfigC1();
  config.k = 5;  // mismatch with database's k=3
  EXPECT_FALSE(BuildAssociationHypergraph(db, config).ok());
  config = ConfigC1();
  config.gamma_edge = 0.9;
  EXPECT_FALSE(BuildAssociationHypergraph(db, config).ok());
  // A NaN γ fails every comparison, so it must not slip past the check.
  config = ConfigC1();
  config.gamma_edge = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(BuildAssociationHypergraph(db, config).status().code(),
            StatusCode::kInvalidArgument);
  config = ConfigC1();
  config.gamma_hyper = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(BuildAssociationHypergraph(db, config).status().code(),
            StatusCode::kInvalidArgument);
  auto empty = Database::Create({"a", "b"}, 3);
  ASSERT_TRUE(empty.ok());
  EXPECT_FALSE(BuildAssociationHypergraph(*empty, ConfigC1()).ok());
}

TEST(BuilderTest, KeptEdgesAreGammaSignificant) {
  Database db = RandomDatabase(8, 400, 3, 21, /*copy_prob=*/0.7);
  HypergraphConfig config = ConfigC1();
  BuildStats stats;
  auto graph = BuildAssociationHypergraph(db, config, &stats);
  ASSERT_TRUE(graph.ok());
  ASSERT_GT(graph->num_edges(), 0u);
  for (const Hyperedge& e : graph->edges()) {
    if (e.tail_size() == 1) {
      // Definition 3.7 with T - {v} = ∅.
      double base = *BaseAcv(db, e.head);
      EXPECT_GE(e.weight + 1e-9, config.gamma_edge * base);
      // The stored weight is the recomputable ACV.
      auto table = AssociationTable::Build(db, {e.tail[0]}, e.head);
      ASSERT_TRUE(table.ok());
      EXPECT_NEAR(e.weight, table->acv(), 1e-9);
    } else {
      double edge_a =
          AssociationTable::Build(db, {e.tail[0]}, e.head)->acv();
      double edge_b =
          AssociationTable::Build(db, {e.tail[1]}, e.head)->acv();
      EXPECT_GE(e.weight + 1e-9,
                config.gamma_hyper * std::max(edge_a, edge_b));
      auto table =
          AssociationTable::Build(db, {e.tail[0], e.tail[1]}, e.head);
      EXPECT_NEAR(e.weight, table->acv(), 1e-9);
    }
  }
}

TEST(BuilderTest, StatsAreConsistent) {
  Database db = RandomDatabase(6, 200, 3, 5, 0.7);
  BuildStats stats;
  auto graph = BuildAssociationHypergraph(db, ConfigC1(), &stats);
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(stats.edge_candidates, 6u * 5u);
  EXPECT_EQ(stats.edges_kept, graph->NumDirectedEdges());
  EXPECT_EQ(stats.pairs_kept, graph->NumPairEdges());
  EXPECT_NEAR(stats.mean_edge_acv, graph->MeanDirectedEdgeWeight(), 1e-9);
  EXPECT_NEAR(stats.mean_pair_acv, graph->MeanPairEdgeWeight(), 1e-9);
  EXPECT_FALSE(stats.ToString().empty());
}

TEST(BuilderTest, PhaseTimesAreNonNegativeAndWithinElapsed) {
  Database db = RandomDatabase(12, 200, 3, 6, 0.7);
  for (size_t threads : {size_t{1}, size_t{4}}) {
    HypergraphConfig config = ConfigC1();
    config.num_threads = threads;
    BuildStats stats;
    ASSERT_TRUE(BuildAssociationHypergraph(db, config, &stats).ok());
    EXPECT_GE(stats.pack_s, 0.0);
    EXPECT_GE(stats.stage1_s, 0.0);
    EXPECT_GE(stats.stage2_s, 0.0);
    EXPECT_GE(stats.merge_s, 0.0);
    EXPECT_LE(stats.pack_s + stats.stage1_s + stats.stage2_s + stats.merge_s,
              stats.elapsed_seconds);
  }
}

TEST(BuilderTest, MatchesDefinition37FromScratch) {
  struct Mode {
    const char* name;
    bool restrict_pairs;
    bool keep_without_edges;
  };
  const Mode modes[] = {{"default", true, true},
                        {"all pairs", false, true},
                        {"all pairs, no weak pairs", false, false}};
  // k <= 8 runs the plane kernels, k = 12 the byte kernels. Strong column
  // copies make most candidates 2-to-1, and each mode a different model.
  for (size_t k : {size_t{2}, size_t{3}, size_t{5}, size_t{8}, size_t{12}}) {
    Database db = RandomDatabase(16, 20 * k * k, k, 3700 + k,
                                 /*copy_prob=*/0.75);
    for (const Mode& mode : modes) {
      HypergraphConfig config = ConfigC1();
      config.k = k;
      // At k = 12 every directed edge of this database clears 1.15, which
      // would make the three modes build the same model.
      if (k > kMaxPlaneKernelValues) config.gamma_edge = 2.0;
      config.restrict_pairs_to_edges = mode.restrict_pairs;
      config.keep_pairs_without_edges = mode.keep_without_edges;
      const ExpectedModel expected = Definition37(db, config);
      ASSERT_GT(expected.stats.pair_candidates,
                expected.stats.edge_candidates)
          << "k " << k << " " << mode.name;
      ASSERT_GT(expected.stats.pairs_kept, 0u) << "k " << k << " " << mode.name;
      for (size_t threads : {size_t{1}, size_t{4}}) {
        SCOPED_TRACE(::testing::Message() << "k " << k << ", " << mode.name
                                          << ", threads " << threads);
        config.num_threads = threads;
        BuildStats stats;
        auto graph = BuildAssociationHypergraph(db, config, &stats);
        ASSERT_TRUE(graph.ok()) << graph.status().ToString();
        ASSERT_EQ(graph->num_edges(), expected.edges.size());
        for (EdgeId id = 0; id < graph->num_edges(); ++id) {
          const Hyperedge& got = graph->edge(id);
          const ExpectedEdge& want = expected.edges[id];
          ASSERT_EQ(got.tail_size(), want.tail.size()) << "edge " << id;
          for (size_t t = 0; t < want.tail.size(); ++t) {
            EXPECT_EQ(got.tail[t], want.tail[t]) << "edge " << id;
          }
          EXPECT_EQ(got.head, want.head) << "edge " << id;
          EXPECT_EQ(got.weight, want.weight) << "edge " << id;
        }
        EXPECT_EQ(stats.edge_candidates, expected.stats.edge_candidates);
        EXPECT_EQ(stats.edges_kept, expected.stats.edges_kept);
        EXPECT_EQ(stats.pair_candidates, expected.stats.pair_candidates);
        EXPECT_EQ(stats.pairs_kept, expected.stats.pairs_kept);
        EXPECT_EQ(stats.mean_edge_acv, expected.stats.mean_edge_acv);
        EXPECT_EQ(stats.mean_pair_acv, expected.stats.mean_pair_acv);
      }
    }
  }
}

TEST(BuilderTest, HigherGammaEdgeKeepsFewerEdges) {
  Database db = RandomDatabase(8, 300, 3, 31, 0.6);
  HypergraphConfig loose = ConfigC1();
  loose.gamma_edge = 1.0;
  HypergraphConfig tight = ConfigC1();
  tight.gamma_edge = 1.4;
  auto graph_loose = BuildAssociationHypergraph(db, loose);
  auto graph_tight = BuildAssociationHypergraph(db, tight);
  ASSERT_TRUE(graph_loose.ok());
  ASSERT_TRUE(graph_tight.ok());
  EXPECT_GE(graph_loose->NumDirectedEdges(),
            graph_tight->NumDirectedEdges());
}

TEST(BuilderTest, IndependentAttributesYieldSparseGraph) {
  // copy_prob = 0 gives i.i.d. columns: almost nothing clears γ = 1.15.
  Database db = RandomDatabase(8, 500, 3, 77, /*copy_prob=*/0.0);
  auto graph = BuildAssociationHypergraph(db, ConfigC1());
  ASSERT_TRUE(graph.ok());
  EXPECT_LT(graph->num_edges(), 4u);
}

TEST(BuilderTest, ChainedAttributesYieldDenseGraph) {
  Database db = RandomDatabase(6, 500, 3, 78, /*copy_prob=*/0.9);
  auto graph = BuildAssociationHypergraph(db, ConfigC1());
  ASSERT_TRUE(graph.ok());
  EXPECT_GT(graph->NumDirectedEdges(), 10u);
}

TEST(BuilderTest, UnrestrictedCandidatesSupersetOfRestricted) {
  Database db = RandomDatabase(7, 250, 3, 91, 0.65);
  HypergraphConfig restricted = ConfigC1();
  HypergraphConfig unrestricted = ConfigC1();
  unrestricted.restrict_pairs_to_edges = false;
  auto g_restricted = BuildAssociationHypergraph(db, restricted);
  auto g_unrestricted = BuildAssociationHypergraph(db, unrestricted);
  ASSERT_TRUE(g_restricted.ok());
  ASSERT_TRUE(g_unrestricted.ok());
  // Every restricted hyperedge also appears in the unrestricted build.
  for (const Hyperedge& e : g_restricted->edges()) {
    if (e.tail_size() != 2) continue;
    std::vector<VertexId> tail = {e.tail[0], e.tail[1]};
    EXPECT_TRUE(g_unrestricted->FindEdge(tail, e.head).has_value());
  }
  EXPECT_GE(g_unrestricted->NumPairEdges(), g_restricted->NumPairEdges());
}

TEST(BuilderTest, VertexNamesComeFromDatabase) {
  Database db = RandomDatabase(3, 50, 3, 8);
  auto graph = BuildAssociationHypergraph(db, ConfigC1());
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(graph->vertex_name(0), "X0");
  EXPECT_EQ(graph->vertex_name(2), "X2");
}

}  // namespace
}  // namespace hypermine::core
