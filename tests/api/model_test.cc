#include "api/model.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "core/builder.h"
#include "core/export.h"
#include "serve/snapshot.h"
#include "testing/fixtures.h"
#include "util/build_info.h"
#include "util/csv.h"
#include "util/thread_pool.h"

namespace hypermine::api {
namespace {

using hypermine::testing::PatientDatabase;
using hypermine::testing::RandomDatabase;

ModelSpec PatientSpec() {
  ModelSpec spec;
  spec.config = core::ConfigC1();
  spec.config.k = 17;
  spec.discretization = "floor(value / 10) per Table 3.2";
  spec.provenance.source = "chapter-3 patient database";
  spec.provenance.note = "unit test";
  return spec;
}

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

void ExpectSameGraph(const core::DirectedHypergraph& a,
                     const core::DirectedHypergraph& b) {
  ASSERT_EQ(a.num_vertices(), b.num_vertices());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  EXPECT_EQ(a.vertex_names(), b.vertex_names());
  for (core::EdgeId id = 0; id < a.num_edges(); ++id) {
    const core::Hyperedge& e = a.edge(id);
    auto found = b.FindEdge(e.TailSpan(), e.head);
    ASSERT_TRUE(found.has_value()) << a.EdgeToString(id);
    EXPECT_EQ(b.edge(*found).weight, e.weight) << a.EdgeToString(id);
  }
}

TEST(ModelTest, BuildMatchesCoreBuilder) {
  core::Database db = PatientDatabase();
  ModelSpec spec = PatientSpec();

  core::BuildStats direct_stats;
  auto direct =
      core::BuildAssociationHypergraph(db, spec.config, &direct_stats);
  ASSERT_TRUE(direct.ok());

  auto model = Model::Build(db, spec);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  ExpectSameGraph(*direct, (*model)->graph());
  EXPECT_EQ((*model)->stats().edges_kept, direct_stats.edges_kept);
  EXPECT_EQ((*model)->stats().pairs_kept, direct_stats.pairs_kept);
  EXPECT_EQ((*model)->stats().mean_edge_acv, direct_stats.mean_edge_acv);
}

TEST(ModelTest, BuildValidatesSpec) {
  core::Database db = PatientDatabase();
  ModelSpec spec = PatientSpec();
  spec.config.k = 3;  // mismatch: db has k = 17
  EXPECT_FALSE(Model::Build(db, spec).ok());
}

TEST(ModelTest, BuildStampsProvenance) {
  core::Database db = PatientDatabase();
  auto model = Model::Build(db, PatientSpec());
  ASSERT_TRUE(model.ok());
  // Empty git_sha / created_unix are filled in by Build...
  EXPECT_EQ((*model)->spec().provenance.git_sha, GitSha());
  EXPECT_GT((*model)->spec().provenance.created_unix, 0u);
  // ...while explicit values survive untouched.
  ModelSpec pinned = PatientSpec();
  pinned.provenance.git_sha = "deadbeef";
  pinned.provenance.created_unix = 1234;
  auto pinned_model = Model::Build(db, pinned);
  ASSERT_TRUE(pinned_model.ok());
  EXPECT_EQ((*pinned_model)->spec().provenance.git_sha, "deadbeef");
  EXPECT_EQ((*pinned_model)->spec().provenance.created_unix, 1234u);
}

TEST(ModelTest, VersionsAreUniqueAndIncreasing) {
  core::Database db = PatientDatabase();
  auto a = Model::Build(db, PatientSpec());
  auto b = Model::Build(db, PatientSpec());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_GT((*a)->version(), 0u);
  EXPECT_GT((*b)->version(), (*a)->version());
}

TEST(ModelTest, SnapshotRoundTripPreservesGraphAndSpec) {
  core::Database db = PatientDatabase();
  ModelSpec spec = PatientSpec();
  spec.provenance.git_sha = "cafe1234";
  spec.provenance.created_unix = 99;
  auto built = Model::Build(db, spec);
  ASSERT_TRUE(built.ok());

  const std::string path = TempPath("model_roundtrip.snap");
  ASSERT_TRUE((*built)->SaveSnapshot(path).ok());
  auto loaded = Model::FromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  ExpectSameGraph((*built)->graph(), (*loaded)->graph());
  EXPECT_EQ((*loaded)->spec().provenance, (*built)->spec().provenance);
  EXPECT_EQ((*loaded)->spec().discretization,
            (*built)->spec().discretization);
  EXPECT_EQ((*loaded)->spec().config.k, (*built)->spec().config.k);
  EXPECT_EQ((*loaded)->spec().config.gamma_edge,
            (*built)->spec().config.gamma_edge);
  EXPECT_EQ((*loaded)->spec().config.gamma_hyper,
            (*built)->spec().config.gamma_hyper);
  EXPECT_EQ((*loaded)->spec().config.restrict_pairs_to_edges,
            (*built)->spec().config.restrict_pairs_to_edges);
  // A reloaded model is a new model: new version, same content.
  EXPECT_NE((*loaded)->version(), (*built)->version());
  std::remove(path.c_str());
}

TEST(ModelTest, ExportCsvRoundTripsThroughFromFile) {
  core::Database db = PatientDatabase();
  auto built = Model::Build(db, PatientSpec());
  ASSERT_TRUE(built.ok());
  const std::string path = TempPath("model_export.csv");
  ASSERT_TRUE((*built)->ExportCsv(path).ok());

  auto loaded = Model::FromFile(path);
  ASSERT_TRUE(loaded.ok());
  ExpectSameGraph((*built)->graph(), (*loaded)->graph());
  // CSV carries no spec: provenance comes back empty.
  EXPECT_TRUE((*loaded)->spec().provenance.empty());
  std::remove(path.c_str());
}

TEST(ModelTest, SharedPoolBuildIsBitIdentical) {
  core::Database db = RandomDatabase(16, 300, 3, 42, /*copy_prob=*/0.7);
  ModelSpec spec;
  spec.config = core::ConfigC1();

  spec.config.num_threads = 1;
  auto serial = Model::Build(db, spec);
  ASSERT_TRUE(serial.ok());

  ThreadPool pool(3);
  spec.config.num_threads = 0;
  auto pooled = Model::Build(db, spec, &pool);
  ASSERT_TRUE(pooled.ok());
  ExpectSameGraph((*serial)->graph(), (*pooled)->graph());
  EXPECT_EQ((*serial)->stats().edges_kept, (*pooled)->stats().edges_kept);
  EXPECT_EQ((*serial)->stats().mean_pair_acv,
            (*pooled)->stats().mean_pair_acv);

  // The pool survives for back-to-back builds (the year-sweep pattern).
  auto again = Model::Build(db, spec, &pool);
  ASSERT_TRUE(again.ok());
  ExpectSameGraph((*serial)->graph(), (*again)->graph());
}

TEST(ModelTest, FindVertexResolvesNames) {
  core::Database db = PatientDatabase();
  auto model = Model::Build(db, PatientSpec());
  ASSERT_TRUE(model.ok());
  auto a = (*model)->FindVertex("A");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ((*model)->graph().vertex_name(*a), "A");
  EXPECT_FALSE((*model)->FindVertex("nope").has_value());
}

TEST(ModelTest, LazyIndexMatchesDirectBuild) {
  core::Database db = PatientDatabase();
  auto model = Model::Build(db, PatientSpec());
  ASSERT_TRUE(model.ok());
  serve::RuleIndex direct = serve::RuleIndex::Build((*model)->graph());
  const serve::RuleIndex& lazy = (*model)->index();
  EXPECT_EQ(lazy.num_tail_sets(), direct.num_tail_sets());
  EXPECT_EQ(lazy.num_entries(), direct.num_entries());
  // Same object on every access (built once).
  EXPECT_EQ(&lazy, &(*model)->index());
}

TEST(ModelTest, FromGraphWrapsWithoutMining) {
  auto graph = core::DirectedHypergraph::CreateAnonymous(4);
  ASSERT_TRUE(graph.ok());
  ASSERT_TRUE(graph->AddEdge({0}, 1, 0.5).ok());
  ModelSpec spec;
  spec.provenance.note = "wrapped";
  auto model = Model::FromGraph(std::move(graph).value(), spec);
  EXPECT_EQ(model->num_edges(), 1u);
  EXPECT_EQ(model->spec().provenance.note, "wrapped");
}

TEST(ModelTest, FromFileMissingFileIsIoError) {
  EXPECT_EQ(Model::FromFile("/nonexistent/model.snap").status().code(),
            StatusCode::kIoError);
}

}  // namespace
}  // namespace hypermine::api
