// Quickstart: the patient database of the paper's Chapter 3 (Tables
// 3.1/3.2) from raw values to a served association model, through the
// hypermine::api façade:
//
//   raw values -> discretize -> api::ModelSpec (γ-significance parameters
//   + provenance) -> api::Model::Build (the association hypergraph of
//   Definition 3.6, ACV-weighted) -> SaveSnapshot/FromFile ->
//   api::Engine (top-k consequents ranked by ACV, hot-swappable).
//
//   ./quickstart
#include <cstdio>
#include <cstdlib>

#include "api/engine.h"
#include "api/model.h"
#include "core/assoc_rule.h"
#include "core/assoc_table.h"
#include "core/discretize.h"
#include "util/logging.h"

using namespace hypermine;

int main() {
  std::printf("hypermine quickstart: the Chapter 3 patient database\n\n");

  // Table 3.1: age, cholesterol, blood pressure, heart rate of 8 patients.
  const std::vector<std::vector<double>> raw = {
      {25, 105, 135, 75}, {62, 160, 165, 85}, {32, 125, 139, 71},
      {12, 95, 105, 67},  {38, 129, 135, 75}, {39, 121, 117, 71},
      {41, 134, 145, 73}, {85, 125, 155, 78},
  };

  // Discretize with floor(value / 10), the transformation of Table 3.2.
  std::vector<std::vector<core::ValueId>> columns(4);
  for (size_t attr = 0; attr < 4; ++attr) {
    std::vector<double> series;
    for (const auto& row : raw) series.push_back(row[attr]);
    auto discretized = core::FloorDivDiscretize(series, 10.0);
    HM_CHECK_OK(discretized.status());
    columns[attr] = std::move(discretized).value();
  }
  auto db_or = core::DatabaseFromColumns({"A", "C", "B", "H"}, 17, columns);
  HM_CHECK_OK(db_or.status());
  const core::Database& db = *db_or;
  std::printf("database: %zu observations x %zu attributes over V of size "
              "%zu\n\n",
              db.num_observations(), db.num_attributes(), db.num_values());

  // The worked mva-type rule of Example 3.3:
  //   {(A, 3), (C, 12)} ==> {(B, 13)}
  // "if age is 30-39 and cholesterol is 120-129, blood pressure is
  //  likely 130-139".  (Values are 0-based in the API.)
  core::MvaRule rule{{{0, 3}, {1, 12}}, {{2, 13}}};
  auto supp = core::Support(db, rule.antecedent);
  auto conf = core::Confidence(db, rule);
  HM_CHECK_OK(supp.status());
  HM_CHECK_OK(conf.status());
  std::printf("rule %s\n  Supp(X) = %.3f (paper: 0.375)\n  Conf = %.3f "
              "(paper: 0.667)\n\n",
              rule.ToString(db).c_str(), *supp, *conf);

  // The association table of the combination ({A, C}, {B}) — the structure
  // of Table 3.7 — and its association confidence value.
  auto table = core::AssociationTable::Build(db, {0, 1}, 2);
  HM_CHECK_OK(table.status());
  std::printf("ACV({A, C}, {B}) = %.3f\n\n", table->acv());

  // The model-construction half of the API: a ModelSpec names the
  // γ-significance parameters (Definition 3.7) and records how the data
  // was discretized; Model::Build mines the association hypergraph and
  // stamps provenance (git sha, build time) into the spec.
  api::ModelSpec spec;
  spec.config = core::ConfigC1();  // γ_{1→1} = 1.15, γ_{2→1} = 1.05
  spec.config.k = db.num_values();
  spec.discretization = "floor(value / 10) per Table 3.2";
  spec.provenance.source = "chapter-3 patient database (8 observations)";
  auto built = api::Model::Build(db, spec);
  HM_CHECK_OK(built.status());
  std::printf("association hypergraph: %s\n",
              (*built)->stats().ToString().c_str());
  std::printf("gamma-significant hyperedges:\n");
  for (core::EdgeId id = 0; id < (*built)->num_edges(); ++id) {
    std::printf("  %s\n", (*built)->graph().EdgeToString(id).c_str());
  }

  // Persist and reload: snapshots are the lossless servable artifact and
  // carry the ModelSpec, so the reloaded model is fully attributable.
  const std::string snap = std::string(std::getenv("TMPDIR")
                                           ? std::getenv("TMPDIR")
                                           : "/tmp") +
                           "/quickstart.snap";
  HM_CHECK_OK((*built)->SaveSnapshot(snap));
  auto model = api::Model::FromFile(snap);
  HM_CHECK_OK(model.status());
  std::printf("\nreloaded %s\n  built by git_sha=%s from \"%s\"\n",
              snap.c_str(), (*model)->spec().provenance.git_sha.c_str(),
              (*model)->spec().provenance.source.c_str());

  // The model-use half: an Engine answers "given these attributes, what
  // follows?" — consequents ranked by ACV, queried by attribute name.
  // (Engine::Swap would hot-reload a retrained model with zero downtime;
  // see tools/hypermine_serve's !reload.)
  api::Engine engine(*model);
  for (const char* name : {"A", "C", "B", "H"}) {
    api::QueryRequest request;
    request.names = {name};
    request.k = 3;
    auto response = engine.Query(request);
    HM_CHECK_OK(response.status());
    std::printf("top consequents of {%s} (model v%llu):\n", name,
                static_cast<unsigned long long>(response->model_version));
    for (const serve::RankedConsequent& r : response->ranked) {
      std::printf("  %s  acv=%.3f\n",
                  (*model)->graph().vertex_name(r.head).c_str(), r.acv);
    }
    if (response->ranked.empty()) std::printf("  (no consequents)\n");
  }
  std::remove(snap.c_str());
  return 0;
}
