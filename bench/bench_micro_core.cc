/// google-benchmark microbenchmarks for the core kernels: ACV counting,
/// hypergraph construction, similarity, dominators, the classifier, and
/// the rule index's association query.
#include <benchmark/benchmark.h>

#include "core/assoc_table.h"
#include "core/builder.h"
#include "core/discretize.h"
#include "core/classifier.h"
#include "core/dominator.h"
#include "core/pipeline.h"
#include "core/similarity.h"
#include "serve/rule_index.h"
#include "util/logging.h"
#include "util/rng.h"

namespace hypermine::core {
namespace {

Database MakeDb(size_t n, size_t m, size_t k, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<ValueId>> columns(n, std::vector<ValueId>(m));
  std::vector<std::string> names;
  for (size_t a = 0; a < n; ++a) names.push_back("X" + std::to_string(a));
  for (size_t o = 0; o < m; ++o) {
    for (size_t a = 0; a < n; ++a) {
      columns[a][o] = (a > 0 && rng.NextBernoulli(0.6))
                          ? columns[a - 1][o]
                          : static_cast<ValueId>(rng.NextBounded(k));
    }
  }
  auto db = DatabaseFromColumns(std::move(names), k, columns);
  HM_CHECK_OK(db.status());
  return std::move(db).value();
}

const MarketExperiment& SharedExperiment() {
  static const MarketExperiment* experiment = [] {
    market::MarketConfig config;
    config.num_series = 60;
    config.num_years = 4;
    config.seed = 7;
    auto ex = SetUpMarketExperiment(config, ConfigC1());
    HM_CHECK_OK(ex.status());
    return new MarketExperiment(std::move(ex).value());
  }();
  return *experiment;
}

void BM_AcvEdgeKernel(benchmark::State& state) {
  const size_t m = static_cast<size_t>(state.range(0));
  Database db = MakeDb(2, m, 3, 11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(AcvEdgeKernel(db.column(0).data(),
                                           db.column(1).data(), m, 3));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(m));
}
BENCHMARK(BM_AcvEdgeKernel)->Arg(1024)->Arg(4096)->Arg(16384);

void BM_AcvPairKernel(benchmark::State& state) {
  const size_t m = static_cast<size_t>(state.range(0));
  Database db = MakeDb(3, m, 3, 12);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        AcvPairKernel(db.column(0).data(), db.column(1).data(),
                      db.column(2).data(), m, 3));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(m));
}
BENCHMARK(BM_AcvPairKernel)->Arg(1024)->Arg(4096)->Arg(16384);

void BM_BuildAssociationHypergraph(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Database db = MakeDb(n, 1000, 3, 13);
  for (auto _ : state) {
    auto graph = BuildAssociationHypergraph(db, ConfigC1());
    HM_CHECK_OK(graph.status());
    benchmark::DoNotOptimize(graph->num_edges());
  }
}
BENCHMARK(BM_BuildAssociationHypergraph)->Arg(16)->Arg(32)->Arg(64);

void BM_AssociationTableBuild(benchmark::State& state) {
  Database db = MakeDb(3, static_cast<size_t>(state.range(0)), 5, 14);
  for (auto _ : state) {
    auto table = AssociationTable::Build(db, {0, 1}, 2);
    HM_CHECK_OK(table.status());
    benchmark::DoNotOptimize(table->acv());
  }
}
BENCHMARK(BM_AssociationTableBuild)->Arg(1024)->Arg(8192);

void BM_PairwiseSimilarity(benchmark::State& state) {
  const MarketExperiment& experiment = SharedExperiment();
  size_t i = 0;
  for (auto _ : state) {
    VertexId a = static_cast<VertexId>(i % experiment.graph.num_vertices());
    VertexId b = static_cast<VertexId>((i * 7 + 1) %
                                       experiment.graph.num_vertices());
    benchmark::DoNotOptimize(OutSimilarity(experiment.graph, a, b));
    benchmark::DoNotOptimize(InSimilarity(experiment.graph, a, b));
    ++i;
  }
}
BENCHMARK(BM_PairwiseSimilarity);

void BM_DominatorAlg5(benchmark::State& state) {
  const MarketExperiment& experiment = SharedExperiment();
  DominatorConfig config;
  config.acv_threshold =
      experiment.graph.WeightQuantileThreshold(0.4).value();
  for (auto _ : state) {
    auto result = ComputeDominatorGreedyDS(experiment.graph, {}, config);
    HM_CHECK_OK(result.status());
    benchmark::DoNotOptimize(result->dominator.size());
  }
}
BENCHMARK(BM_DominatorAlg5);

void BM_DominatorAlg6(benchmark::State& state) {
  const MarketExperiment& experiment = SharedExperiment();
  DominatorConfig config;
  config.acv_threshold =
      experiment.graph.WeightQuantileThreshold(0.4).value();
  for (auto _ : state) {
    auto result = ComputeDominatorSetCover(experiment.graph, {}, config);
    HM_CHECK_OK(result.status());
    benchmark::DoNotOptimize(result->dominator.size());
  }
}
BENCHMARK(BM_DominatorAlg6);

void BM_ClassifierPredict(benchmark::State& state) {
  const MarketExperiment& experiment = SharedExperiment();
  DominatorConfig dom_config;
  dom_config.acv_threshold =
      experiment.graph.WeightQuantileThreshold(0.4).value();
  auto dominator =
      ComputeDominatorSetCover(experiment.graph, {}, dom_config);
  HM_CHECK_OK(dominator.status());
  auto classifier = AssociationClassifier::Create(&experiment.graph,
                                                  &experiment.database);
  HM_CHECK_OK(classifier.status());
  std::vector<char> in_dom(experiment.database.num_attributes(), 0);
  for (VertexId v : dominator->dominator) in_dom[v] = 1;
  AttrId target = 0;
  while (target < experiment.database.num_attributes() && in_dom[target]) {
    ++target;
  }
  std::vector<int16_t> evidence(experiment.database.num_attributes(),
                                AssociationClassifier::kUnknown);
  size_t o = 0;
  for (auto _ : state) {
    for (AttrId a = 0; a < experiment.database.num_attributes(); ++a) {
      evidence[a] = in_dom[a] ? experiment.database.value(
                                    o % experiment.database.num_observations(), a)
                              : AssociationClassifier::kUnknown;
    }
    auto prediction = classifier->Predict(evidence, target);
    HM_CHECK_OK(prediction.status());
    benchmark::DoNotOptimize(prediction->value);
    ++o;
  }
}
BENCHMARK(BM_ClassifierPredict);

/// RuleIndex::TopKWithin at k = 10 over random item sets of range(0)
/// distinct vertices. At 60 items every vertex of the 60-series model is
/// in the set, the worst case for the scan of owned tail-set ranges.
void BM_TopKWithin(benchmark::State& state) {
  const MarketExperiment& experiment = SharedExperiment();
  static const serve::RuleIndex index =
      serve::RuleIndex::Build(experiment.graph);
  const auto items = static_cast<size_t>(state.range(0));
  Rng rng(15);
  std::vector<std::vector<VertexId>> sets(64);
  for (std::vector<VertexId>& set : sets) {
    for (size_t v : rng.SampleIndices(index.num_vertices(), items)) {
      set.push_back(static_cast<VertexId>(v));
    }
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.TopKWithin(sets[i++ % sets.size()], 10));
  }
}
BENCHMARK(BM_TopKWithin)->Arg(1)->Arg(3)->Arg(60);

}  // namespace
}  // namespace hypermine::core
