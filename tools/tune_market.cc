#include <map>
#include <string>
#include <algorithm>
// Ad-hoc tuning harness: prints mean weighted in/out degree by role for a
// parameter candidate, then a year-sliced model sweep through api::Model
// (one shared builder pool across all windows).
#include <cstdio>
#include <vector>
#include "api/model.h"
#include "core/pipeline.h"
#include "core/value_planes.h"
#include "util/stats.h"
#include "util/stopwatch.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

using namespace hypermine;


// Top-quartile role concentration (the paper's "top 25" statistic).
static void TopShare(const hypermine::core::MarketExperiment& ex, bool use_in) {
  using namespace hypermine;
  std::vector<std::pair<double, market::Role>> deg;
  for (core::VertexId v = 0; v < ex.graph.num_vertices(); ++v) {
    double d = use_in ? ex.graph.WeightedInDegree(v) : ex.graph.WeightedOutDegree(v);
    deg.push_back({d, ex.panel.tickers[v].role});
  }
  std::sort(deg.begin(), deg.end(), [](auto&a, auto&b){return a.first>b.first;});
  size_t top = deg.size()/4; size_t p=0,c=0,n=0;
  for (size_t i=0;i<top;++i) {
    if (deg[i].second==market::Role::kProducer) ++p;
    else if (deg[i].second==market::Role::kConsumer) ++c; else ++n;
  }
  printf("top%zu %s: P=%zu C=%zu N=%zu\n", top, use_in?"in ":"out", p, c, n);
}


static void PairDiag(const hypermine::core::MarketExperiment& ex) {
  using namespace hypermine;
  auto rolechar = [&](core::VertexId v){
    switch (ex.panel.tickers[v].role) {
      case market::Role::kProducer: return 'P';
      case market::Role::kConsumer: return 'C';
      default: return 'N';
    }
  };
  // edge ACV means by (tail_role, head_role); pair mass by tail role.
  std::map<std::string,std::pair<double,size_t>> edge_stats;
  std::map<char,double> pair_mass, edge_mass;
  std::map<char,size_t> head_pairs;
  for (const auto& e : ex.graph.edges()) {
    if (e.tail_size()==1) {
      std::string key = {rolechar(e.tail[0]), rolechar(e.head)};
      edge_stats[key].first += e.weight; edge_stats[key].second++;
      edge_mass[rolechar(e.tail[0])] += e.weight;
    } else {
      for (size_t i=0;i<e.tail_size();++i) pair_mass[rolechar(e.tail[i])] += e.weight/2;
      head_pairs[rolechar(e.head)]++;
    }
  }
  for (auto& [k,v] : edge_stats) printf("  edge %s: n=%zu mean=%.3f\n", k.c_str(), v.second, v.first/v.second);
  printf("  edge out-mass: P=%.0f C=%.0f N=%.0f\n", edge_mass['P'], edge_mass['C'], edge_mass['N']);
  printf("  pair out-mass: P=%.0f C=%.0f N=%.0f | pairs into heads P=%zu C=%zu N=%zu\n",
         pair_mass['P'], pair_mass['C'], pair_mass['N'], head_pairs['P'], head_pairs['C'], head_pairs['N']);
}

int main(int argc, char** argv) {
  market::MarketConfig mc;
  mc.num_series = 60; mc.num_years = 5; mc.seed = 2012;
  if (argc > 1) {
    // argv: pm pd ps pu pi pq cm cd cs cu ci
    double* slots[] = {&mc.producer.market,&mc.producer.demand,&mc.producer.sector,&mc.producer.subsector,&mc.producer.idiosyncratic,&mc.producer.quantization,
                       &mc.consumer.market,&mc.consumer.demand,&mc.consumer.sector,&mc.consumer.subsector,&mc.consumer.idiosyncratic,
                       &mc.neutral.market,&mc.neutral.demand,&mc.neutral.sector,&mc.neutral.subsector,&mc.neutral.idiosyncratic,
                       &mc.demand_spread,&mc.idio_spread};
    for (int i = 1; i < argc && i <= 18; ++i) *slots[i-1] = atof(argv[i]);
  }
  auto ex = core::SetUpMarketExperiment(mc, core::ConfigC1());
  if (!ex.ok()) { printf("error: %s\n", ex.status().ToString().c_str()); return 1; }
  std::vector<double> pin, cin, nin, pout, cout_, nout;
  for (core::VertexId v = 0; v < ex->graph.num_vertices(); ++v) {
    double in = ex->graph.WeightedInDegree(v), out = ex->graph.WeightedOutDegree(v);
    switch (ex->panel.tickers[v].role) {
      case market::Role::kProducer: pin.push_back(in); pout.push_back(out); break;
      case market::Role::kConsumer: cin.push_back(in); cout_.push_back(out); break;
      default: nin.push_back(in); nout.push_back(out);
    }
  }
  printf("edges=%zu pairs=%zu meanACV=%.3f/%.3f\n", ex->graph.NumDirectedEdges(), ex->graph.NumPairEdges(), ex->graph.MeanDirectedEdgeWeight(), ex->graph.MeanPairEdgeWeight());
  printf("in : P=%.1f C=%.1f N=%.1f\n", Mean(pin), Mean(cin), Mean(nin));
  printf("out: P=%.1f C=%.1f N=%.1f\n", Mean(pout), Mean(cout_), Mean(nout));
  PairDiag(*ex);
  TopShare(*ex, true);
  TopShare(*ex, false);

  // Gamma sweep over the full-window database: the value planes are packed
  // once and every build reuses them.
  {
    Stopwatch sweep_timer;
    const core::ValuePlanes planes = core::PackDatabasePlanes(ex->database);
    printf("gamma sweep (shared value planes):\n");
    for (double gamma_edge : {1.05, 1.10, 1.15, 1.20, 1.25}) {
      core::HypergraphConfig config = core::ConfigC1();
      config.gamma_edge = gamma_edge;
      auto graph = core::BuildAssociationHypergraph(
          ex->database, config, nullptr, nullptr, &planes);
      if (!graph.ok()) {
        printf("  gamma %.2f: %s\n", gamma_edge,
               graph.status().ToString().c_str());
        continue;
      }
      printf("  gamma %.2f: edges=%zu pairs=%zu\n", gamma_edge,
             graph->NumDirectedEdges(), graph->NumPairEdges());
    }
    printf("  packed once, reused by 5 builds (%.2fs total)\n",
           sweep_timer.ElapsedSeconds());
  }

  // Year-sliced sweep: one model per expanding train window, all built on
  // a single shared ThreadPool (no per-build thread spin-up — the builder
  // pool-reuse path of api::Model::Build).
  ThreadPool pool;
  api::ModelSpec spec;
  spec.config = core::ConfigC1();
  spec.discretization = "equi-depth terciles of daily deltas (k=3)";
  spec.provenance.source = StrFormat(
      "market sim: %zu series, %zu years, seed %llu", mc.num_series,
      mc.num_years, static_cast<unsigned long long>(mc.seed));
  int first = mc.first_year;
  int last = first + static_cast<int>(mc.num_years) - 1;
  printf("year sweep (shared pool, %zu workers):\n", pool.num_threads());
  for (int year = first; year < last; ++year) {
    auto split = core::DiscretizeTrainTest(ex->panel, 3, first, year,
                                           year + 1, year + 1);
    if (!split.ok()) {
      printf("  %d: %s\n", year, split.status().ToString().c_str());
      continue;
    }
    auto model = api::Model::Build(split->train, spec, &pool);
    if (!model.ok()) {
      printf("  %d: %s\n", year, model.status().ToString().c_str());
      continue;
    }
    printf("  train %d-%d: v%llu edges=%zu pairs=%zu (%.2fs)\n", first,
           year, static_cast<unsigned long long>((*model)->version()),
           (*model)->graph().NumDirectedEdges(),
           (*model)->graph().NumPairEdges(),
           (*model)->stats().elapsed_seconds);
  }
  return 0;
}
