// Workload shapes, seeded query streams, set-up, publish cycles and the
// answer check.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "api/engine.h"
#include "api/model.h"
#include "core/pipeline.h"
#include "market/market_sim.h"
#include "net/client.h"
#include "perfbench.h"
#include "serve/rule_index.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace hypermine::perfbench {

namespace {

/// Reach levels: closures at these stay well under half of the paper-scale
/// graph (3-77 of 346 vertices from 1-3 seeds), so a query's cost is the
/// index walk, not shipping the whole vertex set as names.
constexpr double kReachMinAcv[] = {0.6, 0.7, 0.8};
constexpr size_t kTopK = 10;

std::string Join(const std::vector<std::string>& names) {
  std::string out;
  for (const std::string& name : names) {
    if (!out.empty()) out += ",";
    out += name;
  }
  return out;
}

std::string Describe(const api::QueryRequest& query) {
  return query.kind == api::QueryRequest::Kind::kTopK
             ? StrFormat("topk {%s} k=%zu", Join(query.names).c_str(),
                         query.k)
             : StrFormat("reach {%s} min_acv=%.2f", Join(query.names).c_str(),
                         query.min_acv);
}

/// Best ACV per head over every edge whose tail lies inside `items`, best
/// first (ties by head id) — TopKWithin's answer by definition.
std::vector<serve::RankedConsequent> ScanTopK(
    const core::DirectedHypergraph& graph,
    const std::vector<core::VertexId>& items, size_t k) {
  std::vector<char> in_items(graph.num_vertices(), 0);
  for (core::VertexId v : items) in_items[v] = 1;
  std::vector<double> best(graph.num_vertices(), -1.0);
  for (core::EdgeId e = 0; e < graph.num_edges(); ++e) {
    const core::Hyperedge& edge = graph.edge(e);
    bool inside = true;
    for (size_t i = 0; i < edge.tail_size(); ++i) {
      inside = inside && in_items[edge.tail[i]];
    }
    if (inside) best[edge.head] = std::max(best[edge.head], edge.weight);
  }
  std::vector<serve::RankedConsequent> out;
  for (core::VertexId v = 0; v < graph.num_vertices(); ++v) {
    if (best[v] >= 0.0) out.push_back({v, best[v], 0});
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.acv != b.acv ? a.acv > b.acv : a.head < b.head;
  });
  if (out.size() > k) out.resize(k);
  return out;
}

/// B-closure by fixpoint: an edge fires once its whole tail is in the
/// closure and its ACV is at least min_acv.
std::vector<core::VertexId> ScanClosure(
    const core::DirectedHypergraph& graph,
    const std::vector<core::VertexId>& seeds, double min_acv) {
  std::vector<char> in(graph.num_vertices(), 0);
  for (core::VertexId v : seeds) in[v] = 1;
  for (bool changed = true; changed;) {
    changed = false;
    for (core::EdgeId e = 0; e < graph.num_edges(); ++e) {
      const core::Hyperedge& edge = graph.edge(e);
      if (in[edge.head] || edge.weight < min_acv) continue;
      bool fires = true;
      for (size_t i = 0; i < edge.tail_size(); ++i) {
        fires = fires && in[edge.tail[i]];
      }
      if (fires) {
        in[edge.head] = 1;
        changed = true;
      }
    }
  }
  std::vector<core::VertexId> out;
  for (core::VertexId v = 0; v < graph.num_vertices(); ++v) {
    if (in[v]) out.push_back(v);
  }
  return out;
}

/// Empty when the wire answer, the index answer and the scan agree.
std::string CheckOne(net::Client* client, const api::Model& live,
                     const api::QueryRequest& query) {
  std::vector<core::VertexId> ids;
  for (const std::string& name : query.names) {
    auto id = live.FindVertex(name);
    if (!id.has_value()) return "unknown vertex " + name;
    ids.push_back(*id);
  }
  auto wire = client->Query(query);
  if (!wire.ok()) return "transport: " + wire.status().ToString();
  if (wire->code != StatusCode::kOk) {
    return "answered " + wire->ToStatus().ToString();
  }
  const core::DirectedHypergraph& graph = live.graph();
  const serve::RuleIndex& index = live.index();
  if (query.kind == api::QueryRequest::Kind::kTopK) {
    const auto expected = index.TopKWithin(ids, query.k);
    const auto scanned = ScanTopK(graph, ids, query.k);
    if (expected.size() != scanned.size()) return "index differs from scan";
    for (size_t i = 0; i < expected.size(); ++i) {
      if (expected[i].head != scanned[i].head ||
          expected[i].acv != scanned[i].acv) {
        return "index differs from scan";
      }
    }
    if (wire->ranked.size() != expected.size()) return "wire differs";
    for (size_t i = 0; i < expected.size(); ++i) {
      if (wire->ranked[i].name != graph.vertex_name(expected[i].head) ||
          wire->ranked[i].acv != expected[i].acv) {
        return "wire differs";
      }
    }
    return "";
  }
  const auto expected = index.Reachable(ids, query.min_acv);
  if (expected != ScanClosure(graph, ids, query.min_acv)) {
    return "index differs from scan";
  }
  if (wire->closure.size() != expected.size()) return "wire differs";
  for (size_t i = 0; i < expected.size(); ++i) {
    if (wire->closure[i] != graph.vertex_name(expected[i])) {
      return "wire differs";
    }
  }
  return "";
}

}  // namespace

StatusOr<WorkloadSpec> SpecFor(const std::string& name, bool quick) {
  WorkloadSpec spec;
  spec.name = name;
  // Paper scale: the data set of Section 5 (346 series, 1995-2009).
  spec.series = 346;
  spec.years = 15;
  spec.setup_reps = 3;
  if (name == "topk") {
    spec.connections = 2;
    spec.warmup_per_client = 3000;
    spec.check_queries = 48;
  } else if (name == "reach") {
    spec.query_kind = api::QueryRequest::Kind::kReachable;
    spec.connections = 2;
    spec.warmup_per_client = 20;
    spec.check_queries = 12;
  } else if (name == "publish") {
    spec.publish = true;
    // Sized so one build + publish cycle takes about a second: about ten
    // cycles per run for a steady median, and cheap set-ups, so more of them.
    spec.series = 200;
    spec.setup_reps = 5;
    spec.connections = 1;
    spec.warmup_per_client = 3000;
    spec.check_queries = 48;
  } else {
    return Status::InvalidArgument("unknown workload \"" + name +
                                   "\" (topk, reach, publish)");
  }
  if (quick) {
    spec.series = 48;
    spec.years = 3;
    spec.setup_reps = 1;
    spec.warmup_per_client = std::min<size_t>(spec.warmup_per_client, 100);
    spec.check_queries = 8;
  }
  return spec;
}

uint64_t MarketSeed(uint64_t seed) {
  return market::MarketConfig{}.seed + (seed >> 32);
}

uint64_t StreamSeed(uint64_t seed, uint64_t stream) {
  // splitmix64 finalizer over (seed, stream).
  uint64_t z = seed * 0x9e3779b97f4a7c15ull + stream + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

QueryStream::QueryStream(const std::vector<std::string>* names,
                         api::QueryRequest::Kind kind, uint64_t seed)
    : names_(names), kind_(kind), rng_(seed) {}

api::QueryRequest QueryStream::Next() {
  api::QueryRequest query;
  query.kind = kind_;
  const bool reach = kind_ == api::QueryRequest::Kind::kReachable;
  const size_t n = std::min<size_t>(
      names_->size(), reach ? 2 + rng_.NextBounded(2) : 1 + rng_.NextBounded(3));
  std::vector<size_t> picked;
  while (picked.size() < n) {
    const size_t v = rng_.NextBounded(names_->size());
    if (std::find(picked.begin(), picked.end(), v) == picked.end()) {
      picked.push_back(v);
    }
  }
  for (size_t v : picked) query.names.push_back((*names_)[v]);
  if (reach) {
    query.min_acv = kReachMinAcv[rng_.NextBounded(std::size(kReachMinAcv))];
  } else {
    query.k = kTopK;
  }
  return query;
}

api::EngineOptions ServingEngineOptions() {
  api::EngineOptions options;
  options.num_threads = 1;
  return options;
}

bool SameBuild(const core::BuildStats& a, const core::BuildStats& b) {
  return a.edge_candidates == b.edge_candidates &&
         a.edges_kept == b.edges_kept &&
         a.pair_candidates == b.pair_candidates &&
         a.pairs_kept == b.pairs_kept && a.mean_edge_acv == b.mean_edge_acv &&
         a.mean_pair_acv == b.mean_pair_acv;
}

StatusOr<std::unique_ptr<Deployment>> SetUp(const WorkloadSpec& spec,
                                            uint64_t seed,
                                            const std::string& work_dir,
                                            SetupTimes* times) {
  Stopwatch total;
  auto deployment = std::make_unique<Deployment>();
  Deployment& d = *deployment;

  market::MarketConfig market;
  market.num_series = spec.series;
  market.num_years = spec.years;
  market.seed = MarketSeed(seed);
  HM_ASSIGN_OR_RETURN(market::MarketPanel panel, market::SimulateMarket(market));
  HM_ASSIGN_OR_RETURN(core::Database db, core::DiscretizePanel(panel, 3));
  d.db.emplace(std::move(db));
  times->generate_s = total.ElapsedSeconds();

  d.spec.config = core::ConfigC1();
  d.spec.config.k = d.db->num_values();
  d.spec.config.num_threads = kBuildThreads;
  d.spec.discretization = "equi-depth k=3 over daily deltas (Section 5.1.1)";
  d.spec.provenance.source =
      StrFormat("market generator, %zu series x %zu years, seed %llu",
                spec.series, spec.years,
                static_cast<unsigned long long>(market.seed));
  Stopwatch build;
  HM_ASSIGN_OR_RETURN(std::shared_ptr<const api::Model> built,
                      api::Model::Build(*d.db, d.spec));
  times->build_s = build.ElapsedSeconds();
  d.first_stats = built->stats();
  d.num_vertices = built->num_vertices();
  d.num_edges = built->num_edges();

  // Serve what a deployment serves: the model loaded back from its
  // snapshot, published the way every later cycle publishes.
  d.engine = std::make_unique<api::Engine>(built, ServingEngineOptions());
  d.snapshot_path = work_dir + "/" + spec.name + ".snap";
  Stopwatch publish;
  HM_RETURN_IF_ERROR(built->SaveSnapshot(d.snapshot_path));
  const api::ReloadReport report =
      api::ReloadEngineFromFile(d.engine.get(), d.snapshot_path);
  HM_RETURN_IF_ERROR(report.status);
  times->publish_s = publish.ElapsedSeconds();
  built.reset();

  Stopwatch server;
  net::ServerOptions options;
  options.registry = &d.registry;
  HM_ASSIGN_OR_RETURN(d.server, net::Server::Start(d.engine.get(), options));
  HM_ASSIGN_OR_RETURN(net::Client client,
                      net::Client::Connect("127.0.0.1", d.server->port()));
  api::QueryRequest first;
  first.names.push_back(d.engine->model()->graph().vertex_name(0));
  HM_ASSIGN_OR_RETURN(net::WireResponse answer, client.Query(first));
  HM_RETURN_IF_ERROR(answer.ToStatus());
  times->server_s = server.ElapsedSeconds();
  times->total_s = total.ElapsedSeconds();
  return deployment;
}

CycleResult PublishCycle(Deployment* d) {
  CycleResult result;
  Stopwatch build;
  auto built = api::Model::Build(*d->db, d->spec);
  result.build_s = build.ElapsedSeconds();
  if (!built.ok()) {
    result.error = "build: " + built.status().ToString();
    return result;
  }
  if (!SameBuild((*built)->stats(), d->first_stats)) {
    result.error = "build stats differ from the first build: " +
                   (*built)->stats().ToString();
    return result;
  }
  Stopwatch publish;
  const Status saved = (*built)->SaveSnapshot(d->snapshot_path);
  const api::ReloadReport report =
      saved.ok() ? api::ReloadEngineFromFile(d->engine.get(), d->snapshot_path)
                 : api::ReloadReport{saved};
  result.publish_s = publish.ElapsedSeconds();
  if (!report.status.ok() || report.rolled_back) {
    result.error = "publish: " + report.status.ToString();
    return result;
  }
  const std::shared_ptr<const api::Model> live = d->engine->model();
  if (live->version() != report.new_version ||
      live->num_vertices() != d->num_vertices ||
      live->num_edges() != d->num_edges) {
    result.error = "live model differs from the first build: " +
                   live->ToString();
    return result;
  }
  result.ok = true;
  return result;
}

CheckResult CheckAnswers(const WorkloadSpec& spec, uint64_t seed,
                         uint16_t port, const api::Model& live) {
  const std::vector<std::string>& names = live.graph().vertex_names();
  QueryStream stream(&names, spec.query_kind, StreamSeed(seed, kCheckStream));
  CheckResult result;
  result.attempted = spec.check_queries;
  auto client = net::Client::Connect("127.0.0.1", port);
  if (!client.ok()) {
    result.failed = result.attempted;
    result.first_error = "connect: " + client.status().ToString();
  }
  for (size_t i = 0; client.ok() && i < spec.check_queries; ++i) {
    const api::QueryRequest query = stream.Next();
    const std::string error = CheckOne(&*client, live, query);
    if (error.empty()) continue;
    ++result.failed;
    if (result.first_error.empty()) {
      result.first_error = Describe(query) + ": " + error;
    }
  }
  std::printf("answer check: %zu/%zu agree%s%s\n",
              result.attempted - result.failed, result.attempted,
              result.failed ? "; first mismatch: " : "",
              result.first_error.c_str());
  return result;
}

}  // namespace hypermine::perfbench
