// The traced run: per-layer metrics from spans that this benchmark records
// around its own calls into core, serve, api and net. The program itself is
// not instrumented. Spans stay in memory and are written to
// <work-dir>/trace-<workload>-<seed>.jsonl when the run ends.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <thread>

#include "api/engine.h"
#include "api/model.h"
#include "core/builder.h"
#include "core/hypergraph.h"
#include "core/value_planes.h"
#include "net/client.h"
#include "perfbench.h"
#include "serve/rule_index.h"
#include "serve/snapshot.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace hypermine::perfbench {

namespace {

using Lists = std::vector<std::vector<api::QueryRequest>>;
using Caller = std::function<bool(const api::QueryRequest&)>;

/// Query i of client c carries the same request id in every replay.
uint64_t RequestId(size_t client, size_t i) {
  return (static_cast<uint64_t>(client) << 32) + i + 1;
}

/// Reach queries timed straight on the index when the workload sends topk,
/// and topk queries when it sends reach: every traced run prints every
/// per-layer metric, each measured on the workload's own model.
constexpr size_t kOtherReachQueries = 48;
constexpr size_t kOtherTopKQueries = 20000;
/// Queries whose scanned entries are counted, and whose reach closure is
/// re-derived by a full scan of the graph.
constexpr size_t kEntriesSample = 5000;
constexpr size_t kFiredSample = 16;
/// Stepwise publish cycles per mode (untraced, then traced), publish only.
constexpr size_t kTracedCycles = 3;

std::vector<double> Durations(const std::vector<Span>& spans,
                              const char* name) {
  std::vector<double> out;
  for (const Span& span : spans) {
    if (std::strcmp(span.name, name) == 0) out.push_back(span.seconds());
  }
  return out;
}

double Sum(const std::vector<double>& values) {
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum;
}

/// Per span name: calls, total time, and self time — each span's duration
/// minus the part of it that its children's intervals cover.
void PrintSelfTimes(const std::vector<Span>& spans) {
  std::map<uint64_t, std::vector<std::pair<int64_t, int64_t>>> children;
  for (const Span& span : spans) {
    if (span.parent != 0) {
      children[span.parent].emplace_back(span.start_ns, span.end_ns);
    }
  }
  struct Row {
    size_t calls = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };
  std::map<std::string, Row> rows;
  for (const Span& span : spans) {
    int64_t covered = 0;
    auto it = children.find(span.id);
    if (it != children.end()) {
      auto intervals = it->second;
      std::sort(intervals.begin(), intervals.end());
      int64_t reach = span.start_ns;
      for (auto [begin, end] : intervals) {
        begin = std::max(begin, reach);
        end = std::min(end, span.end_ns);
        if (end > begin) {
          covered += end - begin;
          reach = end;
        }
      }
    }
    Row& row = rows[span.name];
    ++row.calls;
    row.total_s += span.seconds();
    row.self_s += span.seconds() - static_cast<double>(covered) * 1e-9;
  }
  std::printf("spans: %zu recorded\n  %-44s %9s %12s %12s\n", spans.size(),
              "name", "calls", "total_s", "self_s");
  for (const auto& [name, row] : rows) {
    std::printf("  %-44s %9zu %12.6f %12.6f\n", name.c_str(), row.calls,
                row.total_s, row.self_s);
  }
}

Status WriteSpans(const std::vector<Span>& spans, const std::string& path) {
  std::ofstream out(path);
  const int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  for (const Span& span : spans) {
    out << StrFormat(
        "{\"id\": %llu, \"parent\": %llu, \"request\": %llu, \"name\": "
        "\"%s\", \"start_us\": %.3f, \"end_us\": %.3f}\n",
        static_cast<unsigned long long>(span.id),
        static_cast<unsigned long long>(span.parent),
        static_cast<unsigned long long>(span.request), span.name,
        static_cast<double>(span.start_ns - origin) * 1e-3,
        static_cast<double>(span.end_ns - origin) * 1e-3);
  }
  out.close();
  if (!out) return Status::IoError("cannot write " + path);
  return Status::OK();
}

struct ReplayResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double seconds = 0.0;
};

/// One thread per list: each makes its caller, sends its warm-up, waits
/// until every thread is ready, then sends its measured list with one span
/// per call. `on_start` runs on the calling thread just before the measured
/// phase starts.
ReplayResult Replay(const Lists& warmup, const Lists& measured,
                    const std::function<Caller()>& make_caller,
                    Tracer* tracer, uint64_t parent, const char* span_name,
                    const std::function<void()>& on_start) {
  const size_t n = measured.size();
  std::vector<uint64_t> failed(n, 0);
  std::atomic<size_t> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < n; ++t) {
    threads.emplace_back([&, t] {
      const Caller call = make_caller();
      for (const api::QueryRequest& query : warmup[t]) {
        if (!call(query)) ++failed[t];
      }
      Tracer::Buffer* buffer = tracer->NewBuffer();
      ready.fetch_add(1);
      while (!go.load()) std::this_thread::yield();
      for (size_t i = 0; i < measured[t].size(); ++i) {
        ScopedSpan span(tracer, buffer, span_name, parent, RequestId(t, i));
        if (!call(measured[t][i])) ++failed[t];
      }
    });
  }
  while (ready.load() < n) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  on_start();
  Stopwatch elapsed;
  go.store(true);
  for (std::thread& thread : threads) thread.join();
  ReplayResult result;
  result.seconds = elapsed.ElapsedSeconds();
  for (size_t t = 0; t < n; ++t) {
    result.attempted += warmup[t].size() + measured[t].size();
    result.failed += failed[t];
  }
  return result;
}

std::function<Caller()> WireCallers(uint16_t port) {
  return [port] {
    auto client = std::make_shared<StatusOr<net::Client>>(
        net::Client::Connect("127.0.0.1", port, 2000));
    return Caller([client](const api::QueryRequest& query) {
      if (!client->ok()) return false;
      auto response = (*client)->Query(query);
      return response.ok() && response->code == StatusCode::kOk;
    });
  };
}

/// Histogram state of the server's registry, diffed over a window.
metrics::Histogram::Snapshot Diff(const metrics::Histogram::Snapshot& before,
                                  const metrics::Histogram::Snapshot& after) {
  metrics::Histogram::Snapshot diff = after;
  for (size_t i = 0; i < diff.counts.size(); ++i) {
    diff.counts[i] -= before.counts[i];
  }
  diff.count -= before.count;
  diff.sum -= before.sum;
  return diff;
}

const char* const kServerHistograms[] = {
    "hypermine_net_queue_wait_seconds",
    "hypermine_engine_batch_seconds",
    "hypermine_net_write_drain_seconds",
};

/// Resolves every query's names once; fails on an unknown name.
StatusOr<std::vector<std::vector<core::VertexId>>> Resolve(
    const api::Model& model, const std::vector<api::QueryRequest>& queries) {
  std::vector<std::vector<core::VertexId>> ids(queries.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    for (const std::string& name : queries[q].names) {
      auto id = model.FindVertex(name);
      if (!id.has_value()) return Status::NotFound("unknown vertex " + name);
      ids[q].push_back(*id);
    }
  }
  return ids;
}

/// Group entries TopKWithin scans for one item set: the sizes of every
/// tail subset's group, each read through RuleIndex::TopK.
size_t EntriesScanned(const serve::RuleIndex& index,
                      std::vector<core::VertexId> items) {
  std::sort(items.begin(), items.end());
  items.erase(std::unique(items.begin(), items.end()), items.end());
  const size_t all = SIZE_MAX;
  size_t entries = 0;
  const size_t n = items.size();
  for (size_t a = 0; a < n; ++a) {
    entries += index.TopK({&items[a], 1}, all).size();
    for (size_t b = a + 1; b < n; ++b) {
      const core::VertexId pair[] = {items[a], items[b]};
      entries += index.TopK(pair, all).size();
      for (size_t c = b + 1; c < n; ++c) {
        const core::VertexId triple[] = {items[a], items[b], items[c]};
        entries += index.TopK(triple, all).size();
      }
    }
  }
  return entries;
}

/// Edges that can fire for a closure: tail inside it and ACV >= min_acv.
size_t FireableEdges(const core::DirectedHypergraph& graph,
                     const std::vector<core::VertexId>& closure,
                     double min_acv) {
  std::vector<char> in(graph.num_vertices(), 0);
  for (core::VertexId v : closure) in[v] = 1;
  size_t fireable = 0;
  for (const core::Hyperedge& edge : graph.edges()) {
    bool inside = edge.weight >= min_acv;
    for (size_t i = 0; i < edge.tail_size(); ++i) {
      inside = inside && in[edge.tail[i]];
    }
    fireable += inside ? 1 : 0;
  }
  return fireable;
}

/// One publish cycle through its public steps, each under its own span
/// (null buffer: untimed spans, same code). Returns the publish time, from
/// WriteSnapshot's start until Engine::Swap returned.
StatusOr<double> StepwiseCycle(Deployment* d, const std::string& path,
                               Tracer* tracer, Tracer::Buffer* buffer) {
  ScopedSpan cycle(tracer, buffer, "publish.cycle");
  core::ValuePlanes planes;
  {
    ScopedSpan span(tracer, buffer, "core.PackDatabasePlanes", cycle.id());
    planes = core::PackDatabasePlanes(*d->db);
  }
  core::BuildStats stats;
  StatusOr<core::DirectedHypergraph> graph = Status::Internal("not built");
  {
    ScopedSpan span(tracer, buffer, "core.BuildAssociationHypergraph",
                    cycle.id());
    graph = core::BuildAssociationHypergraph(*d->db, d->spec.config, &stats,
                                             nullptr, &planes);
  }
  HM_RETURN_IF_ERROR(graph.status());
  if (!SameBuild(stats, d->first_stats)) {
    return Status::Internal("build stats differ from the first build");
  }
  Stopwatch publish;
  {
    ScopedSpan span(tracer, buffer, "serve.WriteSnapshot", cycle.id());
    HM_RETURN_IF_ERROR(serve::WriteSnapshot(*graph, d->spec, path));
  }
  StatusOr<serve::LoadedSnapshot> loaded = Status::Internal("not read");
  {
    ScopedSpan span(tracer, buffer, "serve.ReadSnapshotFull", cycle.id());
    loaded = serve::ReadSnapshotFull(path);
  }
  HM_RETURN_IF_ERROR(loaded.status());
  std::shared_ptr<const api::Model> model = api::Model::FromGraph(
      std::move(loaded->graph), std::move(loaded->spec), stats);
  {
    // Model::index() runs RuleIndex::Build once and keeps the result.
    ScopedSpan span(tracer, buffer, "serve.RuleIndex::Build", cycle.id());
    model->index();
  }
  {
    ScopedSpan span(tracer, buffer, "api.Engine::Swap", cycle.id());
    d->engine->Swap(model);
  }
  const double seconds = publish.ElapsedSeconds();
  if (model->num_vertices() != d->num_vertices ||
      model->num_edges() != d->num_edges) {
    return Status::Internal("published model differs from the first build");
  }
  return seconds;
}

}  // namespace

StatusOr<RunResult> RunTraced(const WorkloadSpec& spec, uint64_t seed,
                              double seconds, const std::string& work_dir) {
  RunResult run;
  Tracer tracer;
  Tracer::Buffer* main = tracer.NewBuffer();
  const CpuTicks run_ticks = ReadCpuTicks();

  SetupTimes times;
  HM_ASSIGN_OR_RETURN(std::unique_ptr<Deployment> deployment,
                      SetUp(spec, seed, work_dir, &times));
  Deployment& d = *deployment;
  std::printf("set-up: %.3f s (generate %.3f, build %.3f, publish %.3f)\n",
              times.total_s, times.generate_s, times.build_s,
              times.publish_s);
  const bool reach = spec.query_kind == api::QueryRequest::Kind::kReachable;

  // --- core: pack, serial and parallel build, serial merge ---------------
  core::BuildStats stats;
  StatusOr<core::DirectedHypergraph> built = Status::Internal("not built");
  {
    ScopedSpan layer(&tracer, main, "core");
    core::ValuePlanes planes;
    for (int i = 0; i < 5; ++i) {
      ScopedSpan span(&tracer, main, "core.PackDatabasePlanes", layer.id());
      planes = core::PackDatabasePlanes(*d.db);
    }
    core::HypergraphConfig serial = d.spec.config;
    serial.num_threads = 1;
    core::BuildStats serial_stats;
    {
      ScopedSpan span(&tracer, main, "core.BuildAssociationHypergraph/serial",
                      layer.id());
      HM_RETURN_IF_ERROR(core::BuildAssociationHypergraph(
                             *d.db, serial, &serial_stats, nullptr, &planes)
                             .status());
    }
    {
      ScopedSpan span(&tracer, main,
                      "core.BuildAssociationHypergraph/parallel", layer.id());
      built = core::BuildAssociationHypergraph(*d.db, d.spec.config, &stats,
                                               nullptr, &planes);
    }
    HM_RETURN_IF_ERROR(built.status());
    if (!SameBuild(serial_stats, d.first_stats) ||
        !SameBuild(stats, d.first_stats)) {
      return Status::Internal("traced builds differ from the first");
    }
    // BuildAssociationHypergraph's serial merge, replayed from outside:
    // every edge in id order through Create + AddEdge.
    ScopedSpan span(&tracer, main, "core.merge", layer.id());
    HM_ASSIGN_OR_RETURN(
        core::DirectedHypergraph merged,
        core::DirectedHypergraph::Create(built->vertex_names()));
    for (const core::Hyperedge& edge : built->edges()) {
      HM_RETURN_IF_ERROR(
          merged
              .AddEdge(std::vector<core::VertexId>(
                           edge.tail, edge.tail + edge.tail_size()),
                       edge.head, edge.weight)
              .status());
    }
  }

  // --- serve: snapshot write and read, index build -------------------------
  const std::string trace_snapshot = work_dir + "/" + spec.name + "-trace.snap";
  double snapshot_mb = 0.0;
  {
    ScopedSpan layer(&tracer, main, "serve.snapshot");
    {
      ScopedSpan span(&tracer, main, "serve.WriteSnapshot", layer.id());
      HM_RETURN_IF_ERROR(serve::WriteSnapshot(*built, d.spec, trace_snapshot));
    }
    built = Status::Internal("released");
    snapshot_mb = static_cast<double>(
                      std::filesystem::file_size(trace_snapshot)) /
                  (1024.0 * 1024.0);
    StatusOr<serve::LoadedSnapshot> loaded = Status::Internal("not read");
    {
      ScopedSpan span(&tracer, main, "serve.ReadSnapshotFull", layer.id());
      loaded = serve::ReadSnapshotFull(trace_snapshot);
    }
    HM_RETURN_IF_ERROR(loaded.status());
    ScopedSpan span(&tracer, main, "serve.RuleIndex::Build", layer.id());
    const serve::RuleIndex index = serve::RuleIndex::Build(loaded->graph);
    if (index.num_entries() != d.num_edges) {
      return Status::Internal("index over the snapshot lost edges");
    }
  }

  // --- answer check, as in the untraced run --------------------------------
  std::shared_ptr<const api::Model> live = d.engine->model();
  // A copy: query streams outlive the model once a publish swaps it out.
  const std::vector<std::string> names = live->graph().vertex_names();
  const uint16_t port = d.server->port();
  const CheckResult check = CheckAnswers(spec, seed, port, *live);
  run.attempted += check.attempted;
  run.failed += check.failed;
  run.correct = check.failed == 0;

  // --- net: untraced window, then the same queries traced ----------------
  Lists warmup(spec.connections);
  std::vector<QueryStream> streams;
  for (size_t c = 0; c < spec.connections; ++c) {
    streams.emplace_back(&names, spec.query_kind, StreamSeed(seed, c));
    QueryStream copy(&names, spec.query_kind, StreamSeed(seed, c));
    for (size_t i = 0; i < spec.warmup_per_client; ++i) {
      warmup[c].push_back(copy.Next());
    }
  }
  const double phase_s = seconds / 3.0;
  Lists measured;
  const LoadResult untraced = RunClosedLoop(
      port, std::move(streams), spec.warmup_per_client,
      [phase_s] {
        std::this_thread::sleep_for(std::chrono::duration<double>(phase_s));
      },
      &measured);
  run.attempted += untraced.attempted;
  run.failed += untraced.failed();
  const double untraced_qps =
      static_cast<double>(untraced.latency_ms.size()) / untraced.seconds;
  size_t measured_count = 0;
  for (const auto& list : measured) measured_count += list.size();

  // --- api: model load, and a swap that purges the cache the window filled,
  // so the traced replay starts from the same cache state as the window ---
  {
    ScopedSpan layer(&tracer, main, "api.publish");
    StatusOr<std::shared_ptr<const api::Model>> loaded =
        Status::Internal("not loaded");
    {
      ScopedSpan span(&tracer, main, "api.Model::FromFile", layer.id());
      loaded = api::Model::FromFile(d.snapshot_path);
    }
    HM_RETURN_IF_ERROR(loaded.status());
    (*loaded)->index();  // built before the swap, as a reload does
    ScopedSpan span(&tracer, main, "api.Engine::Swap", layer.id());
    d.engine->Swap(*loaded);
  }
  live = d.engine->model();

  net::ServerStats stats_before, stats_after;
  std::vector<metrics::Histogram::Snapshot> hist_before, hist_after;
  auto histograms = [&d](std::vector<metrics::Histogram::Snapshot>* out) {
    out->clear();
    for (const char* name : kServerHistograms) {
      out->push_back(d.registry.GetHistogram(name)->TakeSnapshot());
    }
  };
  ReplayResult wire;
  {
    ScopedSpan phase(&tracer, main, "replay.wire");
    wire = Replay(warmup, measured, WireCallers(port), &tracer, phase.id(),
                  "net.Client::Query", [&] {
                    stats_before = d.server->stats();
                    histograms(&hist_before);
                  });
  }
  stats_after = d.server->stats();
  histograms(&hist_after);
  run.attempted += wire.attempted;
  run.failed += wire.failed;
  const double traced_qps =
      static_cast<double>(measured_count) / wire.seconds;

  // --- api: the same queries through Engine::Query, same concurrency -------
  api::Engine engine(live, ServingEngineOptions());
  api::CacheStats cache_before;
  ReplayResult in_process;
  {
    ScopedSpan phase(&tracer, main, "replay.api");
    in_process = Replay(
        warmup, measured,
        [&engine] {
          return Caller([&engine](const api::QueryRequest& query) {
            return engine.Query(query).ok();
          });
        },
        &tracer, phase.id(), "api.Engine::Query",
        [&] { cache_before = engine.cache_stats(); });
  }
  const api::CacheStats cache_after = engine.cache_stats();
  run.attempted += in_process.attempted;
  run.failed += in_process.failed;
  const double in_process_qps =
      static_cast<double>(measured_count) / in_process.seconds;

  // --- serve: the same queries straight into the index, one thread ---------
  // Interleaved as the clients sent them; names resolved once, up front.
  std::vector<api::QueryRequest> sequence;
  std::vector<uint64_t> request_ids;
  for (size_t i = 0;; ++i) {
    bool any = false;
    for (size_t c = 0; c < measured.size(); ++c) {
      if (i >= measured[c].size()) continue;
      sequence.push_back(measured[c][i]);
      request_ids.push_back(RequestId(c, i));
      any = true;
    }
    if (!any) break;
  }
  // The other query kind, from a stream of its own, so both index paths are
  // timed on every workload's model.
  const api::QueryRequest::Kind other_kind =
      reach ? api::QueryRequest::Kind::kTopK
            : api::QueryRequest::Kind::kReachable;
  {
    QueryStream other(&names, other_kind, StreamSeed(seed, kOtherKindStream));
    const size_t count = reach ? kOtherTopKQueries : kOtherReachQueries;
    for (size_t i = 0; i < count; ++i) {
      sequence.push_back(other.Next());
      request_ids.push_back(0);
    }
  }
  size_t names_resolved = 0;
  for (const api::QueryRequest& query : sequence) {
    names_resolved += query.names.size();
  }
  StatusOr<std::vector<std::vector<core::VertexId>>> ids =
      Status::Internal("not resolved");
  {
    ScopedSpan span(&tracer, main, "api.Model::FindVertex");
    ids = Resolve(*live, sequence);
  }
  HM_RETURN_IF_ERROR(ids.status());
  const serve::RuleIndex& index = live->index();
  size_t entries = 0, answers = 0, topk_queries = 0;
  std::vector<double> closure_sizes;
  double fired_ratio_sum = 0.0;
  size_t fired_samples = 0;
  {
    ScopedSpan phase(&tracer, main, "replay.index");
    for (size_t q = 0; q < sequence.size(); ++q) {
      const api::QueryRequest& query = sequence[q];
      const std::vector<core::VertexId>& items = (*ids)[q];
      if (query.kind == api::QueryRequest::Kind::kTopK) {
        size_t answered = 0;
        {
          ScopedSpan span(&tracer, main, "serve.RuleIndex::TopKWithin",
                          phase.id(), request_ids[q]);
          answered = index.TopKWithin(items, query.k).size();
        }
        if (topk_queries < kEntriesSample) {
          entries += EntriesScanned(index, items);
          answers += answered;
          ++topk_queries;
        }
        continue;
      }
      std::vector<core::VertexId> closure;
      {
        ScopedSpan span(&tracer, main, "serve.RuleIndex::Reachable",
                        phase.id(), request_ids[q]);
        closure = index.Reachable(items, query.min_acv);
      }
      closure_sizes.push_back(static_cast<double>(closure.size()));
      if (fired_samples < kFiredSample) {
        fired_ratio_sum +=
            static_cast<double>(
                FireableEdges(live->graph(), closure, query.min_acv)) /
            static_cast<double>(live->num_edges());
        ++fired_samples;
      }
    }
  }

  // --- publish: each public step of a cycle, untraced then traced ----------
  std::vector<double> untraced_publish, traced_publish;
  const std::string cycle_snapshot = work_dir + "/" + spec.name + "-cycle.snap";
  const size_t cycles = spec.publish ? kTracedCycles : 0;
  for (size_t mode = 0; mode < 2; ++mode) {
    for (size_t i = 0; i < cycles; ++i) {
      ++run.attempted;
      HM_ASSIGN_OR_RETURN(const double publish_s,
                          StepwiseCycle(&d, cycle_snapshot,
                                        mode == 0 ? nullptr : &tracer,
                                        mode == 0 ? nullptr : main));
      (mode == 0 ? untraced_publish : traced_publish).push_back(publish_s);
    }
  }
  const double steal_pct = StealPct(run_ticks, ReadCpuTicks());

  // --- metrics from the spans ----------------------------------------------
  const std::vector<Span> spans = tracer.Collect();
  PrintSelfTimes(spans);
  const std::string trace_path = StrFormat(
      "%s/trace-%s-%llu.jsonl", work_dir.c_str(), spec.name.c_str(),
      static_cast<unsigned long long>(seed));
  HM_RETURN_IF_ERROR(WriteSpans(spans, trace_path));
  std::printf("spans written to %s\n", trace_path.c_str());

  const double serial_s =
      Sum(Durations(spans, "core.BuildAssociationHypergraph/serial"));
  const double parallel_s =
      Sum(Durations(spans, "core.BuildAssociationHypergraph/parallel"));
  const double candidates =
      static_cast<double>(stats.edge_candidates + stats.pair_candidates);
  const double kept = static_cast<double>(stats.edges_kept + stats.pairs_kept);
  const std::vector<double> topk_s =
      Durations(spans, "serve.RuleIndex::TopKWithin");
  const std::vector<double> reach_s =
      Durations(spans, "serve.RuleIndex::Reachable");
  const std::vector<double> api_s = Durations(spans, "api.Engine::Query");
  const std::vector<double> wire_s = Durations(spans, "net.Client::Query");
  const uint64_t answered =
      stats_after.queries_answered - stats_before.queries_answered;
  const uint64_t batches = stats_after.batches - stats_before.batches;
  const uint64_t lookups = (cache_after.hits + cache_after.misses) -
                           (cache_before.hits + cache_before.misses);
  std::vector<double> server_p99_ms;
  for (size_t h = 0; h < hist_before.size(); ++h) {
    server_p99_ms.push_back(
        Diff(hist_before[h], hist_after[h]).Percentile(0.99) * 1e3);
  }
  const double overhead_pct =
      spec.publish
          ? 100.0 * (Median(traced_publish) - Median(untraced_publish)) /
                Median(untraced_publish)
          : 100.0 * (untraced_qps - traced_qps) / untraced_qps;
  const double api_p50_us = Percentile(api_s, 0.5) * 1e6;

  const std::string n_api = StrFormat("n=%zu", api_s.size());
  run.metrics = {
      {"core.pack_ms", "ms",
       Median(Durations(spans, "core.PackDatabasePlanes")) * 1e3,
       "median of 5, and of cycles on publish"},
      {"core.build_serial_s", "s", serial_s, "num_threads=1"},
      {"core.build_parallel_s", "s", parallel_s,
       StrFormat("num_threads=%zu", kBuildThreads)},
      {"core.parallel_eff", "ratio",
       serial_s / (static_cast<double>(kBuildThreads) * parallel_s),
       "serial / (threads x parallel)"},
      {"core.merge_s", "s", Sum(Durations(spans, "core.merge")),
       "Create + AddEdge replay"},
      {"core.candidates", "count", candidates, "edge + pair candidates"},
      {"core.kept_ratio", "ratio", kept / candidates, "kept / candidates"},
      {"core.candidates_per_s", "1/s", candidates / parallel_s,
       "per parallel-build second"},
      {"serve.snapshot_write_s", "s",
       Median(Durations(spans, "serve.WriteSnapshot")), "median"},
      {"serve.snapshot_mb", "MiB", snapshot_mb, ""},
      {"serve.snapshot_read_s", "s",
       Median(Durations(spans, "serve.ReadSnapshotFull")), "median"},
      {"serve.index_build_s", "s",
       Median(Durations(spans, "serve.RuleIndex::Build")), "median"},
      {"serve.topk_p50_us", "us", Percentile(topk_s, 0.5) * 1e6,
       StrFormat("n=%zu", topk_s.size())},
      {"serve.topk_p99_us", "us", Percentile(topk_s, 0.99) * 1e6,
       StrFormat("n=%zu", topk_s.size())},
      {"serve.topk_entries", "count",
       static_cast<double>(entries) / static_cast<double>(topk_queries),
       StrFormat("mean over %zu queries", topk_queries)},
      {"serve.topk_useful_ratio", "ratio",
       static_cast<double>(answers) / static_cast<double>(entries),
       "answers / entries scanned"},
      {"serve.reach_p50_ms", "ms", Percentile(reach_s, 0.5) * 1e3,
       StrFormat("n=%zu", reach_s.size())},
      {"serve.reach_p99_ms", "ms", Percentile(reach_s, 0.99) * 1e3,
       StrFormat("n=%zu", reach_s.size())},
      {"serve.reach_closure", "count", Median(closure_sizes),
       StrFormat("median vertices, n=%zu", closure_sizes.size())},
      {"serve.reach_fired_ratio", "ratio",
       fired_ratio_sum / static_cast<double>(fired_samples),
       StrFormat("fireable / initialised edges, n=%zu", fired_samples)},
      {"api.resolve_us", "us",
       Sum(Durations(spans, "api.Model::FindVertex")) * 1e6 /
           static_cast<double>(names_resolved),
       StrFormat("per name, %zu names", names_resolved)},
      {"api.query_p50_us", "us", api_p50_us, n_api},
      {"api.query_p99_us", "us", Percentile(api_s, 0.99) * 1e6, n_api},
      {"api.cache_hit_ratio", "ratio",
       static_cast<double>(cache_after.hits - cache_before.hits) /
           static_cast<double>(lookups),
       StrFormat("%llu lookups", static_cast<unsigned long long>(lookups))},
      {"api.model_load_s", "s", Sum(Durations(spans, "api.Model::FromFile")),
       ""},
      // The first swap is the one after the wire replay filled the cache.
      {"api.swap_ms", "ms", Durations(spans, "api.Engine::Swap").front() * 1e3,
       "full cache purged"},
      {"net.wire_p50_us", "us", Percentile(wire_s, 0.5) * 1e6 - api_p50_us,
       StrFormat("wire p50 - api.query_p50_us, n=%zu", wire_s.size())},
      {"net.client_p99_ms", "ms", Percentile(untraced.latency_ms, 0.99),
       StrFormat("untraced window, n=%zu", untraced.latency_ms.size())},
      {"net.wire_cost_factor", "ratio", in_process_qps / traced_qps,
       StrFormat("in-process %.0f / wire %.0f qps, %zu threads each",
                 in_process_qps, traced_qps, spec.connections)},
      {"net.queue_wait_p99_ms", "ms", server_p99_ms[0], "server histogram"},
      {"net.engine_batch_p99_ms", "ms", server_p99_ms[1], "server histogram"},
      {"net.write_drain_p99_ms", "ms", server_p99_ms[2], "server histogram"},
      {"net.resp_bytes_per_q", "B",
       static_cast<double>(stats_after.bytes_written -
                           stats_before.bytes_written) /
           static_cast<double>(answered),
       ""},
      {"net.frames_per_batch", "ratio",
       static_cast<double>(answered) / static_cast<double>(batches),
       "must stay 1"},
      {"proc.cpu_us_per_q", "us",
       untraced.cpu_s * 1e6 / static_cast<double>(untraced.latency_ms.size()),
       "untraced window"},
      {"host.steal_pct", "%", steal_pct, "whole traced run"},
      {"trace.overhead_pct", "%", overhead_pct,
       spec.publish ? "publish_s traced vs untraced"
                    : StrFormat("qps untraced %.0f, traced %.0f", untraced_qps,
                                traced_qps)},
  };
  return run;
}

}  // namespace hypermine::perfbench
