// Serving CLI over the hypermine::api façade: loads a model, answers
// association queries, and hot-swaps the live model without restarting.
//
//   # Convert between CSV exports and binary snapshots. Snapshot output
//   # carries a ModelSpec provenance trailer (format v2); provenance found
//   # in the input is reported and preserved.
//   hypermine_serve --convert --in=model.csv --out=model.snap
//
//   # Serve top-k / reachability queries from stdin, one query per line:
//   # comma-separated vertex names, e.g. "HES,SLB". Lines starting with
//   # '!' are commands:
//   #   !reload <path>   hot-swap the live model (async, verify-then-swap
//   #                    with rollback; see docs/robustness.md)
//   #   !drain           stop accepting query connections, finish work
//   #   !info            print the live model's version and provenance
//   #   !stats           print the /statusz JSON (docs/observability.md)
//   hypermine_serve --snapshot=model.snap --k=5
//   hypermine_serve --snapshot=model.snap --mode=reach --min_acv=0.4
//
//   # Additionally serve the framed TCP protocol (docs/protocol.md) on
//   # 127.0.0.1:<port> — drive it with hypermine_client. The stdin loop
//   # keeps running: !reload hot-swaps the model under live connections.
//   # The process serves until stdin reaches EOF. --admin-port adds the
//   # HTTP admin plane (GET /metrics, /healthz, /statusz) on a second
//   # port, multiplexed on the same reactor thread.
//   hypermine_serve --snapshot=model.snap --listen=7654 --admin-port=7655
//
//   # Write the Chapter 3 demo snapshot (and an answer-flipping variant,
//   # used by the CI reload smoke).
//   hypermine_serve --make-demo --out=a.snap --variant-out=b.snap
//
//   # End-to-end smoke test: build -> snapshot -> reload -> query -> swap.
//   hypermine_serve --selftest
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "api/engine.h"
#include "api/model.h"
#include "core/discretize.h"
#include "net/server.h"
#include "serve/snapshot.h"
#include "util/build_info.h"
#include "util/flags.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/stopwatch.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace hypermine {
namespace {

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

void PrintProvenance(const api::ModelSpec& spec) {
  const api::ModelProvenance& p = spec.provenance;
  if (p.empty() && spec.discretization.empty()) {
    std::printf("  provenance: (none recorded; v1 snapshot or CSV)\n");
    return;
  }
  std::printf("  provenance: git_sha=%s",
              p.git_sha.empty() ? "?" : p.git_sha.c_str());
  if (p.created_unix != 0) {
    std::printf(" created_unix=%llu",
                static_cast<unsigned long long>(p.created_unix));
  }
  if (!p.source.empty()) std::printf(" source=\"%s\"", p.source.c_str());
  if (!p.note.empty()) std::printf(" note=\"%s\"", p.note.c_str());
  std::printf("\n");
  if (!spec.discretization.empty()) {
    std::printf("  discretization: %s\n", spec.discretization.c_str());
    // Only meaningful when a real spec was recorded — for CSV inputs the
    // config holds defaults, not the parameters the model was built with.
    std::printf("  gammas: edge=%.3f hyper=%.3f (k=%zu)\n",
                spec.config.gamma_edge, spec.config.gamma_hyper,
                spec.config.k);
  }
}

int RunConvert(const FlagParser& flags) {
  const std::string in = flags.GetString("in", "");
  const std::string out = flags.GetString("out", "");
  if (in.empty() || out.empty()) {
    std::fprintf(stderr, "usage: hypermine_serve --convert --in=X --out=Y\n");
    return 1;
  }
  auto model = api::Model::FromFile(in);
  if (!model.ok()) return Fail(model.status());
  const api::Model& live = **model;
  api::ModelSpec spec = live.spec();
  if (spec.provenance.empty() && !EndsWith(out, ".csv")) {
    // CSV inputs (and v1 snapshots) carry no provenance; stamp the
    // conversion itself so the output snapshot is attributable. Written
    // via the snapshot layer directly — re-wrapping the graph in a new
    // Model would deep-copy it just to attach the stamp.
    spec.provenance.source = "converted from " + in;
    spec.provenance.git_sha = GitSha();
  }
  Status status = EndsWith(out, ".csv")
                      ? live.ExportCsv(out)
                      : serve::WriteSnapshot(live.graph(), spec, out);
  if (!status.ok()) return Fail(status);
  std::printf("converted %s -> %s (%zu vertices, %zu edges)\n", in.c_str(),
              out.c_str(), live.num_vertices(), live.num_edges());
  PrintProvenance(spec);
  return 0;
}

/// Reads a positive integer flag, failing loudly on zero/negative values
/// instead of letting a huge size_t reach the engine.
bool GetPositive(const FlagParser& flags, const std::string& name,
                 int64_t fallback, size_t* out) {
  int64_t value = flags.GetInt(name, fallback);
  if (value <= 0) {
    std::fprintf(stderr, "error: --%s must be positive (got %lld)\n",
                 name.c_str(), static_cast<long long>(value));
    return false;
  }
  *out = static_cast<size_t>(value);
  return true;
}

void PrintResponse(const StatusOr<api::QueryResponse>& response,
                   const api::Model& model) {
  if (!response.ok()) {
    std::printf("  error: %s\n", response.status().ToString().c_str());
    return;
  }
  for (const serve::RankedConsequent& r : response->ranked) {
    std::printf("  %s  acv=%.4f%s\n",
                model.graph().vertex_name(r.head).c_str(), r.acv,
                response->from_cache ? "  (cached)" : "");
  }
  if (!response->closure.empty()) {
    std::string names;
    for (core::VertexId v : response->closure) {
      if (!names.empty()) names += ", ";
      names += model.graph().vertex_name(v);
    }
    std::printf("  closure: {%s}\n", names.c_str());
  }
  if (response->ranked.empty() && response->closure.empty()) {
    std::printf("  (no consequents)\n");
  }
}

/// Runs one hot reload through api::ReloadEngineFromFile and reports the
/// outcome — called on the reload pool, never on the stdin/reactor thread
/// (snapshot IO and the index build block for a large model). Outcome
/// counters land in the process's registry so /metrics and !stats show how
/// often reloads succeed, fail to load, or go live and get rolled back.
void RunReload(api::Engine* engine, metrics::Registry* registry,
               const std::string& path) {
  Stopwatch timer;
  const api::ReloadReport report = api::ReloadEngineFromFile(engine, path);
  registry
      ->GetCounter("hypermine_reloads_total",
                  "Hot reload attempts via !reload.")
      ->Increment();
  if (report.rolled_back) {
    registry
        ->GetCounter("hypermine_reload_rollbacks_total",
                    "Reloads that went live, failed the post-swap probe, "
                    "and were rolled back.")
        ->Increment();
  }
  if (!report.status.ok()) {
    registry
        ->GetCounter("hypermine_reload_failures_total",
                    "Reloads that did not leave a new model serving.")
        ->Increment();
    std::printf(report.rolled_back
                    ? "reload rolled back (serving v%llu again): %s\n"
                    : "reload failed (still serving v%llu): %s\n",
                static_cast<unsigned long long>(report.old_version),
                report.status.ToString().c_str());
    std::fflush(stdout);
    return;
  }
  std::shared_ptr<const api::Model> live = engine->model();
  std::printf("reloaded %s in %.1f ms: %s\n", path.c_str(),
              timer.ElapsedMillis(), live->ToString().c_str());
  PrintProvenance(live->spec());
  std::fflush(stdout);
}

/// Handles a '!' command line in serve mode. Unknown commands and failed
/// reloads are reported, not fatal — the serving loop keeps going. Acks
/// are flushed eagerly: with stdout redirected to a file (CI smokes poll
/// it for the "reloaded" line while the process is alive), stdio is
/// block-buffered and an unflushed ack would sit invisible for minutes.
///
/// `!reload` is asynchronous: the line is acknowledged immediately and the
/// load runs on `reload_pool` (one thread, so concurrent !reload lines
/// serialize — api::ReloadEngineFromFile requires it) while stdin queries
/// and the TCP front-end keep answering on the old model.
void RunCommand(const std::string& line, api::Engine* engine,
                net::Server* server, metrics::Registry* registry,
                ThreadPool* reload_pool) {
  if (line == "!stats") {
    // The same JSON document GET /statusz serves, so operators without
    // curl (or without --admin-port) read identical numbers on stdin.
    std::printf("%s", net::StatuszJson(engine, server, registry).c_str());
    std::fflush(stdout);
    return;
  }
  if (line == "!info") {
    std::shared_ptr<const api::Model> live = engine->model();
    std::printf("%s\n", live->ToString().c_str());
    PrintProvenance(live->spec());
    std::fflush(stdout);
    return;
  }
  if (line == "!drain") {
    if (server == nullptr) {
      std::printf("!drain needs --listen (no TCP front-end to drain)\n");
      std::fflush(stdout);
      return;
    }
    server->Drain();
    std::printf(
        "draining: refusing new query connections, finishing in-flight "
        "work; /healthz now answers 503\n");
    std::fflush(stdout);
    return;
  }
  if (line.rfind("!reload ", 0) == 0) {
    const std::string path = Trim(line.substr(8));
    reload_pool->Submit(
        [engine, registry, path] { RunReload(engine, registry, path); });
    std::printf("reload of %s started\n", path.c_str());
    std::fflush(stdout);
    return;
  }
  std::printf(
      "unknown command %s (try !info, !stats, !drain or !reload <path>)\n",
      line.c_str());
  std::fflush(stdout);
}

int RunServe(const FlagParser& flags) {
  // The process's one metrics store: the server counts into it, reloads
  // count their outcomes, and !stats prints it. Declared first, so it
  // outlives everything that writes to it.
  metrics::Registry registry;
  if (flags.Has("log-level")) {
    internal_logging::LogSeverity severity;
    if (!internal_logging::ParseLogSeverity(
            flags.GetString("log-level", ""), &severity)) {
      std::fprintf(stderr,
                   "error: --log-level must be info, warning or error\n");
      return 1;
    }
    internal_logging::SetMinLogSeverity(severity);
  }
  const std::string path = flags.GetString("snapshot", "");
  Stopwatch load_timer;
  auto model = api::Model::FromFile(path);
  if (!model.ok()) return Fail(model.status());
  // Force the lazy index now so "loaded" means "ready to answer" — the
  // first query must not silently pay the index-build cost.
  const size_t tail_sets = (*model)->index().num_tail_sets();
  std::fprintf(stderr, "loaded %s in %.1f ms: %s, %zu tail sets\n",
               path.c_str(), load_timer.ElapsedMillis(),
               (*model)->ToString().c_str(), tail_sets);

  api::EngineOptions options;
  api::QueryRequest request;
  if (!GetPositive(flags, "threads", 1, &options.num_threads) ||
      !GetPositive(flags, "k", 10, &request.k)) {
    return 1;
  }
  api::Engine engine(*model, options);
  // One thread so queued !reload lines run in order (ReloadEngineFromFile
  // requires serialized reloads). Declared after the engine: the pool is
  // destroyed first, draining any queued reload while the engine it
  // captures is still alive.
  ThreadPool reload_pool(1);

  request.min_acv = flags.GetDouble("min_acv", 0.0);
  request.kind = flags.GetString("mode", "topk") == "reach"
                     ? api::QueryRequest::Kind::kReachable
                     : api::QueryRequest::Kind::kTopK;

  // Optional TCP front-end over the same engine: stdin commands (!reload)
  // and socket queries share the model slot, so a swap issued here is
  // observed by every connected client with zero dropped queries.
  std::unique_ptr<net::Server> server;
  if (flags.Has("listen")) {
    const int64_t port = flags.GetInt("listen", 0);
    if (port < 0 || port > 0xFFFF) {
      std::fprintf(stderr, "error: --listen port out of range\n");
      return 1;
    }
    net::ServerOptions server_options;
    server_options.port = static_cast<uint16_t>(port);
    server_options.max_queries_per_connection = static_cast<uint64_t>(
        std::max<int64_t>(0, flags.GetInt("quota", 0)));
    const int64_t max_connections =
        flags.GetInt("max-connections",
                     static_cast<int64_t>(server_options.max_connections));
    if (max_connections <= 0) {
      std::fprintf(stderr, "error: --max-connections must be positive\n");
      return 1;
    }
    server_options.max_connections = static_cast<size_t>(max_connections);
    const int64_t idle_ms = flags.GetInt("idle-timeout-ms", 0);
    if (idle_ms < 0) {
      std::fprintf(stderr, "error: --idle-timeout-ms must be >= 0\n");
      return 1;
    }
    server_options.idle_timeout_ms = static_cast<int>(idle_ms);
    const int64_t queue_wait_ms = flags.GetInt("max-queue-wait-ms", 0);
    if (queue_wait_ms < 0) {
      std::fprintf(stderr, "error: --max-queue-wait-ms must be >= 0\n");
      return 1;
    }
    server_options.max_queue_wait_ms = static_cast<int>(queue_wait_ms);
    const int64_t stall_ms = flags.GetInt("stall-timeout-ms", 0);
    if (stall_ms < 0) {
      std::fprintf(stderr, "error: --stall-timeout-ms must be >= 0\n");
      return 1;
    }
    server_options.stall_timeout_ms = static_cast<int>(stall_ms);
    const int64_t reactors = flags.GetInt(
        "reactors", static_cast<int64_t>(server_options.num_reactors));
    if (reactors < 0) {
      std::fprintf(stderr, "error: --reactors must be >= 0\n");
      return 1;
    }
    server_options.num_reactors = static_cast<size_t>(reactors);
    if (flags.Has("admin-port")) {
      const int64_t admin_port = flags.GetInt("admin-port", -1);
      if (admin_port < 0 || admin_port > 0xFFFF) {
        std::fprintf(stderr, "error: --admin-port out of range\n");
        return 1;
      }
      server_options.admin_port = static_cast<int>(admin_port);
    }
    server_options.registry = &registry;
    auto started = net::Server::Start(&engine, server_options);
    if (!started.ok()) return Fail(started.status());
    server = std::move(*started);
    std::fprintf(stderr,
                 "listening on 127.0.0.1:%u (protocol v%u, %zu "
                 "reactor%s, up to %zu connections)\n",
                 unsigned{server->port()}, unsigned{net::kProtocolVersion},
                 server->num_reactors(),
                 server->num_reactors() == 1 ? "" : "s",
                 server_options.max_connections);
    if (server->admin_port() != 0) {
      std::fprintf(stderr,
                   "admin plane on 127.0.0.1:%u (GET /metrics, /healthz, "
                   "/statusz)\n",
                   unsigned{server->admin_port()});
    }
  } else if (flags.Has("admin-port")) {
    std::fprintf(stderr, "error: --admin-port requires --listen\n");
    return 1;
  }

  std::string line;
  while (std::getline(std::cin, line)) {
    line = Trim(line);
    if (line.empty()) continue;
    if (line[0] == '!') {
      RunCommand(line, &engine, server.get(), &registry, &reload_pool);
      continue;
    }
    request.names.clear();
    for (const std::string& raw : Split(line, ',')) {
      std::string name = Trim(raw);
      if (!name.empty()) request.names.push_back(std::move(name));
    }
    if (request.names.empty()) {
      std::printf("  (no vertices in query)\n");
      continue;
    }
    // Pin the model for printing: names in the answer must be resolved
    // against the model that produced it, which a concurrent !reload in a
    // future async front-end could otherwise change under us.
    std::shared_ptr<const api::Model> live = engine.model();
    PrintResponse(engine.Query(request), *live);
  }
  return 0;
}

/// Builds the Chapter 3 patient-database model (same data as
/// examples/quickstart.cpp) through the api with full provenance.
StatusOr<std::shared_ptr<const api::Model>> BuildDemoModel(
    size_t num_threads) {
  const std::vector<std::vector<double>> raw = {
      {25, 105, 135, 75}, {62, 160, 165, 85}, {32, 125, 139, 71},
      {12, 95, 105, 67},  {38, 129, 135, 75}, {39, 121, 117, 71},
      {41, 134, 145, 73}, {85, 125, 155, 78},
  };
  std::vector<std::vector<core::ValueId>> columns(4);
  for (size_t attr = 0; attr < 4; ++attr) {
    std::vector<double> series;
    for (const auto& row : raw) series.push_back(row[attr]);
    HM_ASSIGN_OR_RETURN(columns[attr],
                        core::FloorDivDiscretize(series, 10.0));
  }
  HM_ASSIGN_OR_RETURN(
      core::Database db,
      core::DatabaseFromColumns({"A", "C", "B", "H"}, 17, columns));
  api::ModelSpec spec;
  spec.config = core::ConfigC1();
  spec.config.k = db.num_values();
  spec.config.num_threads = num_threads;
  spec.discretization = "floor(value / 10) per Table 3.2";
  spec.provenance.source = "chapter-3 patient database (8 observations)";
  return api::Model::Build(db, std::move(spec));
}

/// The demo model with every weight w replaced by 1 - w: same vertices and
/// edges, reversed ACV ranking, so swapping it in flips top-k answers —
/// which is exactly what the CI reload smoke asserts.
std::shared_ptr<const api::Model> InvertDemoModel(const api::Model& base) {
  auto graph =
      core::DirectedHypergraph::Create(base.graph().vertex_names());
  HM_CHECK_OK(graph.status());
  for (const core::Hyperedge& e : base.graph().edges()) {
    std::vector<core::VertexId> tail(e.TailSpan().begin(),
                                     e.TailSpan().end());
    HM_CHECK_OK(
        graph->AddEdge(std::move(tail), e.head, 1.0 - e.weight).status());
  }
  api::ModelSpec spec = base.spec();
  spec.provenance.note = "demo variant: weights inverted (w -> 1 - w)";
  return api::Model::FromGraph(std::move(graph).value(), std::move(spec));
}

int RunMakeDemo(const FlagParser& flags) {
  const std::string out = flags.GetString("out", "");
  if (out.empty()) {
    std::fprintf(stderr,
                 "usage: hypermine_serve --make-demo --out=a.snap "
                 "[--variant-out=b.snap]\n");
    return 1;
  }
  auto model = BuildDemoModel(0);
  if (!model.ok()) return Fail(model.status());
  Status written = (*model)->SaveSnapshot(out);
  if (!written.ok()) return Fail(written);
  std::printf("wrote demo snapshot %s (%zu vertices, %zu edges)\n",
              out.c_str(), (*model)->num_vertices(), (*model)->num_edges());
  const std::string variant_out = flags.GetString("variant-out", "");
  if (!variant_out.empty()) {
    std::shared_ptr<const api::Model> variant = InvertDemoModel(**model);
    written = variant->SaveSnapshot(variant_out);
    if (!written.ok()) return Fail(written);
    std::printf("wrote variant snapshot %s (inverted weights)\n",
                variant_out.c_str());
  }
  return 0;
}

int RunSelfTest(const FlagParser& flags) {
  auto built = BuildDemoModel(
      static_cast<size_t>(std::max<int64_t>(0, flags.GetInt("threads", 0))));
  if (!built.ok()) return Fail(built.status());
  const std::string path = "/tmp/hypermine_selftest.snap";
  Status written = (*built)->SaveSnapshot(path);
  if (!written.ok()) return Fail(written);
  auto model = api::Model::FromFile(path);
  if (!model.ok()) return Fail(model.status());
  HM_CHECK_EQ((*model)->num_edges(), (*built)->num_edges());
  HM_CHECK_EQ((*model)->num_vertices(), (*built)->num_vertices());
  // The spec trailer must survive the round trip.
  HM_CHECK((*model)->spec().provenance.source ==
           (*built)->spec().provenance.source);
  HM_CHECK((*model)->spec().provenance.git_sha ==
           (*built)->spec().provenance.git_sha);

  api::Engine engine(*model);
  std::printf("selftest: %zu vertices, %zu edges round-tripped through %s\n",
              (*model)->num_vertices(), (*model)->num_edges(), path.c_str());
  PrintProvenance((*model)->spec());
  std::vector<api::QueryRequest> batch;
  for (core::VertexId v = 0;
       v < static_cast<core::VertexId>((*model)->num_vertices()); ++v) {
    api::QueryRequest request;
    request.items = {v};
    request.k = 3;
    batch.push_back(std::move(request));
  }
  std::vector<StatusOr<api::QueryResponse>> responses =
      engine.QueryBatch(batch);
  for (size_t i = 0; i < responses.size(); ++i) {
    std::printf("top-3 for {%s}:\n",
                (*model)->graph().vertex_name(batch[i].items[0]).c_str());
    PrintResponse(responses[i], **model);
  }
  api::QueryRequest closure;
  closure.items = {0};
  closure.kind = api::QueryRequest::Kind::kReachable;
  closure.min_acv = 0.3;
  std::printf("forward closure of {%s} at min_acv=0.3:\n",
              (*model)->graph().vertex_name(0).c_str());
  PrintResponse(engine.Query(closure), **model);

  // Hot swap: the inverted-weight variant must answer with a different
  // ranking under the new model version, and the old cache must not leak
  // into it.
  api::QueryRequest probe;
  probe.names = {"A"};
  probe.k = 3;
  auto before = engine.Query(probe);
  HM_CHECK_OK(before.status());
  std::shared_ptr<const api::Model> variant = InvertDemoModel(**model);
  engine.Swap(variant);
  auto after = engine.Query(probe);
  HM_CHECK_OK(after.status());
  HM_CHECK(after->model_version == variant->version());
  HM_CHECK(!after->from_cache);
  HM_CHECK(!(before->ranked == after->ranked));
  std::printf("hot swap OK: v%llu -> v%llu flips the ranking for {A}\n",
              static_cast<unsigned long long>(before->model_version),
              static_cast<unsigned long long>(after->model_version));
  std::printf("selftest OK\n");
  return 0;
}

int Main(int argc, char** argv) {
  FlagParser flags;
  Status parsed = flags.Parse(argc, argv);
  if (!parsed.ok()) return Fail(parsed);
  if (flags.GetBool("selftest", false)) return RunSelfTest(flags);
  if (flags.GetBool("convert", false)) return RunConvert(flags);
  if (flags.GetBool("make-demo", false)) return RunMakeDemo(flags);
  if (!flags.GetString("snapshot", "").empty()) return RunServe(flags);
  std::fprintf(stderr,
               "usage:\n"
               "  hypermine_serve --convert --in=model.{csv,snap} "
               "--out=model.{csv,snap}\n"
               "  hypermine_serve --snapshot=model.snap [--k=N] "
               "[--threads=N] [--mode=topk|reach] [--min_acv=X]\n"
               "      [--log-level=info|warning|error]\n"
               "      [--listen=PORT [--admin-port=PORT] [--reactors=N] "
               "[--quota=N] [--max-connections=N]\n"
               "       [--idle-timeout-ms=N] [--max-queue-wait-ms=N] "
               "[--stall-timeout-ms=N]]\n"
               "    stdin: vertex-name queries; !reload <path> hot-swaps "
               "the model (async, rollback on a bad snapshot);\n"
               "    !drain refuses new query connections and flips "
               "/healthz to 503; !info prints provenance;\n"
               "    !stats prints the /statusz JSON\n"
               "    --listen additionally serves the framed TCP protocol "
               "on 127.0.0.1:PORT (see hypermine_client);\n"
               "    --admin-port adds GET /metrics, /healthz, /statusz "
               "(docs/observability.md) on a second port;\n"
               "    --reactors=N serves on N event-loop threads, each "
               "answering its own connections' batches\n"
               "      (default 0: one per hardware thread);\n"
               "    --threads=N answers each query batch on N threads, the "
               "reactor holding it included\n"
               "      (default 1: the engine starts no thread of its own)\n"
               "  hypermine_serve --make-demo --out=a.snap "
               "[--variant-out=b.snap]\n"
               "  hypermine_serve --selftest [--threads=N]\n");
  return 1;
}

}  // namespace
}  // namespace hypermine

int main(int argc, char** argv) { return hypermine::Main(argc, argv); }
