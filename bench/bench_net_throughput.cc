// End-to-end throughput of the TCP front-end (net::Server + net::Client)
// against the same api::Engine queried in-process: what does the wire —
// framing, syscalls, name resolution both ways — cost relative to the
// engine ceiling? Emits BENCH_net.json for the perf trajectory.
//
// The --idle-connections=N mode is the multiplexing proof: N idle,
// never-written clients (N ≫ the server's worker pool) are held open
// while the full-rate pipelined measurement runs again; an event-loop
// server should sustain ≈ the no-idle qps, where a thread-per-connection
// server could not even accept them.
//
// The --reactors=N axis shards the server's event loop over N reactor
// threads (see docs/architecture.md, multi-reactor section); the bench
// always appends a small multi-reactor sweep driven by *forked* client
// processes — one process per client, pingpong over its own connection —
// so the load generator scales past one client process's scheduler and
// the recorded per-reactor qps is not generator-bound. `num_reactors` is
// part of the workload key in BENCH_net.json (tools/check_bench.py):
// single- and multi-reactor baselines never get compared to each other.
//
//   ./bench_net_throughput [--vertices=2000] [--edges=50000]
//       [--queries=20000] [--clients=4] [--pipeline=64] [--threads=4]
//       [--server-threads=4] [--reactors=1] [--fork-clients]
//       [--idle-connections=0] [--out=BENCH_net.json] [--smoke]
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/engine.h"
#include "api/model.h"
#include "bench/common.h"
#include "build_info.h"
#include "net/client.h"
#include "net/server.h"
#include "serve/testutil.h"
#include "util/csv.h"
#include "util/flags.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace hypermine {
namespace {

using bench::PercentileMs;

/// The query mix of bench_serve_throughput, converted to names — the only
/// form the wire accepts (ids are per-model).
std::vector<api::QueryRequest> NamedQueries(size_t n, size_t vertices) {
  std::vector<api::QueryRequest> requests = serve::RandomServeQueries(
      n, vertices, 7, /*k=*/10, /*reach_every=*/16, /*reach_min_acv=*/0.8);
  for (api::QueryRequest& request : requests) {
    request.names.reserve(request.items.size());
    for (core::VertexId v : request.items) {
      request.names.push_back(StrFormat("v%u", unsigned{v}));
    }
    request.items.clear();
  }
  return requests;
}

double InProcessQps(api::Engine* engine,
                    const std::vector<api::QueryRequest>& requests,
                    size_t batch_size) {
  Stopwatch total;
  for (size_t begin = 0; begin < requests.size(); begin += batch_size) {
    size_t end = std::min(requests.size(), begin + batch_size);
    std::vector<api::QueryRequest> batch(requests.begin() + begin,
                                         requests.begin() + end);
    std::vector<StatusOr<api::QueryResponse>> responses =
        engine->QueryBatch(batch);
    for (const auto& response : responses) HM_CHECK_OK(response.status());
  }
  return static_cast<double>(requests.size()) / total.ElapsedSeconds();
}

struct NetStats {
  double qps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  uint64_t answered = 0;
};

/// Lifts the open-descriptor soft limit toward the hard limit so
/// --idle-connections can hold thousands of sockets (plus the server's
/// side of each) on stock shells.
void EnsureFdHeadroom(size_t wanted) {
  struct rlimit limit;
  if (::getrlimit(RLIMIT_NOFILE, &limit) != 0) return;
  if (limit.rlim_cur >= wanted) return;
  limit.rlim_cur = std::min<rlim_t>(limit.rlim_max, wanted);
  ::setrlimit(RLIMIT_NOFILE, &limit);
}

NetStats NetQps(uint16_t port, const std::vector<api::QueryRequest>& requests,
                size_t num_clients, size_t pipeline) {
  std::vector<std::vector<double>> round_ms(num_clients);
  std::atomic<uint64_t> answered{0};
  Stopwatch total;
  std::vector<std::thread> clients;
  for (size_t c = 0; c < num_clients; ++c) {
    clients.emplace_back([&, c] {
      auto client = net::Client::Connect("127.0.0.1", port, 2000);
      HM_CHECK_OK(client.status());
      // Client c takes the c-th stripe so every query is sent exactly once.
      for (size_t begin = c * pipeline; begin < requests.size();
           begin += num_clients * pipeline) {
        size_t end = std::min(requests.size(), begin + pipeline);
        std::vector<api::QueryRequest> chunk(requests.begin() + begin,
                                             requests.begin() + end);
        Stopwatch round;
        auto responses = client->QueryMany(chunk);
        round_ms[c].push_back(round.ElapsedMillis());
        HM_CHECK_OK(responses.status());
        HM_CHECK_EQ(responses->size(), chunk.size());
        for (const net::WireResponse& response : *responses) {
          HM_CHECK(response.code == StatusCode::kOk);
        }
        answered.fetch_add(responses->size());
      }
    });
  }
  for (std::thread& thread : clients) thread.join();
  double seconds = total.ElapsedSeconds();

  NetStats stats;
  stats.answered = answered.load();
  stats.qps = static_cast<double>(stats.answered) / seconds;
  std::vector<double> all_ms;
  for (const auto& per_client : round_ms) {
    all_ms.insert(all_ms.end(), per_client.begin(), per_client.end());
  }
  std::sort(all_ms.begin(), all_ms.end());
  stats.p50_ms = PercentileMs(all_ms, 0.50);
  stats.p99_ms = PercentileMs(all_ms, 0.99);
  return stats;
}

/// The multi-process load generator: the pingpong client shape — each
/// client is a forked *process* owning one connection, pipelining its
/// stripe of the query list and timing each round — so client-side work
/// never shares a scheduler (or a malloc arena, or a stop-the-world
/// anything) with its siblings. Each child streams its answered count and
/// raw round latencies back through a pipe; the parent reaps and merges.
/// The data per child (~a few KB of doubles) fits a pipe buffer, so
/// children never block on a parent that reads them in order.
NetStats ForkNetQps(uint16_t port,
                    const std::vector<api::QueryRequest>& requests,
                    size_t num_clients, size_t pipeline) {
  struct Child {
    pid_t pid = -1;
    int pipe_fd = -1;
  };
  std::vector<Child> children(num_clients);
  Stopwatch total;
  for (size_t c = 0; c < num_clients; ++c) {
    int fds[2];
    HM_CHECK_EQ(::pipe(fds), 0);
    const pid_t pid = ::fork();
    HM_CHECK_GE(pid, 0);
    if (pid == 0) {
      // Child: distinct exit codes instead of HM_CHECK so a failure is
      // attributable from the parent's waitpid status without interleaving
      // two processes' stderr.
      ::close(fds[0]);
      auto client = net::Client::Connect("127.0.0.1", port, 2000);
      if (!client.ok()) ::_exit(2);
      std::vector<double> round_ms;
      uint64_t answered = 0;
      for (size_t begin = c * pipeline; begin < requests.size();
           begin += num_clients * pipeline) {
        size_t end = std::min(requests.size(), begin + pipeline);
        std::vector<api::QueryRequest> chunk(requests.begin() + begin,
                                             requests.begin() + end);
        Stopwatch round;
        auto responses = client->QueryMany(chunk);
        round_ms.push_back(round.ElapsedMillis());
        if (!responses.ok() || responses->size() != chunk.size()) ::_exit(3);
        for (const net::WireResponse& response : *responses) {
          if (response.code != StatusCode::kOk) ::_exit(4);
        }
        answered += responses->size();
      }
      const uint64_t rounds = round_ms.size();
      auto write_all = [&fds](const void* data, size_t size) {
        const char* p = static_cast<const char*>(data);
        while (size > 0) {
          const ssize_t n = ::write(fds[1], p, size);
          if (n <= 0) ::_exit(5);
          p += n;
          size -= static_cast<size_t>(n);
        }
      };
      write_all(&answered, sizeof(answered));
      write_all(&rounds, sizeof(rounds));
      write_all(round_ms.data(), rounds * sizeof(double));
      ::_exit(0);
    }
    ::close(fds[1]);
    children[c] = Child{pid, fds[0]};
  }

  NetStats stats;
  std::vector<double> all_ms;
  for (Child& child : children) {
    auto read_all = [&child](void* data, size_t size) {
      char* p = static_cast<char*>(data);
      while (size > 0) {
        const ssize_t n = ::read(child.pipe_fd, p, size);
        HM_CHECK_GT(n, 0);
        p += n;
        size -= static_cast<size_t>(n);
      }
    };
    uint64_t answered = 0;
    uint64_t rounds = 0;
    read_all(&answered, sizeof(answered));
    read_all(&rounds, sizeof(rounds));
    std::vector<double> child_ms(rounds);
    if (rounds > 0) read_all(child_ms.data(), rounds * sizeof(double));
    ::close(child.pipe_fd);
    int wstatus = 0;
    HM_CHECK_EQ(::waitpid(child.pid, &wstatus, 0), child.pid);
    HM_CHECK(WIFEXITED(wstatus));
    HM_CHECK_EQ(WEXITSTATUS(wstatus), 0);
    stats.answered += answered;
    all_ms.insert(all_ms.end(), child_ms.begin(), child_ms.end());
  }
  const double seconds = total.ElapsedSeconds();
  stats.qps = static_cast<double>(stats.answered) / seconds;
  std::sort(all_ms.begin(), all_ms.end());
  stats.p50_ms = PercentileMs(all_ms, 0.50);
  stats.p99_ms = PercentileMs(all_ms, 0.99);
  return stats;
}

int Main(int argc, char** argv) {
  // The reactor narrates accepts/closes at kInfo now; keep the bench
  // tables clean without hiding real warnings.
  internal_logging::SetMinLogSeverity(
      internal_logging::LogSeverity::kWarning);
  FlagParser flags;
  HM_CHECK_OK(flags.Parse(argc, argv));
  const bool smoke = flags.GetBool("smoke", false);
  auto positive = [&flags](const char* name, int64_t fallback) {
    int64_t value = flags.GetInt(name, fallback);
    HM_CHECK_GT(value, 0);
    return static_cast<size_t>(value);
  };
  const size_t vertices = positive("vertices", smoke ? 300 : 2000);
  const size_t edges = positive("edges", smoke ? 3000 : 50000);
  const size_t num_queries = positive("queries", smoke ? 2000 : 20000);
  const size_t num_clients = positive("clients", 4);
  const size_t pipeline = positive("pipeline", 64);
  const size_t threads = positive("threads", 4);
  // The server's batch-execution pool. Deliberately small (≤ 8 in the
  // recorded runs): the whole point of the event loop is that
  // connections, idle or not, do not consume workers.
  const size_t server_threads = positive("server-threads", 4);
  // 0 = one reactor per hardware thread (resolved by the server; the
  // resolved count is what lands in the JSON workload key).
  const int64_t reactors_flag = flags.GetInt("reactors", 1);
  HM_CHECK_GE(reactors_flag, 0);
  const bool fork_clients = flags.GetBool("fork-clients", false);
  const int64_t idle_connections_flag = flags.GetInt("idle-connections", 0);
  HM_CHECK_GE(idle_connections_flag, 0);
  const size_t idle_connections = static_cast<size_t>(idle_connections_flag);
  const std::string out_path = flags.GetString("out", "BENCH_net.json");

  std::printf("bench_net_throughput: %zu vertices, %zu edges, %zu queries "
              "(%zu %s clients x pipeline %zu, server pool %zu, "
              "%lld reactor(s), %zu idle)\n",
              vertices, edges, num_queries, num_clients,
              fork_clients ? "forked" : "threaded", pipeline, server_threads,
              static_cast<long long>(reactors_flag), idle_connections);

  core::DirectedHypergraph graph =
      serve::RandomServeGraph(vertices, edges, 42);
  std::shared_ptr<const api::Model> model =
      api::Model::FromGraph(std::move(graph), {});
  model->index();  // build eagerly so neither side pays it mid-measurement

  // Cache off on both sides: this harness measures the transport against
  // the compute path, not cache hit luck.
  api::EngineOptions engine_options;
  engine_options.num_threads = threads;
  engine_options.cache_capacity = 0;
  api::Engine engine(model, engine_options);

  std::vector<api::QueryRequest> requests =
      NamedQueries(num_queries, vertices);
  const double inproc_qps = InProcessQps(&engine, requests, pipeline);

  net::ServerOptions server_options;
  server_options.max_batch = pipeline;
  server_options.num_threads = server_threads;
  server_options.num_reactors = static_cast<size_t>(reactors_flag);
  server_options.max_connections =
      std::max<size_t>(4096, idle_connections + num_clients + 64);
  // A private registry so the per-stage histograms cover exactly this
  // run's traffic (and the bench never perturbs the process default).
  metrics::Registry registry;
  server_options.registry = &registry;
  EnsureFdHeadroom(2 * (idle_connections + num_clients) + 64);
  auto server = net::Server::Start(&engine, server_options);
  HM_CHECK_OK(server.status());
  const size_t num_reactors = (*server)->num_reactors();

  auto run_load = [&](uint16_t port) {
    return fork_clients ? ForkNetQps(port, requests, num_clients, pipeline)
                        : NetQps(port, requests, num_clients, pipeline);
  };

  // Pass 1: pipelined traffic alone — the multiplexing baseline.
  NetStats net = run_load((*server)->port());
  HM_CHECK_EQ(net.answered, num_queries);  // zero dropped over the wire

  // Pass 2 (--idle-connections=N): the same traffic with N idle clients
  // parked on the same reactor. None of them is ever written to; all of
  // them must still be connected afterwards.
  NetStats idle_net;
  double idle_ratio = 0.0;
  if (idle_connections > 0) {
    std::vector<net::Socket> parked;
    parked.reserve(idle_connections);
    for (size_t i = 0; i < idle_connections; ++i) {
      auto socket =
          net::Socket::Connect("127.0.0.1", (*server)->port(), 2000);
      HM_CHECK_OK(socket.status());
      parked.push_back(std::move(*socket));
    }
    // connect() returning only proves the kernel queued the socket; wait
    // until the reactor has actually accepted all of them so the idle
    // pass measures steady-state coexistence, not accept-storm overlap.
    for (int spin = 0; spin < 1000; ++spin) {
      if ((*server)->stats().connections_accepted >=
          num_clients + idle_connections) {
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    idle_net = run_load((*server)->port());
    HM_CHECK_EQ(idle_net.answered, num_queries);
    idle_ratio = net.qps > 0 ? idle_net.qps / net.qps : 0.0;
    // Still connected: a poll on each parked socket must see silence,
    // not a hangup (the reactor never reaped or starved them).
    for (net::Socket& socket : parked) {
      HM_CHECK(!socket.Readable(0));
    }
  }

  net::ServerStats server_stats = (*server)->stats();
  // Per-stage wire latency (docs/observability.md): where a round trip's
  // time went — reactor-to-worker queue wait, engine batch execution,
  // response write-drain. Snapshots are taken before Stop so they cover
  // exactly the measured traffic.
  const metrics::Histogram::Snapshot queue_wait =
      registry.GetHistogram("hypermine_net_queue_wait_seconds")
          ->TakeSnapshot();
  const metrics::Histogram::Snapshot engine_batch =
      registry.GetHistogram("hypermine_engine_batch_seconds")
          ->TakeSnapshot();
  const metrics::Histogram::Snapshot write_drain =
      registry.GetHistogram("hypermine_net_write_drain_seconds")
          ->TakeSnapshot();
  (*server)->Stop();

  // Multi-reactor sweep: a fresh server per reactor count, always driven
  // by forked clients so generator contention never masks a server-side
  // scaling difference. `reactors_hit` counts reactors that accepted at
  // least one connection — under SO_REUSEPORT the kernel's flow hash
  // picks the listener, so with few clients the spread is best-effort.
  struct SweepPoint {
    size_t num_reactors = 0;
    NetStats net;
    size_t reactors_hit = 0;
  };
  std::vector<SweepPoint> sweep;
  const std::vector<size_t> sweep_counts =
      smoke ? std::vector<size_t>{1, 2} : std::vector<size_t>{1, 2, 4};
  for (size_t reactor_count : sweep_counts) {
    net::ServerOptions sweep_options = server_options;
    sweep_options.num_reactors = reactor_count;
    auto sweep_server = net::Server::Start(&engine, sweep_options);
    HM_CHECK_OK(sweep_server.status());
    SweepPoint point;
    point.num_reactors = (*sweep_server)->num_reactors();
    point.net = ForkNetQps((*sweep_server)->port(), requests, num_clients,
                           pipeline);
    HM_CHECK_EQ(point.net.answered, num_queries);
    const net::ServerStats sweep_stats = (*sweep_server)->stats();
    for (const net::ReactorStats& reactor : sweep_stats.per_reactor) {
      if (reactor.connections_accepted > 0) ++point.reactors_hit;
    }
    (*sweep_server)->Stop();
    sweep.push_back(point);
  }

  const double wire_cost =
      net.qps > 0 ? inproc_qps / net.qps : 0.0;
  std::printf("%-22s %12s %10s %10s\n", "configuration", "queries/s",
              "p50 ms", "p99 ms");
  std::printf("%-22s %12.0f %10s %10s\n", "in-process engine", inproc_qps,
              "-", "-");
  std::printf("%-22s %12.0f %10.3f %10.3f\n", "over TCP loopback", net.qps,
              net.p50_ms, net.p99_ms);
  if (idle_connections > 0) {
    std::printf("%-22s %12.0f %10.3f %10.3f   (%.1f%% of no-idle qps)\n",
                StrFormat("+ %zu idle conns", idle_connections).c_str(),
                idle_net.qps, idle_net.p50_ms, idle_net.p99_ms,
                100.0 * idle_ratio);
  }
  std::printf("wire cost: %.2fx engine qps; server saw %llu batches for "
              "%llu queries (avg coalesce %.1f)\n",
              wire_cost,
              static_cast<unsigned long long>(server_stats.batches),
              static_cast<unsigned long long>(server_stats.queries_answered),
              server_stats.batches > 0
                  ? static_cast<double>(server_stats.queries_answered) /
                        static_cast<double>(server_stats.batches)
                  : 0.0);
  std::printf("%-22s %10s %10s\n", "stage latency", "p50 ms", "p99 ms");
  std::printf("%-22s %10.3f %10.3f\n", "queue wait",
              1e3 * queue_wait.Percentile(0.50),
              1e3 * queue_wait.Percentile(0.99));
  std::printf("%-22s %10.3f %10.3f\n", "engine batch",
              1e3 * engine_batch.Percentile(0.50),
              1e3 * engine_batch.Percentile(0.99));
  std::printf("%-22s %10.3f %10.3f\n", "write drain",
              1e3 * write_drain.Percentile(0.50),
              1e3 * write_drain.Percentile(0.99));
  std::printf("%-22s %12s %10s %10s %8s\n", "reactor sweep (forked)",
              "queries/s", "p50 ms", "p99 ms", "hit");
  for (const SweepPoint& point : sweep) {
    std::printf("%-22s %12.0f %10.3f %10.3f %5zu/%zu\n",
                StrFormat("%zu reactor(s)", point.num_reactors).c_str(),
                point.net.qps, point.net.p50_ms, point.net.p99_ms,
                point.reactors_hit, point.num_reactors);
  }

  std::string idle_json = "null";
  if (idle_connections > 0) {
    idle_json = StrFormat(
        "{\"connections\": %zu, \"qps\": %.1f, \"p50_round_ms\": %.3f, "
        "\"p99_round_ms\": %.3f, \"answered\": %llu, "
        "\"ratio_vs_no_idle\": %.3f}",
        idle_connections, idle_net.qps, idle_net.p50_ms, idle_net.p99_ms,
        static_cast<unsigned long long>(idle_net.answered), idle_ratio);
  }
  std::string sweep_json = "[";
  for (size_t i = 0; i < sweep.size(); ++i) {
    sweep_json += StrFormat(
        "%s\n    {\"num_reactors\": %zu, \"qps\": %.1f, "
        "\"p50_round_ms\": %.3f, \"p99_round_ms\": %.3f, "
        "\"answered\": %llu, \"reactors_hit\": %zu}",
        i == 0 ? "" : ",", sweep[i].num_reactors, sweep[i].net.qps,
        sweep[i].net.p50_ms, sweep[i].net.p99_ms,
        static_cast<unsigned long long>(sweep[i].net.answered),
        sweep[i].reactors_hit);
  }
  sweep_json += "\n  ]";
  std::string json = StrFormat(
      "{\n"
      "  \"bench\": \"net_throughput\",\n"
      "  \"git_sha\": \"%s\",\n"
      "  \"build_type\": \"%s\",\n"
      "  \"vertices\": %zu,\n"
      "  \"edges\": %zu,\n"
      "  \"queries\": %zu,\n"
      "  \"clients\": %zu,\n"
      "  \"pipeline\": %zu,\n"
      "  \"server_threads\": %zu,\n"
      "  \"num_reactors\": %zu,\n"
      "  \"load_generator\": \"%s\",\n"
      "  \"hardware_threads\": %u,\n"
      "  \"in_process\": {\"qps\": %.1f},\n"
      "  \"net\": {\"qps\": %.1f, \"p50_round_ms\": %.3f, "
      "\"p99_round_ms\": %.3f, \"answered\": %llu, \"dropped\": 0},\n"
      "  \"idle\": %s,\n"
      "  \"multi_reactor\": %s,\n"
      "  \"server\": {\"batches\": %llu, \"avg_coalesce\": %.2f, "
      "\"frames_coalesced\": %llu, \"queue_depth_peak\": %zu},\n"
      "  \"stage_latency_ms\": {\n"
      "    \"queue_wait\": {\"p50\": %.4f, \"p99\": %.4f},\n"
      "    \"engine_batch\": {\"p50\": %.4f, \"p99\": %.4f},\n"
      "    \"write_drain\": {\"p50\": %.4f, \"p99\": %.4f}\n"
      "  },\n"
      "  \"wire_cost_factor\": %.3f\n"
      "}\n",
      bench::GitSha(), bench::BuildType(), vertices, edges, num_queries,
      num_clients, pipeline, server_threads, num_reactors,
      fork_clients ? "processes" : "threads",
      std::thread::hardware_concurrency(),
      inproc_qps, net.qps, net.p50_ms, net.p99_ms,
      static_cast<unsigned long long>(net.answered), idle_json.c_str(),
      sweep_json.c_str(),
      static_cast<unsigned long long>(server_stats.batches),
      server_stats.batches > 0
          ? static_cast<double>(server_stats.queries_answered) /
                static_cast<double>(server_stats.batches)
          : 0.0,
      static_cast<unsigned long long>(server_stats.frames_coalesced),
      server_stats.queue_depth_peak,
      1e3 * queue_wait.Percentile(0.50), 1e3 * queue_wait.Percentile(0.99),
      1e3 * engine_batch.Percentile(0.50),
      1e3 * engine_batch.Percentile(0.99),
      1e3 * write_drain.Percentile(0.50),
      1e3 * write_drain.Percentile(0.99),
      wire_cost);
  HM_CHECK_OK(WriteStringToFile(out_path, json));
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}

}  // namespace
}  // namespace hypermine

int main(int argc, char** argv) { return hypermine::Main(argc, argv); }
