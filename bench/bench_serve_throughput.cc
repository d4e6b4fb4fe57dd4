// Serving-path throughput harness over the api façade: snapshot load time,
// rule-index build time, then queries/sec and batch latency of api::Engine,
// single- vs multi-threaded, plus a cache-enabled pass and the hot-swap
// latency of Engine::Swap. Emits BENCH_serve.json for the perf trajectory.
//
//   ./bench_serve_throughput [--vertices=2000] [--edges=50000]
//       [--queries=20000] [--batch=256] [--threads=4]
//       [--out=BENCH_serve.json]
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/engine.h"
#include "api/model.h"
#include "bench/common.h"
#include "build_info.h"
#include "serve/snapshot.h"
#include "serve/testutil.h"
#include "util/csv.h"
#include "util/flags.h"
#include "util/logging.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace hypermine {
namespace {

struct RunStats {
  double qps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double hit_rate = 0.0;
};

using bench::PercentileMs;

RunStats RunEngine(std::shared_ptr<const api::Model> model,
                   const std::vector<api::QueryRequest>& requests,
                   size_t num_threads, size_t batch_size,
                   size_t cache_capacity) {
  api::EngineOptions options;
  options.num_threads = num_threads;
  options.cache_capacity = cache_capacity;
  api::Engine engine(std::move(model), options);

  std::vector<double> batch_ms;
  Stopwatch total;
  for (size_t begin = 0; begin < requests.size(); begin += batch_size) {
    size_t end = std::min(requests.size(), begin + batch_size);
    std::vector<api::QueryRequest> batch(requests.begin() + begin,
                                         requests.begin() + end);
    Stopwatch per_batch;
    std::vector<StatusOr<api::QueryResponse>> responses =
        engine.QueryBatch(batch);
    batch_ms.push_back(per_batch.ElapsedMillis());
    HM_CHECK_EQ(responses.size(), batch.size());
    for (const auto& response : responses) HM_CHECK_OK(response.status());
  }
  double seconds = total.ElapsedSeconds();

  RunStats stats;
  stats.qps = static_cast<double>(requests.size()) / seconds;
  std::sort(batch_ms.begin(), batch_ms.end());
  stats.p50_ms = PercentileMs(batch_ms, 0.50);
  stats.p99_ms = PercentileMs(batch_ms, 0.99);
  api::CacheStats cache = engine.cache_stats();
  uint64_t lookups = cache.hits + cache.misses;
  stats.hit_rate = lookups == 0
                       ? 0.0
                       : static_cast<double>(cache.hits) /
                             static_cast<double>(lookups);
  return stats;
}

int Main(int argc, char** argv) {
  FlagParser flags;
  HM_CHECK_OK(flags.Parse(argc, argv));
  auto positive = [&flags](const char* name, int64_t fallback) {
    int64_t value = flags.GetInt(name, fallback);
    HM_CHECK_GT(value, 0);
    return static_cast<size_t>(value);
  };
  const size_t vertices = positive("vertices", 2000);
  const size_t edges = positive("edges", 50000);
  const size_t num_queries = positive("queries", 20000);
  const size_t batch = positive("batch", 256);
  const size_t threads = positive("threads", 4);
  const std::string out_path =
      flags.GetString("out", "BENCH_serve.json");

  std::printf("bench_serve_throughput: %zu vertices, %zu edges, %zu queries "
              "(batch %zu)\n",
              vertices, edges, num_queries, batch);

  core::DirectedHypergraph graph =
      serve::RandomServeGraph(vertices, edges, 42);
  const std::string snap_path = "/tmp/bench_serve.snap";
  api::ModelSpec spec;
  spec.provenance.source = "bench_serve_throughput random graph";
  HM_CHECK_OK(serve::WriteSnapshot(graph, spec, snap_path));

  Stopwatch load_timer;
  auto model = api::Model::FromFile(snap_path);
  HM_CHECK_OK(model.status());
  const double load_ms = load_timer.ElapsedMillis();
  auto snap_bytes = ReadFileToString(snap_path);
  HM_CHECK_OK(snap_bytes.status());

  Stopwatch index_timer;
  const serve::RuleIndex& index = (*model)->index();  // lazy first build
  const double index_ms = index_timer.ElapsedMillis();
  std::printf("snapshot: %zu bytes, load %.1f ms; rule index: %zu tail "
              "sets, build %.1f ms\n",
              snap_bytes->size(), load_ms, index.num_tail_sets(), index_ms);

  std::vector<api::QueryRequest> requests = serve::RandomServeQueries(
      num_queries, vertices, 7, /*k=*/10, /*reach_every=*/16,
      /*reach_min_acv=*/0.8);

  RunStats single = RunEngine(*model, requests, 1, batch, /*cache=*/0);
  RunStats multi = RunEngine(*model, requests, threads, batch, /*cache=*/0);
  RunStats cached = RunEngine(*model, requests, threads, batch,
                              /*cache=*/4096);
  const double speedup = single.qps > 0 ? multi.qps / single.qps : 0.0;

  // Hot-swap latency: how long Engine::Swap holds up a caller (pointer
  // swap + stale-entry purge of a full cache).
  api::EngineOptions swap_options;
  swap_options.num_threads = threads;
  api::Engine swap_engine(*model, swap_options);
  for (size_t begin = 0; begin < requests.size() && begin < 4096;
       begin += batch) {
    size_t end = std::min({requests.size(), begin + batch, size_t{4096}});
    swap_engine.QueryBatch(std::vector<api::QueryRequest>(
        requests.begin() + begin, requests.begin() + end));
  }
  auto model_b = api::Model::FromFile(snap_path);
  HM_CHECK_OK(model_b.status());
  Stopwatch swap_timer;
  swap_engine.Swap(*model_b);
  const double swap_ms = swap_timer.ElapsedMillis();

  std::printf("%-22s %12s %10s %10s %9s\n", "configuration", "queries/s",
              "p50 ms", "p99 ms", "hit rate");
  std::printf("%-22s %12.0f %10.3f %10.3f %9s\n", "1 thread, no cache",
              single.qps, single.p50_ms, single.p99_ms, "-");
  std::string multi_label = StrFormat("%zu threads, no cache", threads);
  std::printf("%-22s %12.0f %10.3f %10.3f %9s\n", multi_label.c_str(),
              multi.qps, multi.p50_ms, multi.p99_ms, "-");
  std::printf("%-22s %12.0f %10.3f %10.3f %8.1f%%\n", "with cache",
              cached.qps, cached.p50_ms, cached.p99_ms,
              100.0 * cached.hit_rate);
  std::printf("multi-thread speedup: %.2fx (%zu hardware threads "
              "available); hot swap %.3f ms\n",
              speedup, static_cast<size_t>(
                           std::thread::hardware_concurrency()),
              swap_ms);

  std::string json = StrFormat(
      "{\n"
      "  \"bench\": \"serve_throughput\",\n"
      "  \"git_sha\": \"%s\",\n"
      "  \"build_type\": \"%s\",\n"
      "  \"vertices\": %zu,\n"
      "  \"edges\": %zu,\n"
      "  \"queries\": %zu,\n"
      "  \"batch_size\": %zu,\n"
      "  \"snapshot_bytes\": %zu,\n"
      "  \"snapshot_load_ms\": %.3f,\n"
      "  \"index_build_ms\": %.3f,\n"
      "  \"hardware_threads\": %u,\n"
      "  \"single_thread\": {\"qps\": %.1f, \"p50_batch_ms\": %.3f, "
      "\"p99_batch_ms\": %.3f},\n"
      "  \"multi_thread\": {\"threads\": %zu, \"qps\": %.1f, "
      "\"p50_batch_ms\": %.3f, \"p99_batch_ms\": %.3f},\n"
      "  \"multi_thread_speedup\": %.3f,\n"
      "  \"cached\": {\"qps\": %.1f, \"hit_rate\": %.4f},\n"
      "  \"hot_swap_ms\": %.3f\n"
      "}\n",
      bench::GitSha(), bench::BuildType(), vertices, edges, num_queries,
      batch, snap_bytes->size(), load_ms,
      index_ms, std::thread::hardware_concurrency(), single.qps,
      single.p50_ms, single.p99_ms, threads, multi.qps, multi.p50_ms,
      multi.p99_ms, speedup, cached.qps, cached.hit_rate, swap_ms);
  HM_CHECK_OK(WriteStringToFile(out_path, json));
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}

}  // namespace
}  // namespace hypermine

int main(int argc, char** argv) { return hypermine::Main(argc, argv); }
