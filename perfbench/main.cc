// Repository benchmark: one workload per invocation against an in-process
// server, answers checked, every metric printed by name and unit, and a
// one-line JSON result last. README.md in this directory is the manual.
//
//   perfbench --workload=topk|reach|publish [--seed=N] [--seconds=S]
//             [--trace=0|1] [--work-dir=DIR] [--quick]
//
// --quick shrinks every workload to a tiny model (perfbench/run.py --quick
// runs them all); the other flags are what run.py passes through.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "core/simd.h"
#include "perfbench.h"
#include "util/build_info.h"
#include "util/flags.h"
#include "util/logging.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace hypermine::perfbench {

namespace {

void PrintHost(const WorkloadSpec& spec, uint64_t seed, bool traced) {
  std::printf("=== perfbench %s workload=%s seed=%llu ===\n",
              traced ? "traced run" : "run", spec.name.c_str(),
              static_cast<unsigned long long>(seed));
  std::printf("host: nproc=%zu simd=%s git=%s build=%s\n", Nproc(),
              core::simd::ActiveOps().name, GitSha(), BuildType());
  std::printf(
      "model: market generator %zu series x %zu years (market seed %llu), "
      "configuration C1\n",
      spec.series, spec.years,
      static_cast<unsigned long long>(MarketSeed(seed)));
  // Threads started: one per client, the server's reactor and its owned
  // worker pool (max(4, hardware threads)), the engine's one worker, and
  // Model::Build's pool during set-up and publish cycles. At most one query
  // per connection is in flight, so busy threads stay near connections + 1.
  std::printf(
      "threads: clients=%zu connections=%zu reactors=1 server_workers=%zu "
      "engine_workers=1 build_threads=%zu%s\n",
      spec.connections, spec.connections, std::max<size_t>(4, Nproc()),
      kBuildThreads, spec.publish ? " publisher=1" : "");
}

void PrintMetrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-26s %14.6f %-6s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
}

void PrintJson(const RunResult& outcome) {
  std::string json = StrFormat(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {",
      outcome.correct ? "true" : "false",
      static_cast<unsigned long long>(outcome.attempted),
      static_cast<unsigned long long>(outcome.failed));
  for (size_t i = 0; i < outcome.metrics.size(); ++i) {
    const Metric& m = outcome.metrics[i];
    json += StrFormat("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                      i == 0 ? "" : ", ", m.name.c_str(), m.value,
                      m.unit.c_str());
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

/// The untraced run: set-up (repeated), answer check, measured window.
StatusOr<RunResult> RunUntraced(const WorkloadSpec& spec, uint64_t seed,
                                double seconds, const std::string& work_dir) {
  RunResult outcome;
  std::vector<double> setup_s, setup_build_s, setup_publish_s;
  std::unique_ptr<Deployment> deployment;
  for (size_t rep = 0; rep < spec.setup_reps; ++rep) {
    // Tear the previous set-up down first: one model in memory at a time.
    deployment.reset();
    SetupTimes times;
    HM_ASSIGN_OR_RETURN(deployment, SetUp(spec, seed, work_dir, &times));
    std::printf(
        "set-up %zu: %.3f s (generate %.3f, build %.3f, publish %.3f, "
        "server %.3f)\n",
        rep + 1, times.total_s, times.generate_s, times.build_s,
        times.publish_s, times.server_s);
    setup_s.push_back(times.total_s);
    setup_build_s.push_back(times.build_s);
    setup_publish_s.push_back(times.publish_s);
  }
  Deployment& d = *deployment;
  const std::shared_ptr<const api::Model> live = d.engine->model();
  std::printf("model: %zu vertices, %zu hyperedges, %zu tail sets; %s\n",
              live->num_vertices(), live->num_edges(),
              live->index().num_tail_sets(), d.first_stats.ToString().c_str());
  // A copy: query streams outlive the model once a publish swaps it out.
  const std::vector<std::string> names = live->graph().vertex_names();
  const uint16_t port = d.server->port();

  const CheckResult check = CheckAnswers(spec, seed, port, *live);
  outcome.correct = check.failed == 0;
  outcome.attempted += check.attempted;
  outcome.failed += check.failed;

  std::vector<QueryStream> streams;
  for (size_t c = 0; c < spec.connections; ++c) {
    streams.emplace_back(&names, spec.query_kind, StreamSeed(seed, c));
  }
  std::vector<CycleResult> cycles;
  const auto window = [&] {
    if (!spec.publish) {
      std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
      return;
    }
    Stopwatch elapsed;
    while (elapsed.ElapsedSeconds() < seconds) {
      cycles.push_back(PublishCycle(&d));
    }
  };
  const net::ServerStats before = d.server->stats();
  LoadResult load = RunClosedLoop(port, std::move(streams),
                                  spec.warmup_per_client, window);
  const net::ServerStats after = d.server->stats();

  const size_t answered = load.latency_ms.size();
  std::printf(
      "window: %.3f s, %zu queries answered OK, steal %.2f%%, process cpu "
      "%.3f s\n",
      load.seconds, answered, load.steal_pct, load.cpu_s);
  std::printf(
      "server: %llu queries answered, %llu batches, %llu shed, %llu rejected\n",
      static_cast<unsigned long long>(after.queries_answered -
                                      before.queries_answered),
      static_cast<unsigned long long>(after.batches - before.batches),
      static_cast<unsigned long long>(after.queries_shed - before.queries_shed),
      static_cast<unsigned long long>(after.queries_rejected -
                                      before.queries_rejected));
  outcome.attempted += load.attempted;
  outcome.failed += load.failed();

  std::vector<double> build_s = setup_build_s, publish_s = setup_publish_s;
  const char* cycle_note = "median of set-ups";
  if (spec.publish) {
    build_s.clear();
    publish_s.clear();
    size_t cycle_failures = 0;
    for (const CycleResult& cycle : cycles) {
      if (!cycle.ok) {
        ++cycle_failures;
        std::printf("publish cycle failed: %s\n", cycle.error.c_str());
        continue;
      }
      build_s.push_back(cycle.build_s);
      publish_s.push_back(cycle.publish_s);
    }
    outcome.attempted += cycles.size();
    outcome.failed += cycle_failures;
    if (cycle_failures > 0) outcome.correct = false;
    cycle_note = "median of cycles";
    std::printf("publish cycles: %zu, %zu failed\n", cycles.size(),
                cycle_failures);
  }
  if (build_s.empty()) return Status::Internal("no successful publish cycle");

  const SliceStats sliced = MedianSlice(load, kSliceAnswers);
  std::printf(
      "whole window: qps %.1f, p50 %.4f ms; median of %zu slices: qps %.1f, "
      "p50 %.4f ms\n",
      static_cast<double>(answered) / load.seconds,
      Percentile(load.latency_ms, 0.50), sliced.slices, sliced.qps,
      sliced.p50_ms);
  const std::string n_note =
      StrFormat("median of %zu slices, n=%zu", sliced.slices, answered);
  outcome.metrics = {
      {"setup_s", "s", Median(setup_s),
       StrFormat("median of %zu set-ups", setup_s.size())},
      {"qps", "1/s", sliced.qps, n_note},
      {"p50_ms", "ms", sliced.p50_ms, n_note},
      {"build_s", "s", Median(build_s),
       StrFormat("%s, n=%zu", cycle_note, build_s.size())},
      {"publish_s", "s", Median(publish_s),
       StrFormat("%s, n=%zu", cycle_note, publish_s.size())},
      {"rss_mb", "MiB", load.peak_rss_mb, "peak in window"},
  };
  std::printf(
      "operations: attempted %llu, failed %llu (transport %llu, shed %llu, "
      "rejected %llu, other %llu, answer check %zu)\n",
      static_cast<unsigned long long>(outcome.attempted),
      static_cast<unsigned long long>(outcome.failed),
      static_cast<unsigned long long>(load.transport_errors),
      static_cast<unsigned long long>(load.shed),
      static_cast<unsigned long long>(load.rejected),
      static_cast<unsigned long long>(load.other_errors), check.failed);
  if (!load.first_error.empty()) {
    std::printf("first query error: %s\n", load.first_error.c_str());
  }
  // Reported, not gated: the p99 of a ping-pong query follows the host's
  // steal too closely for any bound (README.md, Steadiness); the traced run
  // prints it as net.client_p99_ms.
  std::printf("p99_ms %.6f (whole window, n=%zu)\n",
              Percentile(load.latency_ms, 0.99), answered);
  std::printf("host.steal_pct %.3f\n", load.steal_pct);
  return outcome;
}

int Run(int argc, char** argv) {
  FlagParser flags;
  HM_CHECK_OK(flags.Parse(argc, argv));
  // The server logs every connection at info level; keep stderr readable.
  internal_logging::SetMinLogSeverity(internal_logging::LogSeverity::kWarning);
  const std::string work_dir = flags.GetString("work-dir", ".");
  const bool quick = flags.GetBool("quick", false);
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  const bool traced = flags.GetInt("trace", 0) != 0;
  const double seconds = flags.GetDouble("seconds", 10.0);
  const std::string name = flags.GetString("workload", "");

  auto spec = SpecFor(name, quick);
  if (!spec.ok() || seconds <= 0) {
    std::fprintf(stderr, "perfbench: %s\n",
                 spec.ok() ? "--seconds must be positive"
                           : spec.status().ToString().c_str());
    return 2;
  }
  PrintHost(*spec, seed, traced);
  auto outcome = traced ? RunTraced(*spec, seed, seconds, work_dir)
                        : RunUntraced(*spec, seed, seconds, work_dir);
  if (!outcome.ok()) {
    std::fprintf(stderr, "perfbench: %s\n",
                 outcome.status().ToString().c_str());
    return 1;
  }
  for (const Metric& metric : outcome->metrics) {
    if (!std::isfinite(metric.value)) {
      std::fprintf(stderr, "perfbench: %s is not a number\n",
                   metric.name.c_str());
      return 1;
    }
  }
  PrintMetrics(outcome->metrics);
  PrintJson(*outcome);
  return 0;
}

}  // namespace
}  // namespace hypermine::perfbench

int main(int argc, char** argv) { return hypermine::perfbench::Run(argc, argv); }
