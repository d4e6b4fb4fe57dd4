// Chaos harness (docs/robustness.md): thousands of queries driven through
// a randomized fault schedule — injected socket errors and short I/O,
// engine stalls, accept failures, load shedding, a slow-loris connection,
// and mid-traffic reloads that randomly roll back — while three invariants
// hold absolutely:
//
//   1. nobody crashes (the server, the clients, this process);
//   2. no wrong answer: every kOk response is byte-equal to the answer a
//      full edge scan gives for that query;
//   3. failures are clean: in-band kUnavailable, kDeadlineExceeded, or a
//      transport-level kIoError/kCorrupted — never a mystery status, and
//      every shed/stall/rollback is visible in the metrics registry.
//
// The schedule is deterministic per site for a given seed. The seed comes
// from HYPERMINE_CHAOS_SEED (CI pins three and adds one time-derived) and
// is printed up front so any failure is replayable.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "api/engine.h"
#include "api/model.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "net/socket.h"
#include "testing/scan_oracle.h"
#include "util/fault.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/string_util.h"

namespace hypermine::net {
namespace {

/// Small named model: A -> {B, C}, {A, B} -> D, C -> D.
std::shared_ptr<const api::Model> NamedModel() {
  auto graph = core::DirectedHypergraph::Create({"A", "B", "C", "D"});
  HM_CHECK_OK(graph.status());
  HM_CHECK_OK(graph->AddEdge({0}, 1, 0.9).status());
  HM_CHECK_OK(graph->AddEdge({0}, 2, 0.5).status());
  HM_CHECK_OK(graph->AddEdge({0, 1}, 3, 0.8).status());
  HM_CHECK_OK(graph->AddEdge({2}, 3, 0.7).status());
  return api::Model::FromGraph(std::move(graph).value(), {});
}

uint64_t ChaosSeed() {
  const char* env = std::getenv("HYPERMINE_CHAOS_SEED");
  if (env != nullptr && *env != '\0') {
    return std::strtoull(env, nullptr, 10);
  }
  return 20260807;  // fixed default: plain `ctest` stays reproducible
}

api::QueryRequest QueryA() {
  api::QueryRequest request;
  request.names = {"A"};
  request.k = 10;
  return request;
}

/// The answer to QueryA(), as (name, acv) pairs, from a full edge scan of
/// the model's graph (testing/scan_oracle.h), so no code under test
/// computes it: the oracle every kOk wire response must match exactly.
std::vector<std::pair<std::string, double>> Oracle(
    const std::shared_ptr<const api::Model>& model) {
  const core::DirectedHypergraph& graph = model->graph();
  const api::QueryRequest query = QueryA();
  std::vector<core::VertexId> items;
  for (core::VertexId v = 0; v < graph.num_vertices(); ++v) {
    for (const std::string& name : query.names) {
      if (graph.vertex_name(v) == name) items.push_back(v);
    }
  }
  HM_CHECK_EQ(items.size(), query.names.size());
  std::vector<std::pair<std::string, double>> oracle;
  for (const auto& [head, acv] :
       hypermine::testing::ScanTopKWithin(graph, items, query.k)) {
    oracle.emplace_back(graph.vertex_name(head), acv);
  }
  HM_CHECK(!oracle.empty());
  return oracle;
}

/// Parameter: ServerOptions::num_reactors. The whole chaos run repeats
/// with the serving path sharded — same invariants, same per-site fault
/// schedule for a given seed, and the same HYPERMINE_CHAOS_SEED replay
/// line (the parameter is in the test name, so a failure names both the
/// seed and the reactor count it needs).
class ChaosTest : public ::testing::TestWithParam<size_t> {};

TEST_P(ChaosTest, RandomizedFaultsNeverCrashCorruptOrMiscount) {
  const size_t num_reactors = GetParam();
  const uint64_t seed = ChaosSeed();
  std::printf(
      "chaos seed: %llu, reactors: %zu  (HYPERMINE_CHAOS_SEED=%llu "
      "replays this)\n",
      static_cast<unsigned long long>(seed), num_reactors,
      static_cast<unsigned long long>(seed));
  std::fflush(stdout);

  std::shared_ptr<const api::Model> model = NamedModel();
  const std::vector<std::pair<std::string, double>> oracle = Oracle(model);
  const std::string snapshot_path =
      ::testing::TempDir() + "/chaos_model.snap";
  ASSERT_TRUE(model->SaveSnapshot(snapshot_path).ok());

  metrics::Registry registry;
  api::Engine engine(model);
  ServerOptions options;
  options.port = 0;
  options.max_batch = 8;
  options.max_queue_wait_ms = 50;
  options.stall_timeout_ms = 200;
  options.registry = &registry;
  options.num_reactors = num_reactors;
  auto started = Server::Start(&engine, options);
  ASSERT_TRUE(started.ok()) << started.status();
  std::unique_ptr<Server> server = std::move(*started);

  // A slow loris: a few header bytes, then silence for the whole run. The
  // stall timer must close it while every healthy connection lives on.
  auto loris = Socket::Connect("127.0.0.1", server->port(), 2000);
  ASSERT_TRUE(loris.ok());
  ASSERT_TRUE(loris->WriteAll("hmq", 3).ok());

  fault::Injector& injector = fault::Injector::Global();
  injector.Reset();
  injector.Enable(seed);
  const auto arm = [&injector](const char* site, double probability,
                               int delay_ms = 0) {
    fault::SiteConfig config;
    config.probability = probability;
    config.delay_ms = delay_ms;
    injector.Arm(site, config);
  };
  arm("socket.read", 0.003);         // hard read errors, both sides
  arm("socket.write", 0.003);        // hard write errors, both sides
  arm("socket.read.short", 0.02);    // 1-byte reads: reassembly paths
  arm("socket.write.short", 0.02);   // 1-byte writes: partial-flush paths
  arm("socket.accept", 0.05);        // accept errors: listener mute+retry
  arm("engine.batch", 0.03, 60);     // reactor stalls -> queue-wait sheds
  arm("reload.verify", 0.5);         // post-swap probe failures -> rollback
  arm("snapshot.truncate", 0.1);     // torn reload reads
  arm("snapshot.corrupt", 0.15);     // flipped-bit reload reads

  // --- phase 1: concurrent chaos traffic + reload/rollback churn -------
  constexpr int kThreads = 4;
  constexpr int kQueriesPerThread = 500;
  std::atomic<uint64_t> ok_answers{0};
  std::atomic<uint64_t> wrong_answers{0};
  std::atomic<uint64_t> unavailable_given_up{0};
  std::atomic<uint64_t> clean_failures{0};
  std::atomic<uint64_t> unexpected_statuses{0};
  std::atomic<uint64_t> client_unavailable_seen{0};

  std::vector<std::thread> drivers;
  for (int t = 0; t < kThreads; ++t) {
    drivers.emplace_back([&, t] {
      auto connected =
          Client::Connect("127.0.0.1", server->port(), /*retry_ms=*/5000);
      if (!connected.ok()) {
        // Even under accept faults the backlog eventually drains; a
        // client that cannot connect at all is an invariant violation.
        ++unexpected_statuses;
        return;
      }
      Client client = std::move(*connected);
      CallOptions call;
      call.deadline_ms = 5000;
      call.max_retries = 8;
      call.backoff = BackoffPolicy{5, 80, true};
      const api::QueryRequest request = QueryA();
      for (int i = 0; i < kQueriesPerThread; ++i) {
        auto response = client.Query(request, call);
        if (!response.ok()) {
          const StatusCode code = response.status().code();
          if (code == StatusCode::kIoError ||
              code == StatusCode::kCorrupted ||
              code == StatusCode::kDeadlineExceeded) {
            ++clean_failures;  // retries exhausted on a clean error
          } else {
            ADD_FAILURE() << "thread " << t << " query " << i
                          << ": unexpected failure "
                          << response.status().ToString();
            ++unexpected_statuses;
          }
          continue;
        }
        if (response->code == StatusCode::kUnavailable) {
          ++unavailable_given_up;  // shed on every attempt; still clean
          continue;
        }
        if (response->code != StatusCode::kOk) {
          ADD_FAILURE() << "thread " << t << " query " << i
                        << ": unexpected in-band code "
                        << response->ToStatus().ToString();
          ++unexpected_statuses;
          continue;
        }
        bool matches = response->ranked.size() == oracle.size();
        for (size_t r = 0; matches && r < oracle.size(); ++r) {
          matches = response->ranked[r].name == oracle[r].first &&
                    response->ranked[r].acv == oracle[r].second;
        }
        if (matches) {
          ++ok_answers;
        } else {
          ++wrong_answers;
          ADD_FAILURE() << "thread " << t << " query " << i
                        << ": kOk with a WRONG answer";
        }
      }
      client_unavailable_seen += client.stats().unavailable;
    });
  }

  // Reload churn on its own (serialized) thread: good swaps, corrupt
  // loads that never go live, and injected rollbacks — all while the
  // drivers hammer the same engine.
  std::atomic<bool> stop_reloads{false};
  uint64_t reloads_ok = 0, reloads_failed = 0, rollbacks = 0;
  std::thread reloader([&] {
    while (!stop_reloads.load()) {
      api::ReloadReport report =
          api::ReloadEngineFromFile(&engine, snapshot_path);
      if (report.status.ok()) {
        ++reloads_ok;
      } else {
        ++reloads_failed;
      }
      if (report.rolled_back) ++rollbacks;
      std::this_thread::sleep_for(std::chrono::milliseconds(15));
    }
  });

  for (std::thread& driver : drivers) driver.join();
  stop_reloads.store(true);
  reloader.join();

  // --- phase 2: deterministic shed burst -------------------------------
  // One guaranteed 150 ms reactor stall, then a 32-frame pipeline: the
  // first batch (max_batch=8) rides out the stall, the later frames parsed
  // with it wait past the 50 ms budget and MUST be shed — on every seed.
  {
    fault::SiteConfig stall;
    stall.delay_ms = 150;
    stall.max_fires = 1;
    injector.Arm("engine.batch", stall);
    injector.Disarm("socket.read");
    injector.Disarm("socket.write");
    injector.Disarm("socket.read.short");
    injector.Disarm("socket.write.short");
    injector.Disarm("socket.accept");
    auto connected = Client::Connect("127.0.0.1", server->port(), 2000);
    ASSERT_TRUE(connected.ok()) << connected.status();
    Client client = std::move(*connected);
    std::vector<api::QueryRequest> burst(32, QueryA());
    auto responses = client.QueryMany(burst);
    ASSERT_TRUE(responses.ok()) << responses.status();
    uint64_t burst_shed = 0;
    for (const WireResponse& response : *responses) {
      ASSERT_TRUE(response.code == StatusCode::kOk ||
                  response.code == StatusCode::kUnavailable)
          << response.ToStatus().ToString();
      if (response.code == StatusCode::kUnavailable) ++burst_shed;
    }
    EXPECT_GE(burst_shed, 1u) << "the queue-wait shedder never engaged";
    client_unavailable_seen += burst_shed;
  }

  // --- phase 3: faults off, everything verifies ------------------------
  const uint64_t verify_fires = injector.fires("reload.verify");
  injector.Disable();

  const uint64_t total = uint64_t{kThreads} * kQueriesPerThread;
  std::printf(
      "chaos: %llu/%llu ok, %llu shed-after-retries, %llu clean transport "
      "failures; reloads ok=%llu failed=%llu rollbacks=%llu\n",
      static_cast<unsigned long long>(ok_answers.load()),
      static_cast<unsigned long long>(total),
      static_cast<unsigned long long>(unavailable_given_up.load()),
      static_cast<unsigned long long>(clean_failures.load()),
      static_cast<unsigned long long>(reloads_ok),
      static_cast<unsigned long long>(reloads_failed),
      static_cast<unsigned long long>(rollbacks));
  std::fflush(stdout);

  EXPECT_EQ(wrong_answers.load(), 0u);
  EXPECT_EQ(unexpected_statuses.load(), 0u);
  EXPECT_EQ(ok_answers.load() + unavailable_given_up.load() +
                clean_failures.load(),
            total)
      << "every query must be accounted for";
  EXPECT_GT(ok_answers.load(), total / 2)
      << "retries should carry most queries through this fault rate";

  // Rollbacks happen exactly when the injected verify failure fires, and
  // the engine must end on a servable model regardless.
  EXPECT_EQ(rollbacks, verify_fires);
  EXPECT_GT(reloads_ok + reloads_failed, 0u);

  // Counters: the server's view must cover every shed the clients saw
  // (sheds whose response died on a faulted socket are server-only), and
  // /metrics must render the same numbers.
  ServerStats stats = server->stats();
  EXPECT_GE(stats.queries_shed, client_unavailable_seen.load());
  EXPECT_GE(stats.connections_stalled, 1u) << "the loris was never caught";
  const std::string scrape = registry.PrometheusText();
  EXPECT_NE(scrape.find(StrFormat("hypermine_net_queries_shed_total %llu",
                                  static_cast<unsigned long long>(
                                      stats.queries_shed))),
            std::string::npos)
      << scrape;
  EXPECT_NE(
      scrape.find(StrFormat(
          "hypermine_net_connections_stalled_total %llu",
          static_cast<unsigned long long>(stats.connections_stalled))),
      std::string::npos)
      << scrape;

  // With faults off, a fresh connection answers correctly on the first
  // try — chaos left no residue.
  {
    auto connected = Client::Connect("127.0.0.1", server->port(), 2000);
    ASSERT_TRUE(connected.ok()) << connected.status();
    Client client = std::move(*connected);
    auto response = client.Query(QueryA());
    ASSERT_TRUE(response.ok()) << response.status();
    ASSERT_EQ(response->code, StatusCode::kOk);
    ASSERT_EQ(response->ranked.size(), oracle.size());
    for (size_t r = 0; r < oracle.size(); ++r) {
      EXPECT_EQ(response->ranked[r].name, oracle[r].first);
      EXPECT_EQ(response->ranked[r].acv, oracle[r].second);
    }
  }

  // --- phase 4: drain --------------------------------------------------
  server->Drain();
  EXPECT_TRUE(server->draining());
  EXPECT_NE(registry.PrometheusText().find("hypermine_net_draining 1"),
            std::string::npos);
  injector.Reset();
  std::remove(snapshot_path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Reactors, ChaosTest,
                         ::testing::Values(size_t{1}, size_t{2}),
                         [](const ::testing::TestParamInfo<size_t>&
                                param_info) {
                           return "reactors_" +
                                  std::to_string(param_info.param);
                         });

}  // namespace
}  // namespace hypermine::net
