// net::Server end to end over real loopback sockets: wire answers must
// match in-process api::Engine answers, admission control must reject
// (never stall, never drop), malformed streams must not take the server
// down, and a hot swap under live connections must flip model_version with
// zero dropped or misrouted responses.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/engine.h"
#include "api/model.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "net/socket.h"
#include "testing/process_threads.h"
#include "util/fault.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/thread_pool.h"

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

/// A model over the same vertex names whose single rule A -> `head` marks
/// it: any answer reveals which model produced it (swap-test probe).
std::shared_ptr<const api::Model> MarkedModel(core::VertexId head) {
  auto graph = core::DirectedHypergraph::Create({"A", "B", "C", "D"});
  HM_CHECK_OK(graph.status());
  HM_CHECK_OK(graph->AddEdge({0}, head, 0.9).status());
  return api::Model::FromGraph(std::move(graph).value(), {});
}

std::unique_ptr<Server> StartOrDie(api::Engine* engine,
                                   ServerOptions options = {}) {
  options.port = 0;  // ephemeral — tests must not collide on ports
  auto server = Server::Start(engine, options);
  HM_CHECK_OK(server.status());
  return std::move(*server);
}

Client ConnectOrDie(uint16_t port) {
  auto client = Client::Connect("127.0.0.1", port, /*retry_ms=*/2000);
  HM_CHECK_OK(client.status());
  return std::move(*client);
}

api::QueryRequest Named(std::vector<std::string> names, size_t k = 10) {
  api::QueryRequest request;
  request.names = std::move(names);
  request.k = k;
  return request;
}

TEST(ServerTest, WireAnswersMatchInProcessEngine) {
  api::Engine engine(NamedModel());
  auto server = StartOrDie(&engine);
  Client client = ConnectOrDie(server->port());

  api::QueryRequest request = Named({"A"});
  auto wire = client.Query(request);
  ASSERT_TRUE(wire.ok()) << wire.status();
  ASSERT_EQ(wire->code, StatusCode::kOk);

  std::shared_ptr<const api::Model> model;
  auto local = engine.Query(request, &model);
  ASSERT_TRUE(local.ok());
  ASSERT_EQ(wire->ranked.size(), local->ranked.size());
  for (size_t i = 0; i < wire->ranked.size(); ++i) {
    EXPECT_EQ(wire->ranked[i].name,
              model->graph().vertex_name(local->ranked[i].head));
    EXPECT_DOUBLE_EQ(wire->ranked[i].acv, local->ranked[i].acv);
  }
  EXPECT_EQ(wire->model_version, local->model_version);
}

TEST(ServerTest, ReachableClosureTravelsAsSortedNames) {
  api::Engine engine(NamedModel());
  auto server = StartOrDie(&engine);
  Client client = ConnectOrDie(server->port());

  api::QueryRequest request = Named({"A"});
  request.kind = api::QueryRequest::Kind::kReachable;
  request.min_acv = 0.6;
  auto wire = client.Query(request);
  ASSERT_TRUE(wire.ok()) << wire.status();
  ASSERT_EQ(wire->code, StatusCode::kOk);
  // A fires A->B (0.9); then {A,B}->D (0.8). A->C (0.5) is below 0.6.
  EXPECT_EQ(wire->closure, (std::vector<std::string>{"A", "B", "D"}));
}

TEST(ServerTest, PipelinedBatchKeepsOrderAndIsolatesPerQueryErrors) {
  api::Engine engine(NamedModel());
  auto server = StartOrDie(&engine);
  Client client = ConnectOrDie(server->port());

  std::vector<api::QueryRequest> requests = {
      Named({"A"}), Named({"NO_SUCH_VERTEX"}), Named({"C"})};
  auto responses = client.QueryMany(requests);
  ASSERT_TRUE(responses.ok()) << responses.status();
  ASSERT_EQ(responses->size(), 3u);
  EXPECT_EQ((*responses)[0].code, StatusCode::kOk);
  EXPECT_FALSE((*responses)[0].ranked.empty());
  // The bad query fails alone; its neighbors still answer.
  EXPECT_EQ((*responses)[1].code, StatusCode::kNotFound);
  EXPECT_EQ((*responses)[2].code, StatusCode::kOk);
}

TEST(ServerTest, PerConnectionQuotaRejectsWithResourceExhausted) {
  api::Engine engine(NamedModel());
  ServerOptions options;
  options.max_queries_per_connection = 3;
  auto server = StartOrDie(&engine, options);

  Client client = ConnectOrDie(server->port());
  std::vector<api::QueryRequest> requests(5, Named({"A"}));
  auto responses = client.QueryMany(requests);
  ASSERT_TRUE(responses.ok()) << responses.status();
  ASSERT_EQ(responses->size(), 5u) << "rejections must be answered, "
                                      "not dropped";
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ((*responses)[i].code, StatusCode::kOk) << "i=" << i;
  }
  for (size_t i = 3; i < 5; ++i) {
    EXPECT_EQ((*responses)[i].code, StatusCode::kResourceExhausted)
        << "i=" << i;
  }

  // The quota is per connection: over the same connection it stays
  // exhausted, while a fresh connection starts a fresh quota.
  auto again = client.Query(Named({"A"}));
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->code, StatusCode::kResourceExhausted);
  Client fresh = ConnectOrDie(server->port());
  auto fresh_response = fresh.Query(Named({"A"}));
  ASSERT_TRUE(fresh_response.ok());
  EXPECT_EQ(fresh_response->code, StatusCode::kOk);
}

TEST(ServerTest, LargePipelineDoesNotDeadlockOnSocketBuffers) {
  // Regression: QueryMany once wrote every frame before reading any
  // response; past the socket buffer capacity the server blocks writing
  // responses nobody reads while the client blocks writing requests
  // nobody reads. The windowed client must finish any batch size.
  api::Engine engine(NamedModel());
  auto server = StartOrDie(&engine);
  Client client = ConnectOrDie(server->port());

  std::vector<api::QueryRequest> requests(
      Client::kPipelineWindow * 40, Named({"A", "B", "C"}));
  auto responses = client.QueryMany(requests);
  ASSERT_TRUE(responses.ok()) << responses.status();
  ASSERT_EQ(responses->size(), requests.size());
  for (const WireResponse& response : *responses) {
    EXPECT_EQ(response.code, StatusCode::kOk);
  }
}

TEST(ServerTest, EncodeFailureMidBatchDoesNotPoisonTheConnection) {
  // Regression: QueryMany once sent frames before validating later ones;
  // an unencodable request mid-batch left unread responses that made the
  // next call on the same connection fail as "misrouted".
  api::Engine engine(NamedModel());
  auto server = StartOrDie(&engine);
  Client client = ConnectOrDie(server->port());

  std::vector<api::QueryRequest> requests = {Named({"A"}),
                                             api::QueryRequest{},  // no names
                                             Named({"C"})};
  auto responses = client.QueryMany(requests);
  ASSERT_FALSE(responses.ok());
  EXPECT_EQ(responses.status().code(), StatusCode::kInvalidArgument);

  auto after = client.Query(Named({"A"}));
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_EQ(after->code, StatusCode::kOk);
}

TEST(ServerTest, ManyConnectionsOnOneReactor) {
  // The event loop decouples connection count from thread count: one
  // reactor must serve far more than one live connection (the old
  // thread-per-connection server rejected exactly this at Start).
  api::Engine engine(NamedModel());
  ServerOptions options;
  options.port = 0;
  options.num_reactors = 1;
  options.max_connections = 64;
  auto server = Server::Start(&engine, options);
  ASSERT_TRUE(server.ok()) << server.status();

  constexpr size_t kClients = 16;  // all concurrent, all on one loop
  std::vector<std::thread> threads;
  std::atomic<uint64_t> ok{0};
  for (size_t t = 0; t < kClients; ++t) {
    threads.emplace_back([&] {
      Client client = ConnectOrDie((*server)->port());
      for (int round = 0; round < 4; ++round) {
        auto response = client.Query(Named({"A"}));
        if (response.ok() && response->code == StatusCode::kOk) {
          ok.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(ok.load(), kClients * 4);
  ServerStats stats = (*server)->stats();
  EXPECT_EQ(stats.connections_accepted, kClients);
  EXPECT_EQ(stats.connections_rejected, 0u);
}

TEST(ServerTest, IdleConnectionsShareOneReactorWithLiveTraffic) {
  // The core multiplexing claim: a thousand idle (never-written)
  // connections coexist with live traffic on one reactor, and none of
  // them is rejected, reaped, or interferes with answers.
  constexpr int kIdle = 1024;
  // Both ends of every connection are descriptors of this process.
  constexpr rlim_t kDescriptors = 2 * kIdle + 64;
  struct rlimit limit;
  ASSERT_EQ(getrlimit(RLIMIT_NOFILE, &limit), 0);
  if (limit.rlim_cur < kDescriptors) {
    if (limit.rlim_max < kDescriptors) {
      GTEST_SKIP() << "RLIMIT_NOFILE hard limit " << limit.rlim_max
                   << " is below the " << kDescriptors
                   << " descriptors this test needs";
    }
    limit.rlim_cur = kDescriptors;
    ASSERT_EQ(setrlimit(RLIMIT_NOFILE, &limit), 0);
  }
  api::Engine engine(NamedModel());
  ServerOptions options;
  options.num_reactors = 1;
  options.max_connections = 2048;
  auto server = StartOrDie(&engine, options);

  std::vector<Socket> idle;
  for (int i = 0; i < kIdle; ++i) {
    auto socket = Socket::Connect("127.0.0.1", server->port(), 2000);
    ASSERT_TRUE(socket.ok()) << socket.status();
    idle.push_back(std::move(*socket));
  }
  Client busy = ConnectOrDie(server->port());
  for (int round = 0; round < 8; ++round) {
    auto response = busy.Query(Named({"A"}));
    ASSERT_TRUE(response.ok()) << response.status();
    EXPECT_EQ(response->code, StatusCode::kOk);
  }
  ServerStats stats = server->stats();
  EXPECT_EQ(stats.connections_accepted, kIdle + 1u);
  EXPECT_EQ(stats.connections_rejected, 0u);
  EXPECT_EQ(stats.queries_answered, 8u);
  // Still connected: each idle socket sees silence, not a hangup.
  for (const Socket& socket : idle) EXPECT_FALSE(socket.Readable(0));
}

TEST(ServerTest, QueueDepthNeverDropsQueries) {
  api::Engine engine(NamedModel());
  ServerOptions options;
  options.max_queue_depth = 1;
  auto server = StartOrDie(&engine, options);
  Client client = ConnectOrDie(server->port());

  std::vector<api::QueryRequest> requests(16, Named({"A"}));
  auto responses = client.QueryMany(requests);
  ASSERT_TRUE(responses.ok()) << responses.status();
  ASSERT_EQ(responses->size(), 16u);
  size_t ok = 0;
  for (const WireResponse& response : *responses) {
    if (response.code == StatusCode::kOk) {
      ++ok;
    } else {
      EXPECT_EQ(response.code, StatusCode::kResourceExhausted);
    }
  }
  EXPECT_GE(ok, 1u) << "admission must make progress under depth pressure";
  ServerStats stats = server->stats();
  EXPECT_EQ(stats.queries_answered + stats.queries_rejected, 16u);
}

TEST(ServerTest, OversizedPayloadIsRejectedButConnectionSurvives) {
  api::Engine engine(NamedModel());
  ServerOptions options;
  options.max_query_bytes = 64;
  auto server = StartOrDie(&engine, options);
  Client client = ConnectOrDie(server->port());

  // ~1.2 KiB of names: well-formed frame, body above the server's limit.
  std::vector<std::string> many(24, std::string(48, 'z'));
  auto big = client.Query(Named(std::move(many)));
  ASSERT_TRUE(big.ok()) << big.status();
  EXPECT_EQ(big->code, StatusCode::kInvalidArgument);

  // The body was skipped, not half-read: the stream is still framed.
  auto small = client.Query(Named({"A"}));
  ASSERT_TRUE(small.ok()) << small.status();
  EXPECT_EQ(small->code, StatusCode::kOk);
}

TEST(ServerTest, ClosureAboveTheFrameCapIsAnsweredInBand) {
  // Star model: seed "s" fires 300 rules whose heads have 60,000-byte
  // names, so the legal closure of {s} encodes to ~18 MB, above the
  // 16 MiB protocol cap that every receiver treats as corruption.
  constexpr size_t kHeads = 300;
  std::vector<std::string> names = {"s"};
  for (size_t i = 0; i < kHeads; ++i) {
    names.push_back(std::to_string(i) + std::string(60000, 'h'));
  }
  auto graph = core::DirectedHypergraph::Create(std::move(names));
  HM_CHECK_OK(graph.status());
  for (core::VertexId h = 1; h <= kHeads; ++h) {
    HM_CHECK_OK(graph->AddEdge({0}, h, 0.9).status());
  }
  api::Engine engine(api::Model::FromGraph(std::move(graph).value(), {}));
  auto server = StartOrDie(&engine);
  Client client = ConnectOrDie(server->port());

  api::QueryRequest closure = Named({"s"});
  closure.kind = api::QueryRequest::Kind::kReachable;
  closure.min_acv = 0.5;
  auto big = client.Query(closure);
  ASSERT_TRUE(big.ok()) << big.status();
  EXPECT_EQ(big->code, StatusCode::kResourceExhausted);
  // 18-byte preamble, 3 bytes for "s", 300 x (2 + 60,000) for the
  // heads plus 790 digits of their indices.
  EXPECT_NE(big->message.find("301 results encodes to 18001411 bytes"),
            std::string::npos)
      << big->message;
  EXPECT_TRUE(big->closure.empty());

  // No oversized frame went out, so the connection is still framed.
  auto next = client.Query(Named({"s"}, /*k=*/1));
  ASSERT_TRUE(next.ok()) << next.status();
  EXPECT_EQ(next->code, StatusCode::kOk);
  ASSERT_EQ(next->ranked.size(), 1u);
}

TEST(ServerTest, UnknownProtocolVersionGetsUnimplementedNotDropped) {
  api::Engine engine(NamedModel());
  auto server = StartOrDie(&engine);
  auto socket = Socket::Connect("127.0.0.1", server->port(), 2000);
  ASSERT_TRUE(socket.ok());

  std::string frame;
  ASSERT_TRUE(EncodeQueryFrame(77, Named({"A"}), &frame).ok());
  frame[4] = 99;  // version field (offset 4, little-endian uint16)
  frame[5] = 0;
  ASSERT_TRUE(socket->WriteAll(frame.data(), frame.size()).ok());

  FrameHeader header;
  std::string body;
  ASSERT_TRUE(ReadFrame(&*socket, &header, &body).ok());
  EXPECT_EQ(header.version, kProtocolVersion) << "server stamps its own";
  EXPECT_EQ(header.request_id, 77u);
  WireResponse response;
  ASSERT_TRUE(DecodeResponseBody(body, &response).ok());
  EXPECT_EQ(response.code, StatusCode::kUnimplemented);

  // Same connection, correct version: still served.
  frame.clear();
  ASSERT_TRUE(EncodeQueryFrame(78, Named({"A"}), &frame).ok());
  ASSERT_TRUE(socket->WriteAll(frame.data(), frame.size()).ok());
  ASSERT_TRUE(ReadFrame(&*socket, &header, &body).ok());
  ASSERT_TRUE(DecodeResponseBody(body, &response).ok());
  EXPECT_EQ(response.code, StatusCode::kOk);
}

TEST(ServerTest, GarbageStreamDropsConnectionButServerSurvives) {
  api::Engine engine(NamedModel());
  auto server = StartOrDie(&engine);

  {
    auto socket = Socket::Connect("127.0.0.1", server->port(), 2000);
    ASSERT_TRUE(socket.ok());
    // Longer than a frame header, so the server sees a full (bad) header
    // rather than waiting for more bytes.
    const std::string garbage = "GET / HTTP/1.1\r\nHost: nonsense\r\n\r\n";
    ASSERT_TRUE(socket->WriteAll(garbage.data(), garbage.size()).ok());
    // Bad magic is unrecoverable; the server hangs up on us.
    char byte;
    Status read = socket->ReadFull(&byte, 1);
    EXPECT_FALSE(read.ok());
  }
  {
    // Valid header, then the peer dies mid-body: must not wedge a reactor.
    auto socket = Socket::Connect("127.0.0.1", server->port(), 2000);
    ASSERT_TRUE(socket.ok());
    std::string frame;
    ASSERT_TRUE(EncodeQueryFrame(1, Named({"A"}), &frame).ok());
    ASSERT_TRUE(
        socket->WriteAll(frame.data(), kFrameHeaderBytes + 2).ok());
    socket->Close();
  }
  // The server is still healthy for well-behaved clients.
  Client client = ConnectOrDie(server->port());
  auto response = client.Query(Named({"A"}));
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->code, StatusCode::kOk);
}

TEST(ServerTest, HotSwapUnderLiveConnectionsDropsAndMisroutesNothing) {
  // The wire-level twin of tests/api/engine_swap_test.cc: pipelining
  // clients race Engine::Swap (what hypermine_serve's !reload calls) and
  // every response must arrive (client checks request-id echo), be OK,
  // and carry a (model_version, answer) pair from one single model.
  std::shared_ptr<const api::Model> a = MarkedModel(1);  // A -> B
  std::shared_ptr<const api::Model> b = MarkedModel(2);  // A -> C
  const uint64_t va = a->version();
  const uint64_t vb = b->version();
  api::Engine engine(a);
  auto server = StartOrDie(&engine);

  constexpr size_t kClients = 3;
  constexpr size_t kRounds = 20;
  constexpr size_t kPipeline = 8;
  std::atomic<uint64_t> answered{0};
  std::atomic<uint64_t> bad{0};
  std::vector<std::thread> clients;
  for (size_t t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      Client client = ConnectOrDie(server->port());
      std::vector<api::QueryRequest> batch(kPipeline, Named({"A"}, 1));
      for (size_t round = 0; round < kRounds; ++round) {
        auto responses = client.QueryMany(batch);
        if (!responses.ok()) {
          bad.fetch_add(kPipeline);  // transport failure = dropped queries
          return;
        }
        for (const WireResponse& response : *responses) {
          answered.fetch_add(1);
          const bool consistent =
              response.code == StatusCode::kOk &&
              response.ranked.size() == 1 &&
              ((response.model_version == va &&
                response.ranked[0].name == "B") ||
               (response.model_version == vb &&
                response.ranked[0].name == "C"));
          if (!consistent) bad.fetch_add(1);
        }
      }
      (void)t;
    });
  }
  for (int i = 0; i < 200; ++i) {
    engine.Swap(i % 2 == 0 ? b : a);
    std::this_thread::yield();
  }
  for (std::thread& thread : clients) thread.join();

  EXPECT_EQ(answered.load(), kClients * kRounds * kPipeline)
      << "zero dropped responses";
  EXPECT_EQ(bad.load(), 0u) << "zero misrouted/torn responses";

  // Settle on b: new wire queries must see only the new model.
  engine.Swap(b);
  Client client = ConnectOrDie(server->port());
  auto after = client.Query(Named({"A"}, 1));
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->model_version, vb);
  ASSERT_EQ(after->ranked.size(), 1u);
  EXPECT_EQ(after->ranked[0].name, "C");
}

TEST(ServerTest, StopUnblocksIdleConnections) {
  api::Engine engine(NamedModel());
  auto server = StartOrDie(&engine);
  // An idle client the server is waiting on; Stop() (run by the
  // destructor) must shut it down rather than wait forever — the test
  // completing at all is the assertion.
  auto idle = Socket::Connect("127.0.0.1", server->port(), 2000);
  ASSERT_TRUE(idle.ok());
  Client busy = ConnectOrDie(server->port());
  ASSERT_TRUE(busy.Query(Named({"A"})).ok());
  server->Stop();
  ServerStats stats = server->stats();
  EXPECT_EQ(stats.connections_accepted, 2u);
  EXPECT_EQ(stats.queries_answered, 1u);
}

TEST(ServerTest, StopIsPromptWithManyIdleConnectionsOpen) {
  // Regression target for the Stop-ordering fix: hundreds of idle,
  // never-written connections must not slow shutdown down — the reactor
  // owns every descriptor, so there is no per-connection thread (or
  // blocked read) to unwind one by one.
  api::Engine engine(NamedModel());
  ServerOptions options;
  options.max_connections = 512;
  auto server = StartOrDie(&engine, options);

  std::vector<Socket> idle;
  for (int i = 0; i < 256; ++i) {
    auto socket = Socket::Connect("127.0.0.1", server->port(), 2000);
    ASSERT_TRUE(socket.ok()) << socket.status();
    idle.push_back(std::move(*socket));
  }
  // Wait until every connect has been accepted (connect() returning only
  // proves the kernel queued it) so Stop really faces 256 live entries.
  for (int i = 0; i < 500; ++i) {
    if (server->stats().connections_accepted >= 256) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_GE(server->stats().connections_accepted, 256u);

  const auto start = std::chrono::steady_clock::now();
  server->Stop();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            2000)
      << "Stop must not scale with idle connection count";
  // Every idle socket observes the close (clean EOF, not a hang).
  for (Socket& socket : idle) {
    char byte;
    Status read = socket.ReadFull(&byte, 1);
    EXPECT_FALSE(read.ok());
  }
}

TEST(ServerTest, StatsTrackBytesQueueDepthAndCoalescing) {
  api::Engine engine(NamedModel());
  auto server = StartOrDie(&engine);
  Client client = ConnectOrDie(server->port());

  std::vector<api::QueryRequest> requests(24, Named({"A"}));
  auto responses = client.QueryMany(requests);
  ASSERT_TRUE(responses.ok()) << responses.status();
  ASSERT_EQ(responses->size(), 24u);

  ServerStats stats = server->stats();
  EXPECT_EQ(stats.queries_answered, 24u);
  EXPECT_GT(stats.bytes_read, 0u);
  EXPECT_GT(stats.bytes_written, 0u);
  // Every answered byte came off the wire first; requests and responses
  // are both non-empty frames.
  EXPECT_EQ(stats.queue_depth, 0u) << "nothing in flight at rest";
  EXPECT_GE(stats.queue_depth_peak, 1u);
  // Each engine batch carries >= 1 frame and every frame lands in exactly
  // one batch, so frames = batches + coalesced is an exact invariant.
  EXPECT_EQ(stats.queries_answered + stats.queries_rejected,
            stats.batches + stats.frames_coalesced);
  EXPECT_EQ(stats.admin_requests, 0u) << "no admin plane configured";
}

TEST(ServerTest, IdleTimeoutReapsOnlyTrulyIdleConnections) {
  api::Engine engine(NamedModel());
  ServerOptions options;
  options.idle_timeout_ms = 200;
  auto server = StartOrDie(&engine, options);

  auto idle = Socket::Connect("127.0.0.1", server->port(), 2000);
  ASSERT_TRUE(idle.ok());
  Client busy = ConnectOrDie(server->port());

  // Keep the busy connection warm well past the idle deadline.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(700);
  while (std::chrono::steady_clock::now() < deadline) {
    auto response = busy.Query(Named({"A"}));
    ASSERT_TRUE(response.ok()) << response.status();
    EXPECT_EQ(response->code, StatusCode::kOk);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  // The idle connection was reaped: its read resolves to EOF promptly.
  char byte;
  Status read = idle->ReadFull(&byte, 1);
  EXPECT_FALSE(read.ok()) << "idle connection should have been closed";
  ServerStats stats = server->stats();
  EXPECT_GE(stats.connections_reaped, 1u);
  // The active connection survived every reap pass.
  auto after = busy.Query(Named({"A"}));
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_EQ(after->code, StatusCode::kOk);
}

TEST(ServerTest, QueueWaitSheddingAnswersUnavailable) {
  // Stall the first engine batch via the "engine.batch" fault site
  // (one fire, 150 ms), which holds the connection's reactor. The client
  // pipelines all 8 frames in one write, so they are parsed together; with
  // max_batch=1 every later frame waits in the connection's pending queue
  // behind the stalled batch, out-waits the 10 ms budget, and must be
  // answered kUnavailable — a clean in-band shed, not a closed socket.
  fault::Injector& injector = fault::Injector::Global();
  injector.Reset();
  injector.Enable(/*seed=*/1);
  fault::SiteConfig stall;
  stall.delay_ms = 150;
  stall.max_fires = 1;
  injector.Arm("engine.batch", stall);

  api::Engine engine(NamedModel());
  ServerOptions options;
  options.max_queue_wait_ms = 10;
  options.max_batch = 1;
  auto server = StartOrDie(&engine, options);
  Client client = ConnectOrDie(server->port());

  std::vector<api::QueryRequest> requests(8, Named({"A"}));
  auto responses = client.QueryMany(requests);
  injector.Reset();
  ASSERT_TRUE(responses.ok()) << responses.status();
  ASSERT_EQ(responses->size(), 8u);

  size_t ok = 0, shed = 0;
  for (const WireResponse& response : *responses) {
    if (response.code == StatusCode::kOk) ++ok;
    if (response.code == StatusCode::kUnavailable) ++shed;
  }
  EXPECT_EQ(ok + shed, 8u) << "only clean statuses may come back";
  EXPECT_GE(ok, 1u) << "the stalled query itself still answers";
  EXPECT_GE(shed, 1u) << "queued queries out-waited the budget";
  ServerStats stats = server->stats();
  EXPECT_EQ(stats.queries_shed, shed);
  EXPECT_EQ(stats.queries_answered, ok);
}

TEST(ServerTest, ShedQueriesRetrySuccessfullyOnceTheQueueClears) {
  fault::Injector& injector = fault::Injector::Global();
  injector.Reset();
  injector.Enable(/*seed=*/1);
  fault::SiteConfig stall;
  stall.delay_ms = 120;
  stall.max_fires = 1;
  injector.Arm("engine.batch", stall);

  api::Engine engine(NamedModel());
  ServerOptions options;
  options.max_queue_wait_ms = 10;
  options.max_batch = 1;
  options.num_reactors = 1;
  auto server = StartOrDie(&engine, options);
  Client slow = ConnectOrDie(server->port());
  Client retrying = ConnectOrDie(server->port());

  // Occupy the single reactor with the stalled query, then race a second
  // client against the stall with retries enabled: whatever its first
  // attempt meets (a wait behind the stall, or a shed), backoff outlives
  // the stall and the query answers.
  std::thread occupant([&slow] {
    auto response = slow.Query(Named({"A"}));
    ASSERT_TRUE(response.ok()) << response.status();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  CallOptions call;
  call.max_retries = 6;
  auto response = retrying.Query(Named({"A"}), call);
  occupant.join();
  injector.Reset();
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->code, StatusCode::kOk)
      << "retries must eventually clear a transient shed";
}

TEST(ServerTest, DrainFinishesInFlightWorkAndRefusesNewConnections) {
  metrics::Registry registry;
  api::Engine engine(NamedModel());
  ServerOptions options;
  options.admin_port = 0;
  options.registry = &registry;
  auto server = StartOrDie(&engine, options);

  Client busy = ConnectOrDie(server->port());
  auto before = busy.Query(Named({"A"}));
  ASSERT_TRUE(before.ok()) << before.status();
  auto idle = Socket::Connect("127.0.0.1", server->port(), 2000);
  ASSERT_TRUE(idle.ok());

  EXPECT_FALSE(server->draining());
  server->Drain();
  server->Drain();  // idempotent
  EXPECT_TRUE(server->draining());

  // Every query connection is closed once quiet — both the never-used one
  // and the one that already answered — observed as EOF on our side.
  char byte;
  EXPECT_FALSE(idle->ReadFull(&byte, 1).ok());
  auto during = busy.Query(Named({"A"}));
  EXPECT_FALSE(during.ok()) << "drained connection should be closed";

  // A connect made after the drain is refused, or reset if it raced into
  // the accept backlog; it is never left queued where nothing accepts it.
  auto late = Socket::Connect("127.0.0.1", server->port());
  if (late.ok()) {
    ASSERT_TRUE(late->Readable(2000)) << "connect after Drain() hangs";
    EXPECT_FALSE(late->ReadFull(&byte, 1).ok());
  }

  // The admin plane outlives the drain, reporting it: /healthz flips to
  // 503 so load balancers stop routing here.
  auto connected = Socket::Connect("127.0.0.1", server->admin_port(), 2000);
  ASSERT_TRUE(connected.ok()) << connected.status();
  Socket& admin = *connected;
  const std::string request =
      "GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n";
  ASSERT_TRUE(admin.WriteAll(request.data(), request.size()).ok());
  std::string response;
  char buffer[2048];
  for (;;) {
    Socket::IoResult io = admin.ReadSome(buffer, sizeof(buffer));
    ASSERT_TRUE(io.status.ok()) << io.status;
    if (io.closed || io.bytes == 0) break;
    response.append(buffer, io.bytes);
    if (response.find("draining\n") != std::string::npos) break;
  }
  EXPECT_EQ(response.find("HTTP/1.1 503 Service Unavailable\r\n"), 0u)
      << response;
  EXPECT_NE(response.find("draining\n"), std::string::npos) << response;
}

TEST(ServerTest, StallTimeoutClosesSlowLorisButNotSteadyTraffic) {
  api::Engine engine(NamedModel());
  ServerOptions options;
  options.stall_timeout_ms = 150;
  auto server = StartOrDie(&engine, options);

  // The loris: four header bytes, then silence — never idle by the byte
  // clock's measure if it trickled, but parked mid-frame either way.
  auto loris = Socket::Connect("127.0.0.1", server->port(), 2000);
  ASSERT_TRUE(loris.ok());
  const char partial_header[4] = {'h', 'm', 'q', '1'};
  ASSERT_TRUE(loris->WriteAll(partial_header, 4).ok());

  // Steady traffic on a second connection: every exchange completes a
  // frame, so it makes progress and must never be stall-closed.
  Client busy = ConnectOrDie(server->port());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(600);
  while (std::chrono::steady_clock::now() < deadline) {
    auto response = busy.Query(Named({"A"}));
    ASSERT_TRUE(response.ok()) << response.status();
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
  }

  char byte;
  EXPECT_FALSE(loris->ReadFull(&byte, 1).ok())
      << "mid-frame connection should have been stall-closed";
  ServerStats stats = server->stats();
  EXPECT_GE(stats.connections_stalled, 1u);
  auto after = busy.Query(Named({"A"}));
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_EQ(after->code, StatusCode::kOk);
}

// ---------------------------------------------------------------------
// Multi-reactor cases: the serving path sharded over num_reactors event
// loops must be *indistinguishable on the wire* from one loop, must deal
// connections round-robin (per-reactor stats prove placement), and must
// stop/drain promptly with zero dropped in-flight batches.
// ---------------------------------------------------------------------

/// One deterministic wire conversation: sequential request/response
/// exchanges (fixed request ids, fixed queries — sequential so cache
/// hit/miss order is deterministic too), transcribed byte for byte.
/// Responses are appended raw (header fields + body bytes), so two equal
/// transcripts mean byte-identical wire answers.
std::string WireTranscript(uint16_t port) {
  std::string transcript;
  // Three sequential connections exercise accept placement; per-query
  // kinds cover topk, reachable, cache hit, and a per-query error.
  for (int c = 0; c < 3; ++c) {
    auto socket = Socket::Connect("127.0.0.1", port, 2000);
    HM_CHECK_OK(socket.status());
    std::vector<api::QueryRequest> queries;
    queries.push_back(Named({"A"}, 2));
    queries.push_back(Named({"A", "B"}, 3));
    api::QueryRequest reach = Named({"A"});
    reach.kind = api::QueryRequest::Kind::kReachable;
    reach.min_acv = 0.6;
    queries.push_back(reach);
    queries.push_back(Named({"A"}, 2));  // repeat: deterministic cache hit
    queries.push_back(Named({"NO_SUCH_VERTEX"}));
    for (size_t i = 0; i < queries.size(); ++i) {
      const uint64_t id = 1000 + static_cast<uint64_t>(c) * 100 + i;
      std::string frame;
      HM_CHECK_OK(EncodeQueryFrame(id, queries[i], &frame));
      HM_CHECK_OK(socket->WriteAll(frame.data(), frame.size()));
      FrameHeader header;
      std::string body;
      HM_CHECK_OK(ReadFrame(&*socket, &header, &body));
      transcript += std::to_string(header.request_id);
      transcript += '|';
      transcript += std::to_string(header.version);
      transcript += '|';
      transcript += std::to_string(header.type);
      transcript += '|';
      transcript += body;
      transcript += '\n';
    }
  }
  return transcript;
}

TEST(ServerMultiReactorTest, WireAnswersAreByteIdenticalAcrossReactorCounts) {
  // The same model (hence the same model_version) behind 1, 2, and 4
  // reactors; a fresh engine per server so the cache starts cold each
  // time. Any divergence — ordering, routing, version, cache bit — shows
  // up as a transcript diff.
  std::shared_ptr<const api::Model> model = NamedModel();
  std::string baseline;
  for (size_t reactors : {size_t{1}, size_t{2}, size_t{4}}) {
    api::Engine engine(model);
    ServerOptions options;
    options.num_reactors = reactors;
    auto server = StartOrDie(&engine, options);
    EXPECT_EQ(server->num_reactors(), reactors);
    const std::string transcript = WireTranscript(server->port());
    if (reactors == 1) {
      baseline = transcript;
      ASSERT_FALSE(baseline.empty());
    } else {
      EXPECT_EQ(transcript, baseline)
          << "num_reactors=" << reactors
          << " changed the bytes on the wire";
    }
  }
}

/// One connection on every reactor of a freshly started server, element i
/// owned by reactor i: reactor 0 deals connections round-robin from 0, so
/// n consecutive connects land one per reactor. Returns once every reactor
/// has registered its connection.
std::vector<Client> OneConnectionPerReactor(const Server& server) {
  const size_t reactors = server.num_reactors();
  std::vector<Client> clients;
  for (size_t i = 0; i < reactors; ++i) {
    clients.push_back(ConnectOrDie(server.port()));
  }
  for (int i = 0; i < 1000; ++i) {
    const ServerStats stats = server.stats();
    if (std::all_of(stats.per_reactor.begin(), stats.per_reactor.end(),
                    [](const ReactorStats& rs) {
                      return rs.open_connections == 1;
                    })) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return clients;
}

TEST(ServerMultiReactorTest, ConnectionsAreDealtRoundRobin) {
  // Reactor 0 accepts every query connection and deals them out in turn,
  // so 32 sequential connections over 4 reactors give each exactly 8, and
  // each reactor answers the batches of its own 8.
  api::Engine engine(NamedModel());
  ServerOptions options;
  options.num_reactors = 4;
  options.max_connections = 64;
  auto server = StartOrDie(&engine, options);

  constexpr size_t kConns = 32;
  std::vector<Client> clients;
  for (size_t i = 0; i < kConns; ++i) {
    clients.push_back(ConnectOrDie(server->port()));
    auto response = clients.back().Query(Named({"A"}));
    ASSERT_TRUE(response.ok()) << response.status();
    ASSERT_EQ(response->code, StatusCode::kOk);
  }

  ServerStats stats = server->stats();
  EXPECT_EQ(stats.connections_accepted, kConns);
  ASSERT_EQ(stats.per_reactor.size(), 4u);
  for (const ReactorStats& rs : stats.per_reactor) {
    EXPECT_EQ(rs.connections_accepted, kConns / 4) << "reactor " << rs.index;
    EXPECT_EQ(rs.open_connections, kConns / 4) << "reactor " << rs.index;
    EXPECT_EQ(rs.batches, kConns / 4)
        << "reactor " << rs.index << " answered another reactor's batch";
  }
}

TEST(ServerMultiReactorTest, MaxConnectionsIsAGlobalCapAcrossReactors) {
  // The cap is reserved at accept time in one process-wide count, so N
  // reactors cannot jointly over-admit.
  api::Engine engine(NamedModel());
  ServerOptions options;
  options.num_reactors = 2;
  options.max_connections = 3;
  auto server = StartOrDie(&engine, options);

  std::vector<Client> kept;
  for (int i = 0; i < 3; ++i) {
    kept.push_back(ConnectOrDie(server->port()));
    auto response = kept.back().Query(Named({"A"}));
    ASSERT_TRUE(response.ok()) << response.status();
  }
  // The fourth is over the global cap: closed on accept, observed as a
  // failed exchange.
  auto over = Socket::Connect("127.0.0.1", server->port(), 2000);
  ASSERT_TRUE(over.ok());
  std::string frame;
  ASSERT_TRUE(EncodeQueryFrame(1, Named({"A"}), &frame).ok());
  (void)over->WriteAll(frame.data(), frame.size());
  FrameHeader header;
  std::string body;
  EXPECT_FALSE(ReadFrame(&*over, &header, &body).ok());
  for (int i = 0; i < 500; ++i) {
    if (server->stats().connections_rejected >= 1) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(server->stats().connections_rejected, 1u);
}

TEST(ServerMultiReactorTest, StopJoinsAllReactorsWithZeroDroppedBatches) {
  // Batches running on BOTH reactors when Stop() lands: a stalled engine
  // batch (fault site, 150 ms) holds each reactor. Stop must join every
  // reactor, each after it finished its batch, and account them — nothing
  // may vanish in the teardown.
  fault::Injector& injector = fault::Injector::Global();
  injector.Reset();
  injector.Enable(/*seed=*/1);
  fault::SiteConfig stall;
  stall.delay_ms = 150;
  stall.max_fires = 2;
  injector.Arm("engine.batch", stall);

  api::Engine engine(NamedModel());
  ServerOptions options;
  options.num_reactors = 2;
  auto server = StartOrDie(&engine, options);

  // One connection on each reactor, each sending one query.
  std::vector<Client> clients = OneConnectionPerReactor(*server);
  std::vector<std::thread> senders;
  for (Client& client : clients) {
    senders.emplace_back([&client] {
      // Blocks until the server answers or closes the connection.
      (void)client.Query(Named({"A"}));
    });
  }
  // Let both queries reach their (stalled) engine batches, then stop.
  for (int i = 0; i < 500; ++i) {
    if (server->stats().batches >= 2 ||
        server->stats().queue_depth >= 2) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const auto start = std::chrono::steady_clock::now();
  server->Stop();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  for (std::thread& sender : senders) sender.join();
  injector.Reset();

  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            3000)
      << "Stop must be prompt, not wedged on a reactor join";
  ServerStats stats = server->stats();
  // Zero dropped in-flight batches: both queries ran to completion and
  // were accounted, one on each reactor.
  EXPECT_EQ(stats.queries_answered, 2u);
  EXPECT_EQ(stats.batches, 2u);
  uint64_t applied = 0;
  for (const ReactorStats& rs : stats.per_reactor) {
    EXPECT_EQ(rs.batches, 1u) << "reactor " << rs.index;
    applied += rs.batches;
  }
  EXPECT_EQ(applied, stats.batches)
      << "every batch must be run by exactly one reactor";
}

TEST(ServerMultiReactorTest, DrainClosesQuietConnectionsOnEveryReactor) {
  api::Engine engine(NamedModel());
  ServerOptions options;
  options.num_reactors = 2;
  auto server = StartOrDie(&engine, options);

  // One served-and-quiet connection per reactor.
  std::vector<Client> clients = OneConnectionPerReactor(*server);
  Client& first = clients[0];
  Client& second = clients[1];
  ASSERT_TRUE(first.Query(Named({"A"})).ok());
  ASSERT_TRUE(second.Query(Named({"A"})).ok());
  {
    ServerStats stats = server->stats();
    ASSERT_EQ(stats.per_reactor.size(), 2u);
    EXPECT_EQ(stats.per_reactor[0].open_connections, 1u);
    EXPECT_EQ(stats.per_reactor[1].open_connections, 1u);
  }

  server->Drain();
  // BOTH reactors apply the drain: each quiet connection is closed by its
  // owner, wherever it lives.
  auto dropped_first = first.Query(Named({"A"}));
  auto dropped_second = second.Query(Named({"A"}));
  EXPECT_FALSE(dropped_first.ok());
  EXPECT_FALSE(dropped_second.ok());
  for (int i = 0; i < 500; ++i) {
    ServerStats stats = server->stats();
    size_t open = 0;
    for (const ReactorStats& rs : stats.per_reactor) {
      open += rs.open_connections;
    }
    if (open == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ServerStats stats = server->stats();
  for (const ReactorStats& rs : stats.per_reactor) {
    EXPECT_EQ(rs.open_connections, 0u)
        << "reactor " << rs.index << " kept a drained connection open";
  }
}

TEST(ServerMultiReactorTest, ZeroMeansHardwareConcurrency) {
  api::Engine engine(NamedModel());
  ServerOptions options;
  options.num_reactors = 0;
  auto server = StartOrDie(&engine, options);
  // One per hardware thread, clamped to the 128-reactor sanity cap.
  EXPECT_EQ(server->num_reactors(),
            std::min<size_t>(ThreadPool::HardwareThreads(), 128));
  Client client = ConnectOrDie(server->port());
  auto response = client.Query(Named({"A"}));
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->code, StatusCode::kOk);

  // An explicit count above the cap is a typo, not a request to clamp.
  options.num_reactors = 129;
  EXPECT_EQ(Server::Start(&engine, options).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ServerTest, ServerStartsOnlyItsReactors) {
  // Each reactor answers its own batches, so a server starts exactly
  // num_reactors threads and no pool.
  if (hypermine::testing::ProcessThreads() == 0) {
    GTEST_SKIP() << "/proc/self/task cannot be read";
  }
  api::Engine engine(NamedModel());  // its helpers start here, not below
  for (size_t reactors : {size_t{1}, size_t{3}}) {
    ServerOptions options;
    options.num_reactors = reactors;
    const size_t before = hypermine::testing::ProcessThreads();
    auto server = StartOrDie(&engine, options);
    EXPECT_EQ(hypermine::testing::ProcessThreads(), before + reactors)
        << "num_reactors = " << reactors;
    Client client = ConnectOrDie(server->port());
    auto response = client.Query(Named({"A"}));
    ASSERT_TRUE(response.ok()) << response.status();
    EXPECT_EQ(response->code, StatusCode::kOk);
    EXPECT_EQ(hypermine::testing::ProcessThreads(), before + reactors)
        << "answering started a thread, num_reactors = " << reactors;
  }
}

}  // namespace
}  // namespace hypermine::net
