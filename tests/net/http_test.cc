// HttpConnection is a byte-in/byte-out state machine, so the parser is
// tested entirely in memory (including truncation at every byte); the
// end-to-end tests then stand up a real Server with an admin port and
// scrape /metrics, /healthz, /statusz over loopback during live query
// traffic.
#include "net/http.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "api/engine.h"
#include "api/model.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "net/socket.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/string_util.h"

namespace hypermine::net {
namespace {

constexpr char kSimpleGet[] =
    "GET /metrics HTTP/1.1\r\n"
    "Host: localhost\r\n"
    "Accept: text/plain\r\n"
    "\r\n";

TEST(HttpConnectionTest, ParsesACompleteGet) {
  HttpConnection conn;
  conn.Ingest(kSimpleGet);
  ASSERT_EQ(conn.pending_requests(), 1u);
  HttpRequest request;
  ASSERT_TRUE(conn.TakeRequest(&request));
  EXPECT_EQ(request.method, "GET");
  EXPECT_EQ(request.target, "/metrics");
  EXPECT_EQ(request.path, "/metrics");
  EXPECT_EQ(request.version, "HTTP/1.1");
  EXPECT_TRUE(request.keep_alive);
  ASSERT_NE(request.FindHeader("host"), nullptr);
  EXPECT_EQ(*request.FindHeader("host"), "localhost");
  EXPECT_EQ(request.FindHeader("no-such-header"), nullptr);
  EXPECT_FALSE(conn.corrupt());
  EXPECT_FALSE(conn.TakeRequest(&request));
}

TEST(HttpConnectionTest, TruncationAtEveryByteNeverYieldsAPartialRequest) {
  const std::string full = kSimpleGet;
  // Prefixes: no request may surface before the final byte, and no prefix
  // may be treated as corrupt.
  for (size_t cut = 0; cut < full.size(); ++cut) {
    HttpConnection conn;
    conn.Ingest(std::string_view(full).substr(0, cut));
    EXPECT_EQ(conn.pending_requests(), 0u) << "cut=" << cut;
    EXPECT_FALSE(conn.corrupt()) << "cut=" << cut;
    EXPECT_TRUE(conn.wants_read()) << "cut=" << cut;
  }
  // One byte at a time into a single connection: exactly one request, only
  // after the last byte.
  HttpConnection conn;
  for (size_t i = 0; i < full.size(); ++i) {
    EXPECT_EQ(conn.pending_requests(), 0u) << "i=" << i;
    conn.Ingest(std::string_view(&full[i], 1));
  }
  ASSERT_EQ(conn.pending_requests(), 1u);
  HttpRequest request;
  ASSERT_TRUE(conn.TakeRequest(&request));
  EXPECT_EQ(request.path, "/metrics");
}

TEST(HttpConnectionTest, QueryStringSplitsOffThePath) {
  HttpConnection conn;
  conn.Ingest("GET /statusz?verbose=1 HTTP/1.1\r\n\r\n");
  HttpRequest request;
  ASSERT_TRUE(conn.TakeRequest(&request));
  EXPECT_EQ(request.target, "/statusz?verbose=1");
  EXPECT_EQ(request.path, "/statusz");
}

TEST(HttpConnectionTest, KeepAliveResolution) {
  struct Case {
    const char* head;
    bool keep_alive;
  };
  const Case cases[] = {
      {"GET / HTTP/1.1\r\n\r\n", true},
      {"GET / HTTP/1.0\r\n\r\n", false},
      {"GET / HTTP/1.1\r\nConnection: close\r\n\r\n", false},
      {"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n", true},
      {"GET / HTTP/1.1\r\nConnection: Close\r\n\r\n", false},
  };
  for (const Case& c : cases) {
    HttpConnection conn;
    conn.Ingest(c.head);
    HttpRequest request;
    ASSERT_TRUE(conn.TakeRequest(&request)) << c.head;
    EXPECT_EQ(request.keep_alive, c.keep_alive) << c.head;
  }
}

TEST(HttpConnectionTest, PipelinedRequestsComeOutInOrder) {
  HttpConnection conn;
  conn.Ingest(
      "GET /healthz HTTP/1.1\r\n\r\n"
      "GET /metrics HTTP/1.1\r\n\r\n");
  EXPECT_EQ(conn.pending_requests(), 2u);
  HttpRequest request;
  ASSERT_TRUE(conn.TakeRequest(&request));
  EXPECT_EQ(request.path, "/healthz");
  ASSERT_TRUE(conn.TakeRequest(&request));
  EXPECT_EQ(request.path, "/metrics");
}

TEST(HttpConnectionTest, BadRequestLineIsCorrupt) {
  HttpConnection conn;
  conn.Ingest("NOT-HTTP\r\n\r\n");
  EXPECT_TRUE(conn.corrupt());
  EXPECT_EQ(conn.pending_requests(), 0u);
  EXPECT_FALSE(conn.wants_read());
}

TEST(HttpConnectionTest, UnknownVersionIsCorrupt) {
  HttpConnection conn;
  conn.Ingest("GET / HTTP/2.0\r\n\r\n");
  EXPECT_TRUE(conn.corrupt());
}

TEST(HttpConnectionTest, RequestBodiesAreAParseError) {
  {
    HttpConnection conn;
    conn.Ingest("POST / HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello");
    EXPECT_TRUE(conn.corrupt());
  }
  {
    HttpConnection conn;
    conn.Ingest("GET / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n");
    EXPECT_TRUE(conn.corrupt());
  }
}

TEST(HttpConnectionTest, OversizedHeadIsFatal) {
  HttpConnection::Options options;
  options.max_head_bytes = 128;
  HttpConnection conn(options);
  // An unterminated head larger than the cap: fatal even though no blank
  // line ever arrives.
  std::string head = "GET / HTTP/1.1\r\n";
  head += "X-Padding: " + std::string(256, 'a') + "\r\n";
  conn.Ingest(head);
  EXPECT_TRUE(conn.corrupt());
  // A head under the cap is unaffected.
  HttpConnection small(options);
  small.Ingest("GET / HTTP/1.1\r\n\r\n");
  EXPECT_FALSE(small.corrupt());
  EXPECT_EQ(small.pending_requests(), 1u);
}

TEST(HttpConnectionTest, PeerCloseMidHeadIsCorruptBetweenRequestsClean) {
  {
    HttpConnection conn;
    conn.Ingest("GET /metr");  // mid-head
    conn.OnPeerClosed();
    EXPECT_TRUE(conn.corrupt());
    EXPECT_TRUE(conn.peer_closed());
  }
  {
    HttpConnection conn;
    conn.Ingest("GET / HTTP/1.1\r\n\r\n");
    conn.OnPeerClosed();  // clean end of stream
    EXPECT_FALSE(conn.corrupt());
    EXPECT_TRUE(conn.peer_closed());
    EXPECT_EQ(conn.pending_requests(), 1u);
  }
}

TEST(HttpConnectionTest, BlankLinesBeforeTheRequestLineAreTolerated) {
  // RFC 9112 2.2: a server SHOULD ignore at least one empty line received
  // prior to the request line (a stray CRLF after a previous request).
  HttpConnection conn;
  conn.Ingest("\r\nGET /healthz HTTP/1.1\r\n\r\n");
  HttpRequest request;
  ASSERT_TRUE(conn.TakeRequest(&request));
  EXPECT_EQ(request.path, "/healthz");
  EXPECT_FALSE(conn.corrupt());
}

TEST(HttpConnectionTest, PendingRequestCapPausesReads) {
  HttpConnection::Options options;
  options.max_pending_requests = 2;
  HttpConnection conn(options);
  conn.Ingest(
      "GET /a HTTP/1.1\r\n\r\n"
      "GET /b HTTP/1.1\r\n\r\n");
  EXPECT_EQ(conn.pending_requests(), 2u);
  EXPECT_FALSE(conn.wants_read());
  HttpRequest request;
  ASSERT_TRUE(conn.TakeRequest(&request));
  EXPECT_TRUE(conn.wants_read());
}

TEST(HttpConnectionTest, WriteSideFollowsTheConnectionDrainContract) {
  HttpConnection conn;
  EXPECT_FALSE(conn.wants_write());
  conn.QueueWrite("hello ");
  conn.QueueWrite("world");
  EXPECT_TRUE(conn.wants_write());
  EXPECT_EQ(conn.write_queued(), 11u);
  EXPECT_EQ(conn.write_head(), "hello ");
  conn.ConsumeWrite(3);
  EXPECT_EQ(conn.write_head(), "lo ");
  conn.ConsumeWrite(3);
  EXPECT_EQ(conn.write_head(), "world");
  conn.ConsumeWrite(5);
  EXPECT_FALSE(conn.wants_write());
  EXPECT_EQ(conn.write_queued(), 0u);
}

TEST(HttpConnectionTest, WriteHighWaterPausesReads) {
  HttpConnection::Options options;
  options.write_high_water = 8;
  HttpConnection conn(options);
  EXPECT_TRUE(conn.wants_read());
  conn.QueueWrite("0123456789");  // over the high-water mark
  EXPECT_FALSE(conn.wants_read());
  conn.ConsumeWrite(10);
  EXPECT_TRUE(conn.wants_read());
}

TEST(EncodeHttpResponseTest, SerializesStatusHeadersAndBody) {
  HttpResponse response;
  response.status = 200;
  response.content_type = "text/plain; version=0.0.4; charset=utf-8";
  response.body = "ok\n";
  const std::string wire = EncodeHttpResponse(response, /*keep_alive=*/true);
  EXPECT_EQ(wire.find("HTTP/1.1 200 OK\r\n"), 0u);
  EXPECT_NE(
      wire.find(
          "Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"),
      std::string::npos);
  EXPECT_NE(wire.find("Content-Length: 3\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Connection: keep-alive\r\n"), std::string::npos);
  EXPECT_EQ(wire.substr(wire.size() - 7), "\r\n\r\nok\n");
}

TEST(EncodeHttpResponseTest, CloseAndExtraHeaders) {
  HttpResponse response;
  response.status = 405;
  response.headers.push_back({"Allow", "GET"});
  const std::string wire = EncodeHttpResponse(response, /*keep_alive=*/false);
  EXPECT_EQ(wire.find("HTTP/1.1 405 Method Not Allowed\r\n"), 0u);
  EXPECT_NE(wire.find("Connection: close\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Allow: GET\r\n"), std::string::npos);
}

TEST(HttpReasonPhraseTest, CoversTheAdminPlaneStatuses) {
  EXPECT_EQ(HttpReasonPhrase(200), "OK");
  EXPECT_EQ(HttpReasonPhrase(400), "Bad Request");
  EXPECT_EQ(HttpReasonPhrase(404), "Not Found");
  EXPECT_EQ(HttpReasonPhrase(405), "Method Not Allowed");
  EXPECT_EQ(HttpReasonPhrase(503), "Service Unavailable");
  EXPECT_EQ(HttpReasonPhrase(999), "Unknown");
}

// ---------------------------------------------------------------------------
// End to end: the admin plane on a live server.
// ---------------------------------------------------------------------------

/// Small named model: A -> {B, C}, {A, B} -> D, C -> D (same shape as
/// tests/net/server_test.cc).
std::shared_ptr<const api::Model> NamedModel() {
  auto graph = core::DirectedHypergraph::Create({"A", "B", "C", "D"});
  HM_CHECK_OK(graph.status());
  HM_CHECK_OK(graph->AddEdge({0}, 1, 0.9).status());
  HM_CHECK_OK(graph->AddEdge({0}, 2, 0.5).status());
  HM_CHECK_OK(graph->AddEdge({0, 1}, 3, 0.8).status());
  HM_CHECK_OK(graph->AddEdge({2}, 3, 0.7).status());
  return api::Model::FromGraph(std::move(graph).value(), {});
}

struct AdminServer {
  metrics::Registry registry;
  std::shared_ptr<const api::Model> model;
  std::unique_ptr<api::Engine> engine;
  std::unique_ptr<Server> server;
};

/// `inject_registry` false leaves ServerOptions::registry null, so the
/// server counts into a registry of its own and `registry` stays unused.
std::unique_ptr<AdminServer> StartAdminServerOrDie(
    bool inject_registry = true) {
  auto fixture = std::make_unique<AdminServer>();
  fixture->model = NamedModel();
  fixture->engine = std::make_unique<api::Engine>(fixture->model);
  ServerOptions options;
  options.port = 0;
  options.admin_port = 0;  // ephemeral — tests must not collide on ports
  if (inject_registry) options.registry = &fixture->registry;
  auto server = Server::Start(fixture->engine.get(), options);
  HM_CHECK_OK(server.status());
  fixture->server = std::move(*server);
  return fixture;
}

Socket ConnectAdminOrDie(uint16_t port) {
  auto socket = Socket::Connect("127.0.0.1", port, /*retry_ms=*/2000);
  HM_CHECK_OK(socket.status());
  return std::move(*socket);
}

/// Reads one complete HTTP response (head + Content-Length body) off a
/// blocking socket; returns what arrived before EOF if the peer closes.
std::string ReadOneResponse(Socket* socket) {
  std::string data;
  size_t need = std::string::npos;
  char buffer[4096];
  while (true) {
    const size_t head_end = data.find("\r\n\r\n");
    if (head_end != std::string::npos && need == std::string::npos) {
      need = head_end + 4;
      const size_t mark = data.find("Content-Length: ");
      HM_CHECK(mark != std::string::npos && mark < head_end);
      need += static_cast<size_t>(
          std::stoul(data.substr(mark + 16, head_end - mark - 16)));
    }
    if (need != std::string::npos && data.size() >= need) {
      return data.substr(0, need);
    }
    Socket::IoResult result = socket->ReadSome(buffer, sizeof(buffer));
    HM_CHECK_OK(result.status);
    if (result.closed) return data;
    data.append(buffer, result.bytes);
  }
}

std::string Get(Socket* socket, const std::string& path,
                bool keep_alive = true) {
  std::string request = "GET " + path + " HTTP/1.1\r\nHost: test\r\n";
  if (!keep_alive) request += "Connection: close\r\n";
  request += "\r\n";
  HM_CHECK_OK(socket->WriteAll(request.data(), request.size()));
  return ReadOneResponse(socket);
}

api::QueryRequest NamedQuery(std::vector<std::string> names) {
  api::QueryRequest request;
  request.names = std::move(names);
  request.k = 10;
  return request;
}

TEST(AdminPlaneTest, HealthzAnswersOkWhileServing) {
  auto fixture = StartAdminServerOrDie();
  ASSERT_NE(fixture->server->admin_port(), 0);
  Socket admin = ConnectAdminOrDie(fixture->server->admin_port());
  const std::string response = Get(&admin, "/healthz");
  EXPECT_EQ(response.find("HTTP/1.1 200 OK\r\n"), 0u);
  EXPECT_NE(response.find("\r\n\r\nok\n"), std::string::npos);
}

TEST(AdminPlaneTest, MetricsScrapeDuringLiveTrafficSeesTheCountersMove) {
  auto fixture = StartAdminServerOrDie();
  Socket admin = ConnectAdminOrDie(fixture->server->admin_port());

  // Before any query traffic: the counter exists and reads zero.
  std::string scrape = Get(&admin, "/metrics");
  EXPECT_EQ(scrape.find("HTTP/1.1 200 OK\r\n"), 0u);
  EXPECT_NE(
      scrape.find("Content-Type: text/plain; version=0.0.4; charset=utf-8"),
      std::string::npos);
  EXPECT_NE(scrape.find("hypermine_net_queries_answered_total 0"),
            std::string::npos);

  // Live traffic on the query plane, then scrape again over the SAME
  // keep-alive admin connection: counters and stage histograms moved.
  auto client = Client::Connect("127.0.0.1", fixture->server->port(), 2000);
  ASSERT_TRUE(client.ok()) << client.status();
  for (int i = 0; i < 3; ++i) {
    auto response = client->Query(NamedQuery({"A"}));
    ASSERT_TRUE(response.ok()) << response.status();
    EXPECT_EQ(response->code, StatusCode::kOk);
  }
  scrape = Get(&admin, "/metrics");
  EXPECT_NE(scrape.find("hypermine_net_queries_answered_total 3"),
            std::string::npos);
  EXPECT_NE(scrape.find("hypermine_net_connections_accepted_total 1"),
            std::string::npos);
  EXPECT_NE(scrape.find("hypermine_net_queue_wait_seconds_bucket"),
            std::string::npos);
  EXPECT_NE(scrape.find("hypermine_engine_batch_seconds_count 3"),
            std::string::npos);
  EXPECT_NE(scrape.find("hypermine_net_write_drain_seconds_bucket"),
            std::string::npos);
  // Model versions are process-unique, so resolve the live one.
  EXPECT_NE(scrape.find("hypermine_model_info{model_version=\"" +
                        std::to_string(fixture->model->version()) +
                        "\"} 1"),
            std::string::npos);
}

TEST(AdminPlaneTest, TwoServersEachScrapeOnlyTheirOwnCounts) {
  // Neither server is given a registry, so each keeps its counts in one
  // of its own: a scrape of A must not read B's traffic, or B's engine.
  auto a = StartAdminServerOrDie(/*inject_registry=*/false);
  auto b = StartAdminServerOrDie(/*inject_registry=*/false);
  const auto send = [](const AdminServer& fixture, int queries) {
    auto client = Client::Connect("127.0.0.1", fixture.server->port(), 2000);
    ASSERT_TRUE(client.ok()) << client.status();
    for (int i = 0; i < queries; ++i) {
      auto response = client->Query(NamedQuery({"A"}));
      ASSERT_TRUE(response.ok()) << response.status();
      EXPECT_EQ(response->code, StatusCode::kOk);
    }
  };
  send(*a, 3);
  send(*b, 1);

  for (const auto& [fixture, answered, cache_hits] :
       {std::tuple{a.get(), 3, 2}, std::tuple{b.get(), 1, 0}}) {
    Socket admin = ConnectAdminOrDie(fixture->server->admin_port());
    const std::string scrape = Get(&admin, "/metrics");
    EXPECT_NE(scrape.find(StrFormat(
                  "\nhypermine_net_queries_answered_total %d\n", answered)),
              std::string::npos)
        << scrape;
    // The same query repeated: every answer after the first is a hit on
    // this server's own engine cache.
    EXPECT_NE(scrape.find(StrFormat(
                  "\nhypermine_engine_cache_hits_total %d\n", cache_hits)),
              std::string::npos)
        << scrape;
    const ServerStats stats = fixture->server->stats();
    for (const auto& [name, value] :
         {std::pair{"hypermine_net_queries_answered_total",
                    stats.queries_answered},
          std::pair{"hypermine_net_connections_accepted_total",
                    stats.connections_accepted},
          std::pair{"hypermine_net_batches_total", stats.batches},
          std::pair{"hypermine_net_bytes_read_total", stats.bytes_read},
          std::pair{"hypermine_net_bytes_written_total",
                    stats.bytes_written}}) {
      EXPECT_NE(scrape.find(StrFormat("\n%s %llu\n", name,
                                      static_cast<unsigned long long>(value))),
                std::string::npos)
          << "stats() disagrees with its own scrape on " << name;
    }
  }
}

TEST(AdminPlaneTest, StatuszCarriesModelAndServerState) {
  auto fixture = StartAdminServerOrDie();
  Socket admin = ConnectAdminOrDie(fixture->server->admin_port());
  const std::string response = Get(&admin, "/statusz");
  EXPECT_EQ(response.find("HTTP/1.1 200 OK\r\n"), 0u);
  EXPECT_NE(response.find("Content-Type: application/json"),
            std::string::npos);
  EXPECT_NE(response.find("\"model\""), std::string::npos);
  EXPECT_NE(response.find("\"version\": " +
                          std::to_string(fixture->model->version())),
            std::string::npos);
  EXPECT_NE(response.find("\"server\""), std::string::npos);
  EXPECT_NE(response.find("\"uptime_seconds\""), std::string::npos);
}

TEST(AdminPlaneTest, UnknownPathIs404UnknownMethodIs405) {
  auto fixture = StartAdminServerOrDie();
  Socket admin = ConnectAdminOrDie(fixture->server->admin_port());
  std::string response = Get(&admin, "/nope");
  EXPECT_EQ(response.find("HTTP/1.1 404 Not Found\r\n"), 0u);

  // Same keep-alive connection: a POST gets 405 with an Allow header.
  const std::string post = "POST /metrics HTTP/1.1\r\nHost: t\r\n\r\n";
  ASSERT_TRUE(admin.WriteAll(post.data(), post.size()).ok());
  response = ReadOneResponse(&admin);
  EXPECT_EQ(response.find("HTTP/1.1 405 Method Not Allowed\r\n"), 0u);
  EXPECT_NE(response.find("Allow: GET\r\n"), std::string::npos);
}

TEST(AdminPlaneTest, ConnectionCloseIsHonored) {
  auto fixture = StartAdminServerOrDie();
  Socket admin = ConnectAdminOrDie(fixture->server->admin_port());
  const std::string response = Get(&admin, "/healthz", /*keep_alive=*/false);
  EXPECT_EQ(response.find("HTTP/1.1 200 OK\r\n"), 0u);
  EXPECT_NE(response.find("Connection: close\r\n"), std::string::npos);
  // The server closes its end after the flush: the next read is EOF.
  char byte;
  Status read = admin.ReadFull(&byte, 1);
  EXPECT_FALSE(read.ok());
}

TEST(AdminPlaneTest, GarbageOnTheAdminPortGets400ThenClose) {
  auto fixture = StartAdminServerOrDie();
  Socket admin = ConnectAdminOrDie(fixture->server->admin_port());
  const std::string garbage = "THIS IS NOT HTTP\r\n\r\n";
  ASSERT_TRUE(admin.WriteAll(garbage.data(), garbage.size()).ok());
  const std::string response = ReadOneResponse(&admin);
  EXPECT_EQ(response.find("HTTP/1.1 400 Bad Request\r\n"), 0u);
  char byte;
  Status read = admin.ReadFull(&byte, 1);
  EXPECT_FALSE(read.ok());

  // The admin plane survives the bad client.
  Socket again = ConnectAdminOrDie(fixture->server->admin_port());
  EXPECT_EQ(Get(&again, "/healthz").find("HTTP/1.1 200 OK\r\n"), 0u);
}

TEST(AdminPlaneTest, AdminTrafficDoesNotPerturbQueryPlaneStats) {
  auto fixture = StartAdminServerOrDie();
  Socket admin = ConnectAdminOrDie(fixture->server->admin_port());
  (void)Get(&admin, "/healthz");
  (void)Get(&admin, "/metrics");
  ServerStats stats = fixture->server->stats();
  // server_test asserts exact query-plane counts; admin connections and
  // requests must stay out of them.
  EXPECT_EQ(stats.connections_accepted, 0u);
  EXPECT_EQ(stats.queries_answered, 0u);
  EXPECT_EQ(stats.admin_requests, 2u);
}

TEST(AdminPlaneTest, DisabledByDefault) {
  auto engine = std::make_unique<api::Engine>(NamedModel());
  ServerOptions options;
  options.port = 0;
  auto server = Server::Start(engine.get(), options);
  ASSERT_TRUE(server.ok()) << server.status();
  EXPECT_EQ((*server)->admin_port(), 0) << "no admin listener bound";
}

}  // namespace
}  // namespace hypermine::net
