#include "net/server.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/model.h"
#include "util/build_info.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace hypermine::net {
namespace {

/// Event-loop tags. Connection ids count up from 1 within each reactor
/// (tags never cross loops, so per-reactor namespaces suffice); the query
/// listener owns 0 and the admin listener the far end of the space (one
/// below ~0, which the loop reserves for its wakeup eventfd); timers live
/// in their own tag namespace.
constexpr uint64_t kListenerTag = 0;
constexpr uint64_t kAdminListenerTag = ~uint64_t{0} - 1;
constexpr uint64_t kReapTimerTag = 1;
constexpr uint64_t kAcceptRetryTimerTag = 2;
constexpr uint64_t kAdminAcceptRetryTimerTag = 3;
constexpr uint64_t kStallTimerTag = 4;

/// Admin connections are exempt from max_connections (a saturated query
/// plane must not lock out the scraper diagnosing it) but capped here —
/// the admin port serves one Prometheus and one curl, not a fleet.
constexpr size_t kMaxAdminConnections = 64;

/// Sanity ceiling on reactor threads: a typo (--reactors=10000) should
/// fail loudly, not spawn ten thousand event loops. The default of one
/// reactor per hardware thread is clamped to it instead.
constexpr size_t kMaxReactors = 128;

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

WireResponse ErrorResponse(const Status& status) {
  WireResponse response;
  response.code = status.code();
  response.message = status.message();
  return response;
}

/// Flattens one engine answer into its wire form, resolving vertex ids to
/// names against the model that produced them (guaranteed by QueryBatch's
/// model_out — NOT the engine's current model, which a racing Swap may
/// already have replaced).
WireResponse ToWire(const StatusOr<api::QueryResponse>& result,
                    const api::Model& model,
                    api::QueryRequest::Kind kind) {
  if (!result.ok()) return ErrorResponse(result.status());
  WireResponse response;
  response.kind = kind;
  response.model_version = result->model_version;
  response.from_cache = result->from_cache;
  const core::DirectedHypergraph& graph = model.graph();
  response.ranked.reserve(result->ranked.size());
  for (const serve::RankedConsequent& r : result->ranked) {
    response.ranked.push_back(WireConsequent{graph.vertex_name(r.head),
                                             r.acv});
  }
  response.closure.reserve(result->closure.size());
  for (core::VertexId v : result->closure) {
    response.closure.push_back(graph.vertex_name(v));
  }
  return response;
}

}  // namespace

StatusOr<std::unique_ptr<Server>> Server::Start(api::Engine* engine,
                                                ServerOptions options) {
  HM_CHECK(engine != nullptr);
  if (options.max_batch == 0) {
    return Status::InvalidArgument("ServerOptions::max_batch must be >= 1");
  }
  if (options.max_connections == 0) {
    return Status::InvalidArgument(
        "ServerOptions::max_connections must be >= 1");
  }
  if (options.max_query_bytes > kMaxBodyBytes) {
    return Status::InvalidArgument(
        "ServerOptions::max_query_bytes exceeds the protocol cap");
  }
  if (options.idle_timeout_ms < 0) {
    return Status::InvalidArgument(
        "ServerOptions::idle_timeout_ms must be >= 0");
  }
  if (options.max_queue_wait_ms < 0) {
    return Status::InvalidArgument(
        "ServerOptions::max_queue_wait_ms must be >= 0");
  }
  if (options.stall_timeout_ms < 0) {
    return Status::InvalidArgument(
        "ServerOptions::stall_timeout_ms must be >= 0");
  }
  if (options.admin_port > 65535) {
    return Status::InvalidArgument(
        "ServerOptions::admin_port must fit a TCP port");
  }
  const size_t reactor_count =
      options.num_reactors == 0
          ? std::min(ThreadPool::HardwareThreads(), kMaxReactors)
          : options.num_reactors;
  if (reactor_count > kMaxReactors) {
    return Status::InvalidArgument(
        StrFormat("ServerOptions::num_reactors (%zu) exceeds the sanity "
                  "cap of %zu",
                  reactor_count, kMaxReactors));
  }

  // One listener, on reactor 0, which deals the query connections out
  // round-robin (AcceptPending): the kernel's SO_REUSEPORT hash can put
  // two busy clients on one loop while another sits idle.
  HM_ASSIGN_OR_RETURN(Listener listener, Listener::Bind(options.port));
  HM_RETURN_IF_ERROR(listener.SetNonBlocking(true));
  std::vector<std::unique_ptr<Reactor>> reactors;
  reactors.reserve(reactor_count);
  for (size_t i = 0; i < reactor_count; ++i) {
    HM_ASSIGN_OR_RETURN(EventLoop loop, EventLoop::Create());
    auto reactor = std::make_unique<Reactor>(i, std::move(loop));
    // Each reactor reaps and stall-checks its own connections.
    if (options.idle_timeout_ms > 0) {
      reactor->loop.AddTimer(kReapTimerTag,
                             std::max(10, options.idle_timeout_ms / 2));
    }
    if (options.stall_timeout_ms > 0) {
      reactor->loop.AddTimer(kStallTimerTag,
                             std::max(10, options.stall_timeout_ms / 2));
    }
    reactors.push_back(std::move(reactor));
  }
  HM_RETURN_IF_ERROR(reactors[0]->loop.Add(listener.fd(), kListenerTag,
                                           /*read=*/true, /*write=*/false));
  Listener admin_listener;
  if (options.admin_port >= 0) {
    HM_ASSIGN_OR_RETURN(
        admin_listener,
        Listener::Bind(static_cast<uint16_t>(options.admin_port)));
    HM_RETURN_IF_ERROR(admin_listener.SetNonBlocking(true));
    // The admin plane lives on reactor 0 too.
    HM_RETURN_IF_ERROR(reactors[0]->loop.Add(admin_listener.fd(),
                                             kAdminListenerTag,
                                             /*read=*/true,
                                             /*write=*/false));
  }
  // Not make_unique: the constructor is private.
  std::unique_ptr<Server> server(
      new Server(engine, options, std::move(reactors), std::move(listener),
                 std::move(admin_listener)));
  for (auto& reactor : server->reactors_) {
    reactor->thread = std::thread(
        [s = server.get(), r = reactor.get()] { s->ReactorLoop(r); });
  }
  return server;
}

Server::Server(api::Engine* engine, ServerOptions options,
               std::vector<std::unique_ptr<Reactor>> reactors,
               Listener listener, Listener admin_listener)
    : engine_(engine),
      options_(options),
      port_(listener.port()),
      reactors_(std::move(reactors)),
      listener_(std::move(listener)),
      admin_listener_(std::move(admin_listener)) {

  if (options_.registry != nullptr) {
    registry_ = options_.registry;
  } else {
    owned_registry_ = std::make_unique<metrics::Registry>();
    registry_ = owned_registry_.get();
  }
  c_accepted_ = registry_->GetCounter(
      "hypermine_net_connections_accepted_total",
      "Query-plane connections accepted.");
  c_rejected_ = registry_->GetCounter(
      "hypermine_net_connections_rejected_total",
      "Accepts closed because max_connections was reached.");
  c_reaped_ = registry_->GetCounter(
      "hypermine_net_connections_reaped_total",
      "Connections closed by the idle-timeout reaper.");
  c_stalled_ = registry_->GetCounter(
      "hypermine_net_connections_stalled_total",
      "Connections closed by the mid-frame stall timer (slow loris).");
  c_shed_ = registry_->GetCounter(
      "hypermine_net_queries_shed_total",
      "Queries answered kUnavailable by load shedding (out-waited "
      "max_queue_wait_ms) or during drain.");
  c_batches_ = registry_->GetCounter("hypermine_net_batches_total",
                                     "Engine batches executed.");
  c_answered_ = registry_->GetCounter(
      "hypermine_net_queries_answered_total",
      "Queries the engine ran (per-query errors included).");
  c_rejected_queries_ = registry_->GetCounter(
      "hypermine_net_queries_rejected_total",
      "Queries rejected before the engine (quota, queue depth, malformed "
      "frames).");
  c_coalesced_ = registry_->GetCounter(
      "hypermine_net_frames_coalesced_total",
      "Frames that shared an engine batch with an earlier frame (batch of "
      "n adds n-1).");
  c_bytes_read_ = registry_->GetCounter(
      "hypermine_net_bytes_read_total",
      "Payload bytes read off query connections.");
  c_bytes_written_ = registry_->GetCounter(
      "hypermine_net_bytes_written_total",
      "Payload bytes written to query connections.");
  c_http_requests_ = registry_->GetCounter(
      "hypermine_net_admin_requests_total",
      "HTTP requests answered on the admin plane.");
  g_queue_depth_ = registry_->GetGauge(
      "hypermine_net_queue_depth",
      "Queries admitted but not yet answered, right now.");
  g_depth_peak_ = registry_->GetGauge(
      "hypermine_net_queue_depth_peak",
      "High-water mark of hypermine_net_queue_depth.");
  g_open_ = registry_->GetGauge(
      "hypermine_net_open_connections",
      "Connections currently owned by the reactors (admin plane included).");
  g_draining_ = registry_->GetGauge("hypermine_net_draining",
                                    "1 once Drain() was requested, else 0.");
  registry_
      ->GetGauge("hypermine_net_reactors",
                 "Reactor threads serving this process.")
      ->Set(static_cast<int64_t>(reactors_.size()));
  // Per-reactor label series: connection distribution and the per-loop
  // work, so a hot or wedged reactor is visible from outside. Each event
  // bumps its reactor's series and the total above together.
  for (auto& r : reactors_) {
    r->accepted = registry_->GetCounter(
        StrFormat("hypermine_net_reactor_connections_accepted_total"
                  "{reactor=\"%zu\"}",
                  r->index),
        "Query-plane connections accepted, by owning reactor.");
    r->reaped = registry_->GetCounter(
        StrFormat("hypermine_net_reactor_connections_reaped_total"
                  "{reactor=\"%zu\"}",
                  r->index),
        "Idle-timeout reaps, by owning reactor.");
    r->batches = registry_->GetCounter(
        StrFormat("hypermine_net_reactor_batches_total{reactor=\"%zu\"}",
                  r->index),
        "Engine batches run, by the reactor owning the connection.");
    r->open = registry_->GetGauge(
        StrFormat("hypermine_net_reactor_open_connections{reactor=\"%zu\"}",
                  r->index),
        "Connections currently owned by this reactor.");
  }
  h_queue_wait_ = registry_->GetHistogram(
      "hypermine_net_queue_wait_seconds",
      "Wait per batch: its first frame parsed to the batch starting on its "
      "reactor.");
  h_engine_batch_ = registry_->GetHistogram(
      "hypermine_engine_batch_seconds",
      "Wall time of api::Engine::QueryBatch per admitted batch.");
  h_write_drain_ = registry_->GetHistogram(
      "hypermine_net_write_drain_seconds",
      "Response write-queue lifetime: first byte queued to queue empty.");
  // The collector bridges only values another owner keeps: the engine's
  // cache and swap counts, the live model and uptime.
  collector_id_ = registry_->AddCollector([this] {
    const api::CacheStats cache = engine_->cache_stats();
    registry_
        ->GetCounter("hypermine_engine_cache_hits_total",
                     "Engine result-cache hits.")
        ->BridgeTo(cache.hits);
    registry_
        ->GetCounter("hypermine_engine_cache_misses_total",
                     "Engine result-cache misses.")
        ->BridgeTo(cache.misses);
    registry_
        ->GetCounter("hypermine_engine_cache_evictions_total",
                     "Engine result-cache LRU evictions.")
        ->BridgeTo(cache.evictions);
    registry_
        ->GetCounter("hypermine_model_swaps_total",
                     "Lifetime api::Engine::Swap calls.")
        ->BridgeTo(engine_->swap_count());

    const uint64_t version = engine_->model()->version();
    registry_
        ->GetGauge("hypermine_model_version",
                   "version() of the currently served model.")
        ->Set(static_cast<int64_t>(version));
    metrics::Gauge* info = registry_->GetGauge(
        StrFormat("hypermine_model_info{model_version=\"%llu\"}",
                  static_cast<unsigned long long>(version)),
        "1 for the label set of the served model, 0 for past ones.");
    if (model_info_gauge_ != nullptr && model_info_gauge_ != info) {
      model_info_gauge_->Set(0);  // a swap happened; retire the old series
    }
    info->Set(1);
    model_info_gauge_ = info;

    registry_
        ->GetGauge("hypermine_process_uptime_seconds",
                   "Seconds since this process started serving metrics.")
        ->Set(static_cast<int64_t>(metrics::ProcessUptimeSeconds()));
  });
  collector_registered_ = true;
}

Server::~Server() { Stop(); }

void Server::WakeAllReactors() {
  for (auto& reactor : reactors_) reactor->loop.Wakeup();
}

void Server::Drain() {
  if (draining_.exchange(true)) return;
  g_draining_->Set(1);
  HM_LOG_INFO << "drain requested: /healthz -> 503, refusing new query "
                 "connections";
  WakeAllReactors();  // each reactor applies the rest (ApplyDrain)
}

void Server::Stop() {
  MutexLock stop_lock(stop_mutex_);
  stopping_.store(true);
  // The collector captures `this`; a scrape of an injected registry
  // after this point must not reach into a dying server.
  if (collector_registered_) {
    registry_->RemoveCollector(collector_id_);
    collector_registered_ = false;
  }
  WakeAllReactors();
  for (auto& reactor : reactors_) {
    if (reactor->thread.joinable()) reactor->thread.join();
  }
  for (auto& reactor : reactors_) TeardownReactor(*reactor);
  open_query_conns_.store(0);
  listener_.Close();
  admin_listener_.Close();
}

void Server::TeardownReactor(Reactor& r) {
  // The reactor thread has exited and unbound its loop, so the stopping
  // thread now owns this reactor's state; the assert claims the
  // capability for the analysis (and would abort if the reactor were
  // somehow still bound).
  r.loop.AssertOnLoopThread();
  // One best-effort nonblocking flush so a reading client gets the
  // responses that were finished when Stop hit (the reactor finished the
  // batch it was running before it left its loop); a stalled client gets
  // a close instead of an unbounded wait.
  for (auto& [id, conn] : r.conns) {
    WriteQueue& out = conn->writes();
    while (out.wants_write()) {
      const std::string_view head = out.write_head();
      Socket::IoResult io = conn->socket.WriteSome(head.data(), head.size());
      if (io.bytes == 0) break;
      out.ConsumeWrite(io.bytes);
    }
  }
  const auto owned = static_cast<int64_t>(r.conns.size());
  r.conns.clear();  // closes every descriptor still owned here
  r.open->Add(-owned);
  g_open_->Add(-owned);
  (void)r.TakeHandoffs();  // and the sockets dealt here but never adopted
}

ServerStats Server::stats() const {
  ServerStats s;
  s.connections_accepted = c_accepted_->value();
  s.connections_rejected = c_rejected_->value();
  s.connections_reaped = c_reaped_->value();
  s.connections_stalled = c_stalled_->value();
  s.queries_shed = c_shed_->value();
  s.batches = c_batches_->value();
  s.queries_answered = c_answered_->value();
  s.queries_rejected = c_rejected_queries_->value();
  s.frames_coalesced = c_coalesced_->value();
  s.bytes_read = c_bytes_read_->value();
  s.bytes_written = c_bytes_written_->value();
  s.queue_depth = static_cast<size_t>(g_queue_depth_->value());
  s.queue_depth_peak = static_cast<size_t>(g_depth_peak_->value());
  s.admin_requests = c_http_requests_->value();
  s.per_reactor.reserve(reactors_.size());
  for (const auto& r : reactors_) {
    s.per_reactor.push_back(ReactorStats{
        r->index, r->accepted->value(), r->reaped->value(),
        static_cast<size_t>(r->open->value()), r->batches->value()});
  }
  return s;
}

void Server::ReactorLoop(Reactor* r) {
  // First act: claim the loop. The runtime bind makes every off-thread
  // use of the loop (or of a bound Connection) abort in debug builds; the
  // assert hands this reactor's capability to the static analysis for the
  // HM_REQUIRES(r.loop) methods below.
  r->loop.BindToCurrentThread();
  r->loop.AssertOnLoopThread();
  std::vector<EventLoop::Event> events;
  while (!stopping_.load()) {
    events.clear();
    // The 1 s ceiling is belt and braces — Stop's Wakeup() (sticky, see
    // EventLoop::Wakeup) is what actually bounds shutdown latency.
    StatusOr<size_t> waited = r->loop.Wait(/*timeout_ms=*/1000, &events);
    if (!waited.ok()) {
      // A dead reactor must not look like a healthy server: stop
      // accepting (handshakes would otherwise keep completing into the
      // backlog) and reset every live socket so clients fail fast
      // instead of hanging on responses nobody will ever write. One dead
      // reactor takes the whole server down — a silently smaller fleet
      // would serve with capacity the operator believes exists.
      HM_LOG_ERROR << "reactor " << r->index
                   << " wait failed, shutting down: "
                   << waited.status().ToString();
      stopping_.store(true);
      for (auto& [id, conn] : r->conns) conn->socket.Shutdown();
      WakeAllReactors();
      break;
    }
    if (stopping_.load()) break;
    AdoptHandoffs(*r);
    if (draining_.load() && !r->drain_applied) ApplyDrain(*r);
    for (const EventLoop::Event& event : events) {
      if (event.timer) {
        if (event.tag == kReapTimerTag) {
          ReapIdle(*r);
        } else if (event.tag == kStallTimerTag) {
          CheckStalls(*r);
        } else if (event.tag == kAcceptRetryTimerTag) {
          // Descriptor pressure may have passed; listen again.
          r->loop.CancelTimer(kAcceptRetryTimerTag);
          if (listener_.valid()) {
            (void)r->loop.Update(listener_.fd(), kListenerTag,
                                 /*read=*/true, /*write=*/false);
            AcceptPending(*r, /*admin=*/false);
          }
        } else if (event.tag == kAdminAcceptRetryTimerTag) {
          r->loop.CancelTimer(kAdminAcceptRetryTimerTag);
          if (admin_listener_.valid()) {
            (void)r->loop.Update(admin_listener_.fd(), kAdminListenerTag,
                                 /*read=*/true, /*write=*/false);
            AcceptPending(*r, /*admin=*/true);
          }
        }
        continue;
      }
      if (event.tag == kListenerTag) {
        AcceptPending(*r, /*admin=*/false);
        continue;
      }
      if (event.tag == kAdminListenerTag) {
        AcceptPending(*r, /*admin=*/true);
        continue;
      }
      HandleConnEvent(*r, event);
    }
  }
  // A stopped server, or one whose reactor died, completes no more
  // handshakes into the backlog: clients fail fast instead of hanging.
  if (r->index == 0) listener_.Shutdown();
  // Last act: release the loop, making Stop()'s post-join teardown (which
  // runs on whatever thread called it) legal again.
  r->loop.UnbindThread();
  // Leave conns and the inbox for Stop(): it joins this thread first, so
  // it owns them from here on.
}

void Server::AcceptPending(Reactor& r, bool admin) {
  Listener& listener = admin ? admin_listener_ : listener_;
  const uint64_t listener_tag = admin ? kAdminListenerTag : kListenerTag;
  const uint64_t retry_tag =
      admin ? kAdminAcceptRetryTimerTag : kAcceptRetryTimerTag;
  while (!stopping_.load()) {
    StatusOr<Socket> accepted = listener.Accept();
    if (!accepted.ok()) {
      if (Listener::WouldBlock(accepted.status())) return;
      if (accepted.status().code() == StatusCode::kFailedPrecondition) {
        return;  // concurrent shutdown
      }
      // EMFILE or a transient network failure. The pending connection
      // stays in the backlog, so a level-triggered loop would spin on it;
      // mute the listener and retry on a timer instead.
      HM_LOG_WARNING << "accept failed: " << accepted.status().ToString()
                     << "; retrying in 100 ms";
      (void)r.loop.Update(listener.fd(), listener_tag, /*read=*/false,
                          /*write=*/false);
      r.loop.AddTimer(retry_tag, 100);
      return;
    }
    if (admin && r.admin_conns >= kMaxAdminConnections) {
      HM_LOG_WARNING << "admin connection rejected: "
                     << kMaxAdminConnections << " already open";
      continue;  // socket closes as `accepted` dies
    }
    if (!admin && draining_.load()) {
      // A draining server takes no new work (ApplyDrain also closes the
      // listener; this covers the race before it runs). The close reads
      // as a refused connection — clients retry elsewhere.
      HM_LOG_INFO << "connection refused: draining";
      c_rejected_->Increment();
      continue;
    }
    if (!admin) {
      // Reserve a slot under the GLOBAL cap, so max_connections holds
      // across reactors; every later failure path (and CloseConn)
      // releases the reservation.
      const size_t open = open_query_conns_.fetch_add(1) + 1;
      if (open > options_.max_connections) {
        open_query_conns_.fetch_sub(1);
        HM_LOG_INFO << "connection rejected: max_connections ("
                    << options_.max_connections << ") reached";
        c_rejected_->Increment();
        continue;
      }
      // Deal query connections round-robin, so two busy clients never
      // share a loop while another sits idle. The target registers its
      // share itself, keeping every connection on the loop that serves it.
      const size_t target = r.next_target;
      r.next_target = (target + 1) % reactors_.size();
      if (target != r.index) {
        reactors_[target]->PushHandoff(std::move(*accepted));
        continue;
      }
    }
    RegisterAccepted(r, std::move(*accepted), admin);
  }
}

void Server::AdoptHandoffs(Reactor& r) {
  for (Socket& socket : r.TakeHandoffs()) {
    if (draining_.load()) {
      // Dealt here before the drain began: refused like AcceptPending's
      // own late accepts, and its reservation released.
      open_query_conns_.fetch_sub(1);
      c_rejected_->Increment();
      continue;  // the socket closes as the vector dies
    }
    RegisterAccepted(r, std::move(socket), /*admin=*/false);
  }
}

void Server::RegisterAccepted(Reactor& r, Socket socket, bool admin) {
  if (!socket.SetNonBlocking(true).ok()) {
    if (!admin) open_query_conns_.fetch_sub(1);
    return;
  }
  Connection::Options machine_options;
  machine_options.max_frame_bytes = options_.max_query_bytes;
  machine_options.write_high_water = options_.write_high_water;
  auto conn = std::make_unique<ReactorConn>(machine_options);
  conn->id = r.next_connection_id++;
  conn->socket = std::move(socket);
  conn->last_activity = std::chrono::steady_clock::now();
  if (admin) {
    conn->admin = true;
    conn->http = std::make_unique<HttpConnection>();
  }
  // Ties the connection's state machine to this reactor for life: debug
  // builds abort if any other thread ever drives it.
  conn->writes().BindLoop(&r.loop);
  Status added = r.loop.Add(conn->socket.fd(), conn->id, /*read=*/true,
                            /*write=*/false);
  if (!added.ok()) {
    HM_LOG_ERROR << "cannot register connection: " << added.ToString();
    if (!admin) open_query_conns_.fetch_sub(1);
    return;
  }
  const uint64_t id = conn->id;
  r.conns.emplace(id, std::move(conn));
  r.open->Add(1);
  g_open_->Add(1);
  if (admin) {
    ++r.admin_conns;
  } else {
    r.accepted->Increment();
    c_accepted_->Increment();
  }
  HM_LOG_INFO << (admin ? "admin" : "query") << " connection #" << id
              << " accepted on reactor " << r.index << " ("
              << r.conns.size() << " open here)";
}

void Server::HandleConnEvent(Reactor& r, const EventLoop::Event& event) {
  auto it = r.conns.find(event.tag);
  if (it == r.conns.end()) return;  // closed earlier this same wait round
  ReactorConn* conn = it->second.get();
  if (event.readable) ReadFromConn(r, conn);
  if (event.writable) FlushWrites(r, conn);
  if (event.hangup && !event.readable && !event.writable) {
    // Full hangup with nothing to transfer: the socket is dead, and with
    // no interest bits set a level-triggered loop would report it
    // forever. Resolve it now.
    conn->dead = true;
  }
  AfterEvent(r, conn);
}

void Server::ReadFromConn(Reactor& r, ReactorConn* conn) {
  while (conn->admin ? conn->http->wants_read()
                     : conn->machine.wants_read()) {
    Socket::IoResult io = conn->socket.ReadSome(r.read_scratch.data(),
                                                r.read_scratch.size());
    if (io.bytes > 0) {
      const std::string_view data(r.read_scratch.data(), io.bytes);
      if (conn->admin) {
        conn->http->Ingest(data);
      } else {
        conn->machine.Ingest(data);
        c_bytes_read_->Increment(io.bytes);
      }
      conn->last_activity = std::chrono::steady_clock::now();
      continue;
    }
    if (io.would_block) return;
    if (io.closed) {
      if (conn->admin) {
        conn->http->OnPeerClosed();
      } else {
        conn->machine.OnPeerClosed();
      }
      return;
    }
    // Transport error: nothing can be read or written reliably anymore.
    conn->dead = true;
    return;
  }
}

void Server::FlushWrites(Reactor& r, ReactorConn* conn) {
  (void)r;  // the capability is the point: only the owning loop writes
  WriteQueue& out = conn->writes();
  while (out.wants_write()) {
    const std::string_view head = out.write_head();
    Socket::IoResult io = conn->socket.WriteSome(head.data(), head.size());
    if (io.bytes > 0) {
      out.ConsumeWrite(io.bytes);
      if (!conn->admin) c_bytes_written_->Increment(io.bytes);
      conn->last_activity = std::chrono::steady_clock::now();
      continue;
    }
    if (io.would_block) return;
    conn->dead = true;
    return;
  }
  // Write-drain stage latency: the queue just emptied.
  if (conn->write_timing) {
    conn->write_timing = false;
    h_write_drain_->Observe(SecondsSince(conn->write_start));
  }
}

void Server::AfterEvent(Reactor& r, ReactorConn* conn) {
  if (conn->dead) {
    CloseConn(r, conn);
    return;
  }
  if (conn->admin) {
    ServeAdminRequests(r, conn);
    if (conn->http->wants_write()) FlushWrites(r, conn);
    if (conn->dead) {
      CloseConn(r, conn);
      return;
    }
    const bool stream_over = conn->http->corrupt() ||
                             conn->http->peer_closed() ||
                             conn->http->close_requested();
    if (stream_over && !conn->http->wants_write()) {
      CloseConn(r, conn);
      return;
    }
    const bool want_read = conn->http->wants_read();
    const bool want_write = conn->http->wants_write();
    if (want_read != conn->want_read || want_write != conn->want_write) {
      conn->want_read = want_read;
      conn->want_write = want_write;
      (void)r.loop.Update(conn->socket.fd(), conn->id, want_read,
                          want_write);
    }
    return;
  }
  if (conn->machine.pending_frames() > 0) {
    SubmitBatch(r, conn);
    if (conn->dead) {
      CloseConn(r, conn);
      return;
    }
  }
  // Stall clock: runs only while the machine sits in the SAME partial
  // frame (see ReactorConn::in_frame).
  if (!conn->machine.mid_frame()) {
    conn->in_frame = false;
  } else if (!conn->in_frame ||
             conn->frames_at_stall_start != conn->machine.frames_parsed()) {
    conn->in_frame = true;
    conn->frames_at_stall_start = conn->machine.frames_parsed();
    conn->frame_start = std::chrono::steady_clock::now();
  }
  // Every decoded frame is answered by now (unless Stop cut in); what is
  // left is the flush. A draining server closes each query connection the
  // moment it is flushed — answered, flushed, and quiet counts as finished
  // even though the peer would happily keep the stream open — and a
  // finished stream closes the same way.
  const bool flushed = conn->machine.pending_frames() == 0 &&
                       !conn->machine.wants_write();
  const bool stream_over =
      conn->machine.corrupt() || conn->machine.peer_closed();
  if (flushed && (draining_.load() || stream_over)) {
    CloseConn(r, conn);
    return;
  }
  const bool want_read = conn->machine.wants_read();
  const bool want_write = conn->machine.wants_write();
  if (want_read != conn->want_read || want_write != conn->want_write) {
    conn->want_read = want_read;
    conn->want_write = want_write;
    (void)r.loop.Update(conn->socket.fd(), conn->id, want_read, want_write);
  }
}

void Server::ServeAdminRequests(Reactor& r, ReactorConn* conn) {
  (void)r;  // admin conns live on reactor 0; the capability is the point
  HttpConnection* http = conn->http.get();
  HttpRequest request;
  while (!http->close_requested() && http->TakeRequest(&request)) {
    HttpResponse response = RouteAdmin(request);
    http->QueueWrite(EncodeHttpResponse(response, request.keep_alive));
    if (!request.keep_alive) http->MarkClose();
    c_http_requests_->Increment();
  }
  if (http->corrupt() && !http->close_requested()) {
    // One diagnosis, then close after the flush; later bytes are ignored
    // by the state machine, so the 400 cannot be followed by anything.
    HttpResponse bad;
    bad.status = http->error().message().find("request head exceeds") !=
                         std::string_view::npos
                     ? 431
                     : 400;
    bad.body = std::string(http->error().message()) + "\n";
    http->QueueWrite(EncodeHttpResponse(bad, /*keep_alive=*/false));
    http->MarkClose();
    c_http_requests_->Increment();
  }
}

HttpResponse Server::RouteAdmin(const HttpRequest& request) {
  HttpResponse response;
  if (request.method != "GET") {
    response.status = 405;
    response.headers.emplace_back("Allow", "GET");
    response.body = "only GET is supported on the admin plane\n";
    return response;
  }
  if (request.path == "/metrics") {
    response.content_type = "text/plain; version=0.0.4; charset=utf-8";
    response.body = registry_->PrometheusText();
  } else if (request.path == "/healthz") {
    // 503 during drain or stop; a model is loaded whenever the server
    // exists (Engine checks at construction), so "startup" ends before
    // Start returns and the port is even reachable.
    const bool healthy = !stopping_.load() && !draining_.load();
    response.status = healthy ? 200 : 503;
    response.body = healthy ? "ok\n" : "draining\n";
  } else if (request.path == "/statusz") {
    response.content_type = "application/json; charset=utf-8";
    response.body = StatuszJson(engine_, this, registry_);
  } else {
    response.status = 404;
    response.body = "not found; try /metrics, /healthz or /statusz\n";
  }
  return response;
}

void Server::SubmitBatch(Reactor& r, ReactorConn* conn) {
  while (conn->machine.pending_frames() > 0 && !conn->dead &&
         !stopping_.load()) {
    std::vector<PendingFrame> frames =
        conn->machine.TakeBatch(options_.max_batch);
    h_queue_wait_->Observe(SecondsSince(frames.front().arrival));
    std::string out;
    BuildResponses(&frames, &conn->served, &out);
    // Counted before the write, so a client holding its answer already
    // sees it in stats().
    c_batches_->Increment();
    r.batches->Increment();
    if (frames.size() > 1) c_coalesced_->Increment(frames.size() - 1);
    if (!conn->write_timing) {
      conn->write_timing = true;
      conn->write_start = std::chrono::steady_clock::now();
    }
    conn->machine.QueueWrite(std::move(out));
    FlushWrites(r, conn);
  }
}

void Server::CloseConn(Reactor& r, ReactorConn* conn) {
  (void)r.loop.Remove(conn->socket.fd());
  if (conn->admin) {
    if (r.admin_conns > 0) --r.admin_conns;
  } else {
    open_query_conns_.fetch_sub(1);  // release the global reservation
  }
  HM_LOG_INFO << (conn->admin ? "admin" : "query") << " connection #"
              << conn->id << " closed on reactor " << r.index;
  r.conns.erase(conn->id);  // closes the socket and frees `conn`
  r.open->Add(-1);
  g_open_->Add(-1);
}

void Server::ReapIdle(Reactor& r) {
  const auto now = std::chrono::steady_clock::now();
  const auto timeout = std::chrono::milliseconds(options_.idle_timeout_ms);
  std::vector<ReactorConn*> idle;
  for (auto& [id, conn] : r.conns) {
    if (conn->machine.pending_frames() > 0 || conn->machine.wants_write()) {
      continue;  // work in progress is not idleness
    }
    if (now - conn->last_activity >= timeout) idle.push_back(conn.get());
  }
  for (ReactorConn* conn : idle) {
    HM_LOG_INFO << (conn->admin ? "admin" : "query") << " connection #"
                << conn->id << " reaped after " << options_.idle_timeout_ms
                << " ms idle";
    const bool was_admin = conn->admin;
    CloseConn(r, conn);
    if (was_admin) continue;  // admin reaps are not query-plane stats
    r.reaped->Increment();
    c_reaped_->Increment();
  }
}

void Server::CheckStalls(Reactor& r) {
  const auto now = std::chrono::steady_clock::now();
  const auto timeout = std::chrono::milliseconds(options_.stall_timeout_ms);
  std::vector<ReactorConn*> stalled;
  for (auto& [id, conn] : r.conns) {
    if (conn->admin || !conn->in_frame) continue;
    if (now - conn->frame_start >= timeout) stalled.push_back(conn.get());
  }
  for (ReactorConn* conn : stalled) {
    HM_LOG_WARNING << "query connection #" << conn->id
                   << " closed: mid-frame stall exceeded "
                   << options_.stall_timeout_ms << " ms (slow loris?)";
    CloseConn(r, conn);
    c_stalled_->Increment();
  }
}

void Server::ApplyDrain(Reactor& r) {
  r.drain_applied = true;
  // Close the query listener (reactor 0 owns it): the kernel resets every
  // connect still queued in its accept backlog and refuses new ones, so
  // clients fail fast and retry elsewhere. Merely muting it would leave
  // queued connects hanging, since nothing would ever accept or close
  // them. The admin listener stays live.
  if (r.index == 0 && listener_.valid()) {
    (void)r.loop.Remove(listener_.fd());
    listener_.Close();
  }
  // Connections with unflushed answers close via AfterEvent once flushed;
  // everything already quiet closes now.
  std::vector<ReactorConn*> idle;
  for (auto& [id, conn] : r.conns) {
    if (conn->admin || conn->machine.pending_frames() > 0 ||
        conn->machine.wants_write()) {
      continue;
    }
    idle.push_back(conn.get());
  }
  for (ReactorConn* conn : idle) CloseConn(r, conn);
  HM_LOG_INFO << "drain applied on reactor " << r.index << ": "
              << idle.size() << " idle query connections closed, "
              << (r.conns.size() - r.admin_conns) << " still finishing";
}

void Server::BuildResponses(std::vector<PendingFrame>* frames,
                            uint64_t* served, std::string* out) {
  std::vector<WireResponse> responses(frames->size());
  std::vector<api::QueryRequest> admitted;
  std::vector<size_t> admitted_slot;
  const auto now = std::chrono::steady_clock::now();
  const auto shed_budget =
      std::chrono::milliseconds(options_.max_queue_wait_ms);

  for (size_t i = 0; i < frames->size(); ++i) {
    PendingFrame& frame = (*frames)[i];
    if (!frame.pre.ok()) {
      responses[i] = ErrorResponse(frame.pre);
      c_rejected_queries_->Increment();
      continue;
    }
    if (frame.header.version != kProtocolVersion) {
      responses[i] = ErrorResponse(Status::Unimplemented(
          StrFormat("protocol version %u not supported (server speaks %u)",
                    unsigned{frame.header.version},
                    unsigned{kProtocolVersion})));
      c_rejected_queries_->Increment();
      continue;
    }
    if (frame.header.type != static_cast<uint16_t>(FrameType::kQuery)) {
      // kUnimplemented, matching the spec's §5 table: a frame type this
      // server does not speak is a capability gap (a future protocol
      // feature), not a malformed request that can never succeed.
      responses[i] = ErrorResponse(Status::Unimplemented(
          StrFormat("frame type %u not supported here (want QUERY)",
                    unsigned{frame.header.type})));
      c_rejected_queries_->Increment();
      continue;
    }
    api::QueryRequest request;
    Status decoded = DecodeQueryBody(frame.body, &request);
    if (!decoded.ok()) {
      responses[i] = ErrorResponse(decoded);
      c_rejected_queries_->Increment();
      continue;
    }
    // Load shedding: a query that already out-waited its budget is worth
    // more as a fast kUnavailable than as a late answer — under overload
    // the engine's time goes to queries that can still arrive in time.
    // Per-frame arrival stamps mean each query's OWN wait decides, not
    // its batch's.
    if (options_.max_queue_wait_ms > 0 && frame.arrival != decltype(now){} &&
        now - frame.arrival > shed_budget) {
      responses[i] = ErrorResponse(Status::Unavailable(
          StrFormat("shed: waited past the %d ms queue budget; retry",
                    options_.max_queue_wait_ms)));
      c_shed_->Increment();
      continue;
    }
    if (options_.max_queries_per_connection != 0 &&
        *served >= options_.max_queries_per_connection) {
      responses[i] = ErrorResponse(Status::ResourceExhausted(
          StrFormat("per-connection query quota (%llu) exhausted",
                    static_cast<unsigned long long>(
                        options_.max_queries_per_connection))));
      c_rejected_queries_->Increment();
      continue;
    }
    // Depth is tracked unconditionally (the gauge is the only store of
    // it) and only *enforced* when a cap is configured.
    const int64_t depth = g_queue_depth_->Add(1);
    g_depth_peak_->UpdateMax(depth);
    if (options_.max_queue_depth != 0 &&
        depth > static_cast<int64_t>(options_.max_queue_depth)) {
      g_queue_depth_->Add(-1);
      responses[i] = ErrorResponse(Status::ResourceExhausted(
          StrFormat("server queue depth (%zu) exceeded; retry later",
                    options_.max_queue_depth)));
      c_rejected_queries_->Increment();
      continue;
    }
    ++*served;
    admitted_slot.push_back(i);
    admitted.push_back(std::move(request));
  }

  if (!admitted.empty()) {
    std::shared_ptr<const api::Model> model;
    std::vector<StatusOr<api::QueryResponse>> results;
    {
      metrics::ScopedTimer timer(h_engine_batch_);
      results = engine_->QueryBatch(admitted, &model);
    }
    g_queue_depth_->Add(-static_cast<int64_t>(admitted.size()));
    c_answered_->Increment(admitted.size());
    for (size_t j = 0; j < results.size(); ++j) {
      responses[admitted_slot[j]] =
          ToWire(results[j], *model, admitted[j].kind);
    }
  }

  // Responses go back in request order, one contiguous buffer per batch.
  for (size_t i = 0; i < frames->size(); ++i) {
    std::string encoded;
    Status status = EncodeResponseFrame((*frames)[i].header.request_id,
                                        responses[i], &encoded);
    if (!status.ok()) {
      // Strip the payload rather than abort; the encode of a bare error
      // cannot fail. An answer too large for one frame goes back as the
      // encoder's kResourceExhausted, which names its result count and
      // encoded size; a name or message too long for a wire string is a
      // server fault.
      encoded.clear();
      HM_CHECK_OK(EncodeResponseFrame(
          (*frames)[i].header.request_id,
          ErrorResponse(status.code() == StatusCode::kResourceExhausted
                            ? status
                            : Status::Internal("response exceeds wire limits")),
          &encoded));
    }
    *out += encoded;
  }
}

std::string StatuszJson(api::Engine* engine, const Server* server,
                        metrics::Registry* registry) {
  HM_CHECK(engine != nullptr);
  HM_CHECK(registry != nullptr);
  const std::shared_ptr<const api::Model> model = engine->model();
  const api::ModelSpec& spec = model->spec();
  const api::CacheStats cache = engine->cache_stats();

  std::string out = "{\n";
  out += StrFormat(
      "  \"model\": {\"version\": %llu, \"vertices\": %zu, \"edges\": %zu,\n",
      static_cast<unsigned long long>(model->version()),
      model->num_vertices(), model->num_edges());
  out += StrFormat(
      "    \"spec\": {\"config\": {\"k\": %zu, \"gamma_edge\": %.6g, "
      "\"gamma_hyper\": %.6g, \"restrict_pairs_to_edges\": %s, "
      "\"keep_pairs_without_edges\": %s},\n",
      spec.config.k, spec.config.gamma_edge, spec.config.gamma_hyper,
      spec.config.restrict_pairs_to_edges ? "true" : "false",
      spec.config.keep_pairs_without_edges ? "true" : "false");
  out += "    \"discretization\": \"" +
         metrics::JsonEscape(spec.discretization) + "\",\n";
  out += StrFormat(
      "    \"provenance\": {\"source\": \"%s\", \"git_sha\": \"%s\", "
      "\"note\": \"%s\", \"created_unix\": %llu}}},\n",
      metrics::JsonEscape(spec.provenance.source).c_str(),
      metrics::JsonEscape(spec.provenance.git_sha).c_str(),
      metrics::JsonEscape(spec.provenance.note).c_str(),
      static_cast<unsigned long long>(spec.provenance.created_unix));
  out += StrFormat(
      "  \"engine\": {\"cache\": {\"hits\": %llu, \"misses\": %llu, "
      "\"evictions\": %llu}, \"swaps\": %llu, \"threads\": %zu},\n",
      static_cast<unsigned long long>(cache.hits),
      static_cast<unsigned long long>(cache.misses),
      static_cast<unsigned long long>(cache.evictions),
      static_cast<unsigned long long>(engine->swap_count()),
      engine->num_threads());
  out += StrFormat(
      "  \"build\": {\"git_sha\": \"%s\", \"build_type\": \"%s\"},\n",
      metrics::JsonEscape(GitSha()).c_str(),
      metrics::JsonEscape(BuildType()).c_str());
  out += StrFormat("  \"uptime_seconds\": %.3f,\n",
                   metrics::ProcessUptimeSeconds());
  if (server != nullptr) {
    const ServerStats s = server->stats();
    out += StrFormat(
        "  \"server\": {\"port\": %u, \"admin_port\": %u, "
        "\"draining\": %s, \"num_reactors\": %zu, "
        "\"connections_accepted\": %llu, \"connections_rejected\": %llu, "
        "\"connections_reaped\": %llu, \"connections_stalled\": %llu, "
        "\"batches\": %llu, "
        "\"queries_answered\": %llu, \"queries_rejected\": %llu, "
        "\"queries_shed\": %llu, "
        "\"frames_coalesced\": %llu, \"bytes_read\": %llu, "
        "\"bytes_written\": %llu, \"queue_depth\": %zu, "
        "\"queue_depth_peak\": %zu, \"admin_requests\": %llu,\n",
        unsigned{server->port()}, unsigned{server->admin_port()},
        server->draining() ? "true" : "false", server->num_reactors(),
        static_cast<unsigned long long>(s.connections_accepted),
        static_cast<unsigned long long>(s.connections_rejected),
        static_cast<unsigned long long>(s.connections_reaped),
        static_cast<unsigned long long>(s.connections_stalled),
        static_cast<unsigned long long>(s.batches),
        static_cast<unsigned long long>(s.queries_answered),
        static_cast<unsigned long long>(s.queries_rejected),
        static_cast<unsigned long long>(s.queries_shed),
        static_cast<unsigned long long>(s.frames_coalesced),
        static_cast<unsigned long long>(s.bytes_read),
        static_cast<unsigned long long>(s.bytes_written), s.queue_depth,
        s.queue_depth_peak,
        static_cast<unsigned long long>(s.admin_requests));
    out += "    \"reactors\": [";
    for (size_t i = 0; i < s.per_reactor.size(); ++i) {
      const ReactorStats& rs = s.per_reactor[i];
      out += StrFormat(
          "%s{\"index\": %zu, \"connections_accepted\": %llu, "
          "\"connections_reaped\": %llu, \"open_connections\": %zu, "
          "\"batches\": %llu}",
          i == 0 ? "" : ", ", rs.index,
          static_cast<unsigned long long>(rs.connections_accepted),
          static_cast<unsigned long long>(rs.connections_reaped),
          rs.open_connections,
          static_cast<unsigned long long>(rs.batches));
    }
    out += "]},\n";
  }
  out += "  \"metrics\": " + registry->JsonText() + "\n";
  out += "}\n";
  return out;
}

}  // namespace hypermine::net
