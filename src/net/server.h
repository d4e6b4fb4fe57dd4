#ifndef HYPERMINE_NET_SERVER_H_
#define HYPERMINE_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "api/engine.h"
#include "net/connection.h"
#include "net/event_loop.h"
#include "net/http.h"
#include "net/protocol.h"
#include "net/reactor.h"
#include "net/socket.h"
#include "util/metrics.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace hypermine::net {

struct ServerOptions {
  /// TCP port on 127.0.0.1; 0 binds an ephemeral port (read it back with
  /// Server::port() — tests and CI use this to avoid collisions).
  uint16_t port = 0;
  /// Reactor threads, one EventLoop each; every connection is pinned to
  /// one reactor for its whole life, and that reactor reads, answers and
  /// writes all of its frames. 0 (the default) means one per hardware
  /// thread, clamped to 128; an explicit value above 128 fails Start.
  /// Reactor 0 accepts every query connection and deals them out
  /// round-robin.
  size_t num_reactors = 0;
  /// Concurrent connections; further accepts are closed immediately.
  /// Connections are multiplexed on the reactor threads, so an idle
  /// connection costs a descriptor and a little state, not a thread —
  /// thousands are fine by default.
  size_t max_connections = 4096;
  /// Most frames coalesced into one api::Engine::QueryBatch. Every frame
  /// a read decoded is answered before the reactor reads again, max_batch
  /// at a time, so pipelined clients get large batches without the server
  /// ever waiting for more input.
  size_t max_batch = 64;
  /// Per-frame body limit (tighter than the protocol's kMaxBodyBytes).
  /// Oversized frames are rejected with kInvalidArgument but the body is
  /// skipped as it streams in, so the connection survives.
  uint32_t max_query_bytes = 64u << 10;
  /// Per-connection lifetime query quota; queries past it are rejected
  /// with kResourceExhausted (the connection stays open — the client is
  /// told, not stalled). 0 = unlimited.
  uint64_t max_queries_per_connection = 0;
  /// Global cap on queries admitted but not yet answered, across all
  /// connections. Excess queries are rejected with kResourceExhausted
  /// instead of queueing unboundedly. 0 = unlimited. A query counts from
  /// admission until its batch returns, so with one batch per reactor at a
  /// time the depth is at most num_reactors × max_batch.
  size_t max_queue_depth = 4096;
  /// Connections with no traffic for this long are closed by their
  /// reactor's reap timer. 0 = never reap. A connection with decoded
  /// frames or unflushed responses is never considered idle.
  int idle_timeout_ms = 0;
  /// Load shedding: a query that already waited longer than this between
  /// being parsed and its engine batch is answered kUnavailable instead of
  /// occupying the reactor — under overload, answering a few queries in
  /// time beats answering all of them late. 0 = never shed. The wait seen
  /// is that of frames queued behind earlier batches of their own
  /// connection (a pipelining client); bytes still in a socket buffer
  /// while the reactor answers another connection are not parsed yet, so
  /// they are not seen.
  int max_queue_wait_ms = 0;
  /// Slow-loris defense: a connection stuck in the middle of one frame
  /// (header or body partially received) for this long is closed. The
  /// idle reaper cannot catch this peer — a byte per reap interval
  /// resets last_activity forever — so the stall clock runs from the
  /// moment the current frame started, not from the last byte.
  /// 0 = never.
  int stall_timeout_ms = 0;
  /// Response bytes queued per connection before the reactor stops
  /// reading from it (EPOLLOUT backpressure): a client that stops
  /// reading its responses stops being read from. 0 = no limit, like
  /// the other 0-able knobs here (the kernel socket buffer still
  /// pushes back on the wire, but the server-side queue can grow).
  size_t write_high_water = 1u << 20;
  /// Admin HTTP plane (GET /metrics, /healthz, /statusz — contract in
  /// docs/observability.md) on a SECOND loopback port, always multiplexed
  /// on reactor 0: no extra thread, and a scrape observes a real serving
  /// loop. -1 disables; 0 binds an ephemeral port (read back with
  /// Server::admin_port()).
  int admin_port = -1;
  /// Registry the server keeps every count in (and /metrics renders).
  /// Null (the default) = a registry the server owns. An injected
  /// registry must outlive the server and belong to it alone: stats()
  /// reads the counters back, so a second server on the same registry
  /// would add its traffic to this one's.
  metrics::Registry* registry = nullptr;
};

/// Counters for smoke tests and ops visibility, read from the server's
/// registry series (docs/observability.md). `per_reactor` breaks some of
/// them down by reactor (ReactorStats, one entry per reactor,
/// index-ordered).
struct ServerStats {
  uint64_t connections_accepted = 0;
  /// Accepts closed because max_connections was reached (or draining).
  uint64_t connections_rejected = 0;
  /// Connections closed by the idle-timeout reap timer.
  uint64_t connections_reaped = 0;
  /// Connections closed by the mid-frame stall timer (slow loris).
  uint64_t connections_stalled = 0;
  /// Queries answered kUnavailable because they out-waited
  /// max_queue_wait_ms (load shedding) or arrived while draining.
  uint64_t queries_shed = 0;
  uint64_t batches = 0;
  /// Queries answered by the engine (including per-query errors such as
  /// unknown vertex names — the engine did run them).
  uint64_t queries_answered = 0;
  /// Queries rejected before reaching the engine (quota, queue depth,
  /// malformed or foreign-version frames).
  uint64_t queries_rejected = 0;
  /// Frames that shared an engine batch with at least one earlier frame —
  /// i.e. syscalls and batch dispatches saved by pipelining. A batch of n
  /// frames adds n-1.
  uint64_t frames_coalesced = 0;
  /// Payload bytes moved on query connections (admin-plane bytes are not
  /// counted here; the registry's admin counters cover those).
  uint64_t bytes_read = 0;
  uint64_t bytes_written = 0;
  /// Queries admitted but not yet answered, right now / at the worst
  /// moment so far (high-water mark).
  size_t queue_depth = 0;
  size_t queue_depth_peak = 0;
  /// HTTP requests answered on the admin plane.
  uint64_t admin_requests = 0;
  /// One entry per reactor (index-ordered). Each event bumps its total
  /// above and its reactor's series together, so the entries sum to the
  /// totals.
  std::vector<ReactorStats> per_reactor;
};

/// TCP front-end over api::Engine: `num_reactors` epoll (fallback: poll)
/// event loops, each on its own reactor thread, own the listeners and
/// every connection socket, and run every batch to completion. The server
/// starts exactly `num_reactors` threads. The framed protocol of
/// net/protocol.h rides the wire unchanged — answers are byte-identical
/// whatever the reactor count.
///
/// Reactors: reactor 0 owns the one query listener. It accepts every query
/// connection and deals it round-robin; a socket meant for another reactor
/// goes into that reactor's inbox, and the owner registers it. Each
/// connection is pinned to one reactor for its whole life (net/reactor.h),
/// so per-connection state needs no locks and the EventLoop's "reactor"
/// capability holds per loop.
///
/// Within a reactor, nonblocking reads feed each connection's
/// net::Connection state machine (read buffer → frame decode). The same
/// thread then answers the decoded frames: admission, one
/// api::Engine::QueryBatch per `max_batch` frames, response encode, and a
/// write through the connection's write queue under EPOLLOUT
/// backpressure. Nothing crosses a thread between the read and the
/// write. The price: while a batch runs, the other connections on that
/// reactor wait, and accepts and the admin plane wait with reactor 0.
///
/// Admission control rejects rather than stalls: per-connection quota,
/// global queue depth, and per-frame size limits all answer with a status
/// frame (kResourceExhausted / kInvalidArgument) while well-formed framing
/// keeps the connection usable. Only unrecoverable streams (bad magic,
/// truncated header, a close mid-frame) drop the connection — after the
/// frames decoded before the violation are answered and flushed.
///
/// Hot swap: the server holds only the Engine*, never a Model, so
/// api::Engine::Swap under live connections is safe by construction —
/// in-flight batches finish on the model they acquired and later batches
/// see the new one; responses carry model_version so clients observe the
/// flip without a reconnect.
///
/// Thread-safety: Start/Stop/port/stats may be called from any thread;
/// Stop is idempotent and the destructor calls it. The Engine must
/// outlive the Server.
class Server {
 public:
  /// Binds, spawns the reactors, and returns a running server. The
  /// engine pointer is borrowed. A failed bind returns its status
  /// (kIoError); kInvalidArgument for out-of-range options.
  static StatusOr<std::unique_ptr<Server>> Start(api::Engine* engine,
                                                 ServerOptions options);

  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// The bound port (the real one when options.port was 0).
  uint16_t port() const { return port_; }

  /// The bound admin-plane port; 0 when the admin plane is disabled.
  uint16_t admin_port() const { return admin_listener_.port(); }

  /// Reactor threads actually running (options.num_reactors resolved).
  size_t num_reactors() const { return reactors_.size(); }

  /// Stops accepting, joins every reactor (each finishes the batch it is
  /// running), makes one best-effort nonblocking flush of finished
  /// responses, and closes every connection. Prompt even with thousands
  /// of idle connections open (the reactors own all of them; there is no
  /// per-connection thread to unwind). Idempotent. The one sacrifice for
  /// promptness: a client too slow to drain its responses may observe a
  /// close mid-frame.
  void Stop();

  /// Enters the drain state (idempotent, any thread): /healthz flips to
  /// 503 "draining" so rolling-restart orchestration stops routing here,
  /// the query listener closes (new connects are refused, and those still
  /// in the accept backlog are reset), idle query connections are
  /// closed, and busy ones are closed as soon as their in-flight work is
  /// answered and flushed. The admin plane stays up — the orchestrator
  /// must keep observing the drain it requested. Serving still works for
  /// whatever remains connected; call Stop() for the actual shutdown.
  void Drain();

  /// True once Drain() was called.
  bool draining() const { return draining_.load(); }

  ServerStats stats() const;

 private:
  Server(api::Engine* engine, ServerOptions options,
         std::vector<std::unique_ptr<Reactor>> reactors, Listener listener,
         Listener admin_listener);

  // Every method below marked HM_REQUIRES(r.loop) runs only with that
  // reactor's capability held: on its reactor thread (ReactorLoop
  // establishes it via AssertOnLoopThread) or, for teardown, in Stop()
  // after that reactor joined and unbound.
  void ReactorLoop(Reactor* r);
  /// Drains one listener's accept backlog (reactor 0 only); `admin`
  /// selects the admin plane (HTTP personality, its own connection cap).
  /// Query connections are dealt round-robin over the reactors.
  void AcceptPending(Reactor& r, bool admin) HM_REQUIRES(r.loop);
  /// Registers the sockets reactor 0 dealt to this reactor, or closes them
  /// as rejected once a drain began.
  void AdoptHandoffs(Reactor& r) HM_REQUIRES(r.loop);
  /// Registers an accepted socket with this reactor (the connection's
  /// home for life). The max_connections reservation was already taken
  /// at accept time; failure paths here release it.
  void RegisterAccepted(Reactor& r, Socket socket, bool admin)
      HM_REQUIRES(r.loop);
  void HandleConnEvent(Reactor& r, const EventLoop::Event& event)
      HM_REQUIRES(r.loop);
  void ReadFromConn(Reactor& r, ReactorConn* conn) HM_REQUIRES(r.loop);
  void FlushWrites(Reactor& r, ReactorConn* conn) HM_REQUIRES(r.loop);
  /// Answers the decoded frames, closes the connection if it is finished,
  /// refreshes event-loop interest otherwise.
  void AfterEvent(Reactor& r, ReactorConn* conn) HM_REQUIRES(r.loop);
  /// Answers every parsed admin request queued on `conn` (and the one 400
  /// a corrupt stream earns before it is closed).
  void ServeAdminRequests(Reactor& r, ReactorConn* conn)
      HM_REQUIRES(r.loop);
  /// Routes one admin request to /metrics, /healthz, or /statusz.
  /// Touches only cross-thread-safe state, so no reactor requirement.
  HttpResponse RouteAdmin(const HttpRequest& request);
  /// Runs the connection's decoded frames to completion on this reactor,
  /// `max_batch` at a time: admission, engine batch, encode, queue and
  /// flush.
  void SubmitBatch(Reactor& r, ReactorConn* conn) HM_REQUIRES(r.loop);
  void CloseConn(Reactor& r, ReactorConn* conn) HM_REQUIRES(r.loop);
  void ReapIdle(Reactor& r) HM_REQUIRES(r.loop);
  /// Closes query connections stuck mid-frame past stall_timeout_ms.
  void CheckStalls(Reactor& r) HM_REQUIRES(r.loop);
  /// Reactor-side drain entry: closes the query listener (reactor 0) and
  /// this reactor's quiet query connections. Runs once per reactor per
  /// Drain().
  void ApplyDrain(Reactor& r) HM_REQUIRES(r.loop);
  /// Post-join teardown of one reactor (claims its capability itself).
  void TeardownReactor(Reactor& r);
  /// Admission checks and engine execution for one batch; appends the
  /// encoded response frames to `*out` and counts each frame's outcome.
  void BuildResponses(std::vector<PendingFrame>* frames, uint64_t* served,
                      std::string* out);
  void WakeAllReactors();

  api::Engine* const engine_;
  const ServerOptions options_;
  /// Resolved listener port.
  uint16_t port_ = 0;
  std::vector<std::unique_ptr<Reactor>> reactors_;
  /// The query listener, registered in reactor 0's loop. Only reactor 0
  /// touches it (a drain closes it there), and Stop() after the join.
  Listener listener_;
  /// Invalid (port() == 0) when the admin plane is disabled. Registered
  /// in reactor 0's loop.
  Listener admin_listener_;

  // --- observability (docs/observability.md) ---
  /// The registry the server made when options.registry was null.
  std::unique_ptr<metrics::Registry> owned_registry_;
  metrics::Registry* registry_ = nullptr;
  /// Every count the server keeps, each one registry series bumped on the
  /// reactor thread where its event happens. The per-reactor series live
  /// on each Reactor.
  metrics::Counter* c_accepted_ = nullptr;
  metrics::Counter* c_rejected_ = nullptr;
  metrics::Counter* c_reaped_ = nullptr;
  metrics::Counter* c_stalled_ = nullptr;
  metrics::Counter* c_shed_ = nullptr;
  metrics::Counter* c_batches_ = nullptr;
  metrics::Counter* c_answered_ = nullptr;
  metrics::Counter* c_rejected_queries_ = nullptr;
  metrics::Counter* c_coalesced_ = nullptr;
  metrics::Counter* c_bytes_read_ = nullptr;
  metrics::Counter* c_bytes_written_ = nullptr;
  metrics::Counter* c_http_requests_ = nullptr;
  /// Queries admitted but not yet answered, across all connections: the
  /// count max_queue_depth admission checks.
  metrics::Gauge* g_queue_depth_ = nullptr;
  metrics::Gauge* g_depth_peak_ = nullptr;
  metrics::Gauge* g_open_ = nullptr;
  metrics::Gauge* g_draining_ = nullptr;
  /// Per-stage latency histograms, observed directly on the hot path
  /// (two relaxed atomic adds each).
  metrics::Histogram* h_queue_wait_ = nullptr;
  metrics::Histogram* h_engine_batch_ = nullptr;
  metrics::Histogram* h_write_drain_ = nullptr;
  /// The scrape-time collector bridging the values other owners hold
  /// (engine cache and swaps, model version, uptime) into registry_;
  /// removed in Stop (it captures `this`).
  uint64_t collector_id_ = 0;
  bool collector_registered_ = false;
  /// The currently-set hypermine_model_info{model_version="N"} gauge, so
  /// the collector can zero the stale label series after a swap. Only
  /// touched by collectors (serialized by the registry).
  metrics::Gauge* model_info_gauge_ = nullptr;

  std::atomic<bool> stopping_{false};
  /// Set by Drain() (any thread); each reactor applies it once.
  std::atomic<bool> draining_{false};
  /// Open query-plane connections across all reactors, reserved at
  /// accept time so max_connections is enforced globally, not per
  /// reactor.
  std::atomic<size_t> open_query_conns_{0};

  Mutex stop_mutex_;  // serializes concurrent Stop calls
};

/// The /statusz document (also what `hypermine_serve`'s `!stats` prints):
/// model version + ModelSpec + provenance, build info, uptime, the
/// server's ServerStats (per-reactor breakdown included) when `server` is
/// non-null, and every metric in `registry` with histogram percentiles.
/// `engine` and `registry` must be non-null.
std::string StatuszJson(api::Engine* engine, const Server* server,
                        metrics::Registry* registry);

}  // namespace hypermine::net

#endif  // HYPERMINE_NET_SERVER_H_
