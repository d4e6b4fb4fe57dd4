#ifndef HYPERMINE_NET_REACTOR_H_
#define HYPERMINE_NET_REACTOR_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/connection.h"
#include "net/event_loop.h"
#include "net/http.h"
#include "net/socket.h"
#include "util/metrics.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace hypermine::net {

struct Reactor;

/// Per-connection reactor state. The `machine` (framing + write queue),
/// the flags, and `last_activity` belong to the owning reactor thread
/// alone — a connection is pinned to one reactor for its whole life.
/// `served` is written only by the pool worker running this connection's
/// single in-flight batch; the completion-queue mutex and the pool's task
/// queue order batch N's write before batch N+1's read.
struct ReactorConn {
  uint64_t id = 0;
  /// The reactor this connection is pinned to (set at registration, never
  /// changed): pool workers route the finished batch back through it.
  Reactor* reactor = nullptr;
  Socket socket;
  Connection machine;
  uint64_t served = 0;

  /// Admin-plane connection: `http` replaces `machine` as the protocol
  /// state machine (machine stays default-constructed and unused).
  bool admin = false;
  std::unique_ptr<HttpConnection> http;
  /// The write queue of whichever state machine this connection runs.
  WriteQueue& writes() {
    return admin ? static_cast<WriteQueue&>(*http) : machine;
  }

  /// Write-drain timing (query conns): set when the write queue goes
  /// non-empty, observed into the drain histogram when it empties.
  bool write_timing = false;
  std::chrono::steady_clock::time_point write_start;

  /// Stall detection (query conns): set with a timestamp when a read
  /// leaves the machine mid-frame; re-anchored whenever frames_parsed()
  /// moves (completing frames is progress even when the machine is
  /// always midway through the NEXT one). The clock must NOT reset on
  /// mere activity — a slow-loris peer is active, a byte at a time.
  bool in_frame = false;
  uint64_t frames_at_stall_start = 0;
  std::chrono::steady_clock::time_point frame_start;

  bool batch_in_flight = false;
  /// A transport error or full hangup: close without flushing.
  bool dead = false;
  /// Set by the reactor when it drops the connection, so a completion
  /// that arrives later knows its bytes have nowhere to go.
  bool closed = false;
  bool want_read = true;
  bool want_write = false;
  std::chrono::steady_clock::time_point last_activity;

  explicit ReactorConn(Connection::Options options) : machine(options) {}
};

/// One finished engine batch on its way back to its connection's reactor.
struct BatchCompletion {
  std::shared_ptr<ReactorConn> conn;
  std::string bytes;
};

/// Point-in-time view of one reactor, for ServerStats::per_reactor and
/// /statusz: its hypermine_net_reactor_* series plus the outstanding
/// count. Individually monotonic except the two occupancy values.
struct ReactorStats {
  size_t index = 0;
  uint64_t connections_accepted = 0;
  uint64_t connections_reaped = 0;
  /// Connections currently owned (admin plane included, reactor 0 only).
  size_t open_connections = 0;
  /// Engine batches executed for connections owned by this reactor.
  uint64_t batches = 0;
  /// Batches handed to the pool and not yet applied back here.
  size_t outstanding_batches = 0;
};

/// One reactor: an event loop, the thread that runs it, and everything
/// that thread owns. net::Server runs `num_reactors` of these; every
/// connection lives and dies on exactly one, so the `HM_CAPABILITY
/// ("reactor")` on EventLoop holds per-loop exactly as it did when there
/// was only one. The members below split three ways:
///
///  - loop-guarded state (conns, drain bookkeeping): reactor thread only,
///    or Stop() after the join — same ownership story as before, now per
///    reactor;
///  - the completion queue + outstanding count: the rendezvous between
///    pool workers finishing batches and this reactor applying them;
///  - pointers to this reactor's labelled series in the server's registry,
///    which keeps the counts themselves.
///
/// The small cross-thread methods live in reactor.cc; all protocol and
/// policy logic stays in Server methods parameterized by `Reactor&` and
/// annotated HM_REQUIRES(r.loop).
struct Reactor {
  size_t index = 0;
  EventLoop loop;
  /// This reactor's own listener (one of several SO_REUSEPORT listeners
  /// on the shared port when there are several reactors). A drain removes
  /// it from the loop and closes it for good.
  Listener listener;
  std::thread thread;

  // --- reactor-thread state, guarded by the "reactor" capability ---
  std::unordered_map<uint64_t, std::shared_ptr<ReactorConn>> conns
      HM_GUARDED_BY(loop);
  /// This reactor's record that the drain request was applied here.
  bool drain_applied HM_GUARDED_BY(loop) = false;
  /// Admin-plane subset of conns (reactor 0 only; exempt from
  /// max_connections but capped separately).
  size_t admin_conns HM_GUARDED_BY(loop) = 0;
  /// Connection ids double as event-loop tags, so a per-reactor namespace
  /// is enough — tags never cross loops.
  uint64_t next_connection_id HM_GUARDED_BY(loop) = 1;
  std::vector<char> read_scratch HM_GUARDED_BY(loop);

  // --- pool-worker rendezvous ---
  mutable Mutex completion_mutex;
  CondVar outstanding_cv;
  std::vector<BatchCompletion> completions HM_GUARDED_BY(completion_mutex);
  size_t outstanding_batches HM_GUARDED_BY(completion_mutex) = 0;

  // --- this reactor's labelled series in the server's registry ---
  // Set once by the Server constructor, before the thread starts. The
  // reactor bumps all but `batches`, which the pool worker running the
  // batch bumps; the registry is the only store of these counts.
  metrics::Counter* accepted = nullptr;
  metrics::Counter* reaped = nullptr;
  metrics::Counter* batches = nullptr;
  /// conns.size(), for readers off the reactor thread.
  metrics::Gauge* open = nullptr;

  Reactor(size_t reactor_index, EventLoop reactor_loop);

  /// Queues one finished batch for this reactor (pool worker side). The
  /// caller wakes the loop separately — see Server::ExecuteBatch for the
  /// push / wakeup / FinishBatch ordering that Stop() relies on.
  void PushCompletion(BatchCompletion done);
  /// Takes everything queued (reactor side).
  std::vector<BatchCompletion> TakeCompletions();
  /// Accounts one batch handed to the pool / applied back.
  void BeginBatch();
  void FinishBatch();
  /// Blocks until no batch is outstanding, then returns the completions
  /// that piled up after the loop exited. Stop()-only: the reactor thread
  /// must already be joined.
  std::vector<BatchCompletion> WaitIdleAndCollect();

  /// Batches handed to the pool and not yet applied back (any thread).
  size_t outstanding() const;
};

}  // namespace hypermine::net

#endif  // HYPERMINE_NET_REACTOR_H_
