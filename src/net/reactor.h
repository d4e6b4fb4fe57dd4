#ifndef HYPERMINE_NET_REACTOR_H_
#define HYPERMINE_NET_REACTOR_H_

#include <chrono>
#include <cstdint>
#include <memory>
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

/// Per-connection reactor state. Everything here belongs to the owning
/// reactor thread alone: a connection is pinned to one reactor for its
/// whole life, and that reactor also runs its batches.
struct ReactorConn {
  uint64_t id = 0;
  Socket socket;
  Connection machine;
  /// Queries admitted on this connection so far (the per-connection quota).
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
  /// non-empty, observed into the drain histogram when FlushWrites
  /// empties it, so it is set exactly while the queue holds bytes.
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

  /// A transport error or full hangup: close without flushing.
  bool dead = false;
  bool want_read = true;
  bool want_write = false;
  std::chrono::steady_clock::time_point last_activity;

  explicit ReactorConn(Connection::Options options) : machine(options) {}
};

/// Point-in-time view of one reactor, for ServerStats::per_reactor and
/// /statusz: its hypermine_net_reactor_* series. Individually monotonic
/// except `open_connections`.
struct ReactorStats {
  size_t index = 0;
  uint64_t connections_accepted = 0;
  uint64_t connections_reaped = 0;
  /// Connections currently owned (admin plane included, reactor 0 only).
  size_t open_connections = 0;
  /// Engine batches run for connections owned by this reactor.
  uint64_t batches = 0;
};

/// One reactor: an event loop, the thread that runs it, and everything
/// that thread owns. net::Server runs `num_reactors` of these; every
/// connection lives and dies on exactly one, which reads its frames,
/// answers them and writes the answers, so the `HM_CAPABILITY("reactor")`
/// on EventLoop holds per loop. The members below split three ways:
///
///  - loop-guarded state (conns, drain bookkeeping): reactor thread only,
///    or Stop() after the join;
///  - the inbox: reactor 0 accepts every query connection and deals the
///    sockets out round-robin; another reactor's share waits here until
///    its owner registers it, so every connection is registered by the
///    loop that serves it;
///  - pointers to this reactor's labelled series in the server's registry,
///    which keeps the counts themselves.
///
/// The inbox methods live in reactor.cc; all protocol and policy logic
/// stays in Server methods parameterized by `Reactor&` and annotated
/// HM_REQUIRES(r.loop).
struct Reactor {
  size_t index = 0;
  EventLoop loop;
  std::thread thread;

  // --- reactor-thread state, guarded by the "reactor" capability ---
  std::unordered_map<uint64_t, std::unique_ptr<ReactorConn>> conns
      HM_GUARDED_BY(loop);
  /// This reactor's record that the drain request was applied here.
  bool drain_applied HM_GUARDED_BY(loop) = false;
  /// Admin-plane subset of conns (reactor 0 only; exempt from
  /// max_connections but capped separately).
  size_t admin_conns HM_GUARDED_BY(loop) = 0;
  /// Connection ids double as event-loop tags, so a per-reactor namespace
  /// is enough — tags never cross loops.
  uint64_t next_connection_id HM_GUARDED_BY(loop) = 1;
  /// Reactor 0 only: the reactor the next accepted query connection goes
  /// to, counting up modulo the reactor count.
  size_t next_target HM_GUARDED_BY(loop) = 0;
  std::vector<char> read_scratch HM_GUARDED_BY(loop);

  // --- the inbox: sockets reactor 0 accepted for this reactor ---
  Mutex inbox_mutex;
  std::vector<Socket> inbox HM_GUARDED_BY(inbox_mutex);

  // --- this reactor's labelled series in the server's registry ---
  // Set once by the Server constructor, before the thread starts, and
  // bumped on this reactor's thread; the registry is the only store of
  // these counts.
  metrics::Counter* accepted = nullptr;
  metrics::Counter* reaped = nullptr;
  metrics::Counter* batches = nullptr;
  /// conns.size(), for readers off the reactor thread.
  metrics::Gauge* open = nullptr;

  Reactor(size_t reactor_index, EventLoop reactor_loop);

  /// Queues an accepted socket for this reactor and wakes its loop (any
  /// thread; reactor 0 in practice).
  void PushHandoff(Socket socket);
  /// Takes every queued socket (this reactor's thread, or Stop()).
  std::vector<Socket> TakeHandoffs();
};

}  // namespace hypermine::net

#endif  // HYPERMINE_NET_REACTOR_H_
