#ifndef HYPERMINE_NET_SOCKET_H_
#define HYPERMINE_NET_SOCKET_H_

#include <cstdint>
#include <string>

#include "util/status.h"

namespace hypermine::net {

/// Owning wrapper around one connected TCP stream socket. Move-only; the
/// descriptor is closed on destruction. Reads and writes are blocking and
/// loop over partial transfers (EINTR included), so ReadFull/WriteAll
/// either transfer every byte or report why they could not.
///
/// Thread-safety: one Socket may be used by at most one reader and one
/// writer thread concurrently (full-duplex); concurrent calls to the same
/// direction are not synchronized.
class Socket {
 public:
  Socket() = default;
  /// Takes ownership of an already-connected descriptor.
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket();

  Socket(Socket&& other) noexcept;
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  /// Connects to host:port (numeric IPv4 or a resolvable name).
  /// `retry_ms` > 0 keeps retrying refused connections for that long —
  /// used by clients racing a server that is still binding its port.
  /// Retries follow the capped exponential schedule in net/backoff.h
  /// (10 ms doubling to 500 ms, jitter-free), clamped to the budget.
  static StatusOr<Socket> Connect(const std::string& host, uint16_t port,
                                  int retry_ms = 0);

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  /// One nonblocking transfer attempt (used by the event-loop server;
  /// the blocking Read/Write paths below are unaffected). Exactly one of
  /// the fields describes the outcome.
  struct IoResult {
    /// Bytes transferred now (0 with everything else false only for
    /// zero-length requests).
    size_t bytes = 0;
    /// EAGAIN/EWOULDBLOCK: nothing transferable; retry when the event
    /// loop signals readiness.
    bool would_block = false;
    /// Read side only: the peer closed its write half (EOF).
    bool closed = false;
    /// A real transport error (reset, EPIPE, ...).
    Status status;
  };

  /// Switches the descriptor between blocking and nonblocking mode.
  Status SetNonBlocking(bool enable);

  /// Caps how long a blocking read may wait for bytes (SO_RCVTIMEO);
  /// 0 disables the cap. When it expires, ReadFull reports
  /// kDeadlineExceeded. Clients use this to enforce CallOptions
  /// deadlines without restructuring onto nonblocking IO.
  Status SetReadTimeoutMs(int timeout_ms);

  /// Caps how long a blocking write may wait for buffer space
  /// (SO_SNDTIMEO); 0 disables. WriteAll reports kDeadlineExceeded.
  Status SetWriteTimeoutMs(int timeout_ms);

  /// Reads whatever is available, at most `len` bytes.
  IoResult ReadSome(void* out, size_t len);

  /// Writes what the kernel will take, at most `len` bytes.
  IoResult WriteSome(const void* data, size_t len);

  /// Reads exactly `len` bytes into `out`. kIoError on a read error;
  /// kCorrupted("connection closed...") when the peer closed mid-buffer;
  /// kNotFound("connection closed") on a clean close at offset 0 — the
  /// caller distinguishes "peer finished" from "peer died mid-frame";
  /// kDeadlineExceeded when a SetReadTimeoutMs cap expired first.
  Status ReadFull(void* out, size_t len);

  /// Writes all `len` bytes. kIoError when the peer is gone (EPIPE/reset);
  /// kDeadlineExceeded when a SetWriteTimeoutMs cap expired first.
  Status WriteAll(const void* data, size_t len);

  /// True when at least one byte is readable within `timeout_ms`
  /// (0 = poll without blocking). Used to coalesce already-arrived frames
  /// into one engine batch without stalling for future ones.
  bool Readable(int timeout_ms) const;

  /// Shuts down both directions (wakes a blocked reader on another
  /// thread) without closing the descriptor. Safe on an invalid socket.
  void Shutdown();

  /// Closes the descriptor now (idempotent).
  void Close();

 private:
  int fd_ = -1;
};

/// Owning wrapper around a listening TCP socket bound to 127.0.0.1.
/// Move-only. Accept() blocks until a client connects or Shutdown() is
/// called from another thread.
class Listener {
 public:
  Listener() = default;
  ~Listener();

  Listener(Listener&& other) noexcept;
  Listener& operator=(Listener&& other) noexcept;
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  /// Binds and listens on 127.0.0.1:port with SO_REUSEADDR; port 0 picks
  /// an ephemeral port (read it back with port()).
  static StatusOr<Listener> Bind(uint16_t port, int backlog = 128);

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  /// The actually bound port (resolves port 0 to the kernel's choice).
  uint16_t port() const { return port_; }

  /// Switches the listening descriptor between blocking and nonblocking
  /// mode (the event-loop server accepts nonblocking so a spurious
  /// readiness event cannot park the reactor in accept()).
  Status SetNonBlocking(bool enable);

  /// Blocks for the next connection (or, on a nonblocking listener,
  /// returns kResourceExhausted with message "no pending connection" when
  /// none is queued — use WouldBlock() on the status to distinguish it
  /// from a real accept backlog problem). kFailedPrecondition after
  /// Shutdown; kIoError on accept failures.
  StatusOr<Socket> Accept();

  /// True when `status` is Accept()'s nonblocking "nothing queued" case.
  static bool WouldBlock(const Status& status);

  /// Unblocks a concurrent Accept() and makes all future Accepts fail.
  void Shutdown();

  void Close();

 private:
  int fd_ = -1;
  uint16_t port_ = 0;
};

}  // namespace hypermine::net

#endif  // HYPERMINE_NET_SOCKET_H_
