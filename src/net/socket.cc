#include "net/socket.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

#include "net/backoff.h"
#include "util/fault.h"
#include "util/string_util.h"

namespace hypermine::net {
namespace {

Status Errno(const char* what) {
  return Status::IoError(StrFormat("%s: %s", what, std::strerror(errno)));
}

/// Frames are tiny relative to the kernel buffer; batching happens at the
/// protocol layer, so Nagle only adds latency here.
void DisableNagle(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

Socket::~Socket() { Close(); }

Socket::Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

StatusOr<Socket> Socket::Connect(const std::string& host, uint16_t port,
                                 int retry_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(retry_ms);
  struct addrinfo hints = {};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  struct addrinfo* addrs = nullptr;
  const std::string service = std::to_string(port);
  int rc = ::getaddrinfo(host.c_str(), service.c_str(), &hints, &addrs);
  if (rc != 0) {
    return Status::InvalidArgument(StrFormat("cannot resolve %s: %s",
                                             host.c_str(),
                                             ::gai_strerror(rc)));
  }

  Status last = Status::IoError("no addresses for " + host);
  const BackoffPolicy backoff{/*base_ms=*/10, /*max_ms=*/500,
                              /*jitter=*/false};
  for (int attempt = 0;; ++attempt) {
    for (struct addrinfo* a = addrs; a != nullptr; a = a->ai_next) {
      int fd = ::socket(a->ai_family, a->ai_socktype, a->ai_protocol);
      if (fd < 0) {
        last = Errno("socket");
        continue;
      }
      if (::connect(fd, a->ai_addr, a->ai_addrlen) == 0) {
        ::freeaddrinfo(addrs);
        DisableNagle(fd);
        return Socket(fd);
      }
      last = Errno("connect");
      ::close(fd);
    }
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) break;
    // Server not up yet (CI races startup): capped exponential backoff,
    // clamped so the last sleep ends exactly at the retry budget.
    auto wait = std::chrono::milliseconds(BackoffDelayMs(backoff, attempt));
    if (now + wait > deadline) {
      wait = std::chrono::duration_cast<std::chrono::milliseconds>(deadline -
                                                                   now);
    }
    std::this_thread::sleep_for(wait);
  }
  ::freeaddrinfo(addrs);
  return last;
}

namespace {

Status SetFdNonBlocking(int fd, bool enable, const char* what) {
  if (fd < 0) return Status::FailedPrecondition("invalid descriptor");
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return Errno(what);
  const int wanted = enable ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  if (wanted != flags && ::fcntl(fd, F_SETFL, wanted) < 0) {
    return Errno(what);
  }
  return Status::OK();
}

}  // namespace

Status Socket::SetNonBlocking(bool enable) {
  return SetFdNonBlocking(fd_, enable, "fcntl(socket)");
}

namespace {

Status SetIoTimeout(int fd, int optname, int timeout_ms, const char* what) {
  if (fd < 0) return Status::FailedPrecondition("invalid descriptor");
  if (timeout_ms < 0) return Status::InvalidArgument("negative timeout");
  struct timeval tv = {};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  if (::setsockopt(fd, SOL_SOCKET, optname, &tv, sizeof(tv)) != 0) {
    return Errno(what);
  }
  return Status::OK();
}

}  // namespace

Status Socket::SetReadTimeoutMs(int timeout_ms) {
  return SetIoTimeout(fd_, SO_RCVTIMEO, timeout_ms, "setsockopt(SO_RCVTIMEO)");
}

Status Socket::SetWriteTimeoutMs(int timeout_ms) {
  return SetIoTimeout(fd_, SO_SNDTIMEO, timeout_ms, "setsockopt(SO_SNDTIMEO)");
}

Socket::IoResult Socket::ReadSome(void* out, size_t len) {
  IoResult result;
  if (fault::ShouldFail("socket.read")) {
    result.status = Status::IoError("injected fault: socket.read");
    return result;
  }
  if (len > 1 && fault::ShouldFail("socket.read.short")) {
    len = 1;  // force the framing machine through its partial-read paths
  }
  for (;;) {
    ssize_t n = ::read(fd_, out, len);
    if (n > 0) {
      result.bytes = static_cast<size_t>(n);
      return result;
    }
    if (n == 0) {
      result.closed = len > 0;
      return result;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      result.would_block = true;
      return result;
    }
    result.status = Errno("read");
    return result;
  }
}

Socket::IoResult Socket::WriteSome(const void* data, size_t len) {
  IoResult result;
  if (fault::ShouldFail("socket.write")) {
    result.status = Status::IoError("injected fault: socket.write");
    return result;
  }
  if (len > 1 && fault::ShouldFail("socket.write.short")) {
    len = 1;  // exercise the reactor's partial-write / EPOLLOUT path
  }
  for (;;) {
    ssize_t n = ::send(fd_, data, len, MSG_NOSIGNAL);
    if (n >= 0) {
      result.bytes = static_cast<size_t>(n);
      return result;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      result.would_block = true;
      return result;
    }
    result.status = Errno("write");
    return result;
  }
}

Status Socket::ReadFull(void* out, size_t len) {
  if (len > 0 && fault::ShouldFail("socket.read")) {
    return Status::IoError("injected fault: socket.read");
  }
  char* cursor = static_cast<char*>(out);
  size_t got = 0;
  while (got < len) {
    ssize_t n = ::read(fd_, cursor + got, len - got);
    if (n > 0) {
      got += static_cast<size_t>(n);
      continue;
    }
    if (n == 0) {
      if (got == 0) return Status::NotFound("connection closed");
      return Status::Corrupted(
          StrFormat("connection closed mid-read (%zu of %zu bytes)", got,
                    len));
    }
    if (errno == EINTR) continue;
    // On a blocking socket EAGAIN only happens when SO_RCVTIMEO expired.
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return Status::DeadlineExceeded(
          StrFormat("read timed out (%zu of %zu bytes)", got, len));
    }
    return Errno("read");
  }
  return Status::OK();
}

Status Socket::WriteAll(const void* data, size_t len) {
  if (len > 0 && fault::ShouldFail("socket.write")) {
    return Status::IoError("injected fault: socket.write");
  }
  const char* cursor = static_cast<const char*>(data);
  size_t sent = 0;
  while (sent < len) {
    ssize_t n = ::send(fd_, cursor + sent, len - sent, MSG_NOSIGNAL);
    if (n >= 0) {
      sent += static_cast<size_t>(n);
      continue;
    }
    if (errno == EINTR) continue;
    // On a blocking socket EAGAIN only happens when SO_SNDTIMEO expired.
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return Status::DeadlineExceeded(
          StrFormat("write timed out (%zu of %zu bytes)", sent, len));
    }
    return Errno("write");
  }
  return Status::OK();
}

bool Socket::Readable(int timeout_ms) const {
  struct pollfd pfd = {};
  pfd.fd = fd_;
  pfd.events = POLLIN;
  int rc = ::poll(&pfd, 1, timeout_ms);
  return rc > 0 && (pfd.revents & (POLLIN | POLLHUP | POLLERR)) != 0;
}

void Socket::Shutdown() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void Socket::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Listener::~Listener() { Close(); }

Listener::Listener(Listener&& other) noexcept
    : fd_(other.fd_), port_(other.port_) {
  other.fd_ = -1;
}

Listener& Listener::operator=(Listener&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    port_ = other.port_;
    other.fd_ = -1;
  }
  return *this;
}

StatusOr<Listener> Listener::Bind(uint16_t port, int backlog) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  struct sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    Status status = Errno("bind");
    ::close(fd);
    return status;
  }
  if (::listen(fd, backlog) != 0) {
    Status status = Errno("listen");
    ::close(fd);
    return status;
  }

  socklen_t addr_len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<struct sockaddr*>(&addr),
                    &addr_len) != 0) {
    Status status = Errno("getsockname");
    ::close(fd);
    return status;
  }
  Listener listener;
  listener.fd_ = fd;
  listener.port_ = ntohs(addr.sin_port);
  return listener;
}

Status Listener::SetNonBlocking(bool enable) {
  return SetFdNonBlocking(fd_, enable, "fcntl(listener)");
}

StatusOr<Socket> Listener::Accept() {
  if (fd_ < 0) return Status::FailedPrecondition("listener is shut down");
  if (fault::ShouldFail("socket.accept")) {
    return Status::IoError("injected fault: socket.accept");
  }
  for (;;) {
    int fd = ::accept(fd_, nullptr, nullptr);
    if (fd >= 0) {
      DisableNagle(fd);
      return Socket(fd);
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return Status::ResourceExhausted("no pending connection");
    }
    // EINVAL/EBADF after a concurrent Shutdown is the clean-stop path.
    if (errno == EINVAL || errno == EBADF) {
      return Status::FailedPrecondition("listener is shut down");
    }
    return Errno("accept");
  }
}

bool Listener::WouldBlock(const Status& status) {
  return status.code() == StatusCode::kResourceExhausted &&
         status.message() == "no pending connection";
}

void Listener::Shutdown() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void Listener::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

}  // namespace hypermine::net
