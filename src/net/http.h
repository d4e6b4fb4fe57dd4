#ifndef HYPERMINE_NET_HTTP_H_
#define HYPERMINE_NET_HTTP_H_

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "net/write_queue.h"
#include "util/status.h"

namespace hypermine::net {

/// Minimal server-side HTTP/1.1 for the admin plane (docs/observability.md):
/// GET-only request parsing (request line + headers, no bodies), response
/// serialization, and keep-alive bookkeeping. Deliberately not a framework —
/// HttpConnection is the admin-port twin of net::Connection, a byte-in /
/// byte-out state machine with no descriptor and no blocking, so it rides
/// the same reactor (net::EventLoop) as the framed query protocol and every
/// truncation path is testable entirely in memory (tests/net/http_test.cc).

/// One parsed request. Header names are lower-cased at parse time; values
/// keep their bytes (leading/trailing whitespace trimmed).
struct HttpRequest {
  std::string method;
  /// The raw request target ("/metrics?name=x") and its path component
  /// ("/metrics") — routing matches on `path`.
  std::string target;
  std::string path;
  /// "HTTP/1.1" or "HTTP/1.0" (anything else is a parse error).
  std::string version;
  std::vector<std::pair<std::string, std::string>> headers;
  /// Resolved keep-alive decision: HTTP/1.1 default yes, HTTP/1.0 default
  /// no, Connection header overrides either way.
  bool keep_alive = true;

  /// First header with this (lower-case) name, or nullptr.
  const std::string* FindHeader(std::string_view name_lower) const;
};

struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
  /// Extra response headers (e.g. {"Allow", "GET"} on a 405).
  std::vector<std::pair<std::string, std::string>> headers;
};

/// Standard reason phrase for the handful of statuses the admin plane
/// emits; "Unknown" otherwise.
std::string_view HttpReasonPhrase(int status);

/// Serializes status line + Content-Type + Content-Length + Connection
/// (+ extra headers) + body. `keep_alive` controls the Connection header.
std::string EncodeHttpResponse(const HttpResponse& response, bool keep_alive);

/// Per-socket HTTP state machine: Ingest() bytes the reactor read, take
/// parsed requests out, queue encoded response bytes on the WriteQueue it
/// is for the reactor to drain. Mirrors net::Connection's contract: it
/// owns no descriptor, never blocks, and a protocol violation flips
/// corrupt() — the server answers 400 and closes after the flush.
///
/// Scope limits (this is an admin plane, not a web server): request bodies
/// are a parse error (Content-Length/Transfer-Encoding present), the head
/// (request line + headers) is capped at max_head_bytes, and pipelined
/// requests beyond max_pending_requests pause reads until handled.
///
/// Thread-safety: none. One HttpConnection belongs to one reactor thread;
/// after BindLoop, debug builds verify that claim on every mutating call.
class HttpConnection : public WriteQueue {
 public:
  struct Options {
    /// Request line + headers cap; a head that exceeds it is fatal.
    size_t max_head_bytes = 16u << 10;
    /// Parsed-but-untaken requests before wants_read() turns off.
    size_t max_pending_requests = 64;
    /// Queued response bytes before wants_read() turns off.
    size_t write_high_water = 1u << 20;
  };

  HttpConnection() : HttpConnection(Options{}) {}
  explicit HttpConnection(Options options);

  // --- read side -------------------------------------------------------

  void Ingest(std::string_view data);
  /// Peer closed its write half: mid-head it is a parse error, between
  /// requests a clean end of stream.
  void OnPeerClosed();

  bool corrupt() const { return !error_.ok(); }
  const Status& error() const { return error_; }
  bool peer_closed() const { return peer_closed_; }

  size_t pending_requests() const { return pending_.size(); }
  /// Moves the oldest parsed request into *out; false when none is ready.
  bool TakeRequest(HttpRequest* out);

  bool wants_read() const;

  /// A response with Connection: close was queued (or a 400 after
  /// corruption): the server closes once the write queue drains.
  void MarkClose() { close_requested_ = true; }
  bool close_requested() const { return close_requested_; }

 private:
  /// Parses complete heads out of buffer_ into pending_.
  void Advance();
  /// Parses one head (excluding the blank line); sets error_ on failure.
  bool ParseHead(std::string_view head);

  Options options_;
  Status error_;
  bool peer_closed_ = false;
  bool close_requested_ = false;

  std::string buffer_;
  size_t scanned_ = 0;  // prefix of buffer_ known to hold no blank line

  std::deque<HttpRequest> pending_;
};

}  // namespace hypermine::net

#endif  // HYPERMINE_NET_HTTP_H_
