#include "net/http.h"

#include <algorithm>

#include "util/string_util.h"

namespace hypermine::net {
namespace {

/// Finds the end of the head: the first blank line, tolerating both CRLF
/// and bare-LF line endings ("\n\r\n" covers CRLF CRLF too, since the
/// preceding line's terminator supplies the leading '\n'). Returns the
/// index one past the blank line, or npos when the head is incomplete.
/// `*head_end` receives where the head text (to be parsed) stops.
size_t FindHeadTerminator(std::string_view buffer, size_t from,
                          size_t* head_end) {
  for (size_t i = from; i < buffer.size(); ++i) {
    if (buffer[i] != '\n') continue;
    if (i + 1 < buffer.size() && buffer[i + 1] == '\n') {
      *head_end = i;
      return i + 2;
    }
    if (i + 2 < buffer.size() && buffer[i + 1] == '\r' &&
        buffer[i + 2] == '\n') {
      *head_end = i;
      return i + 3;
    }
  }
  return std::string_view::npos;
}

std::string_view StripCr(std::string_view line) {
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  return line;
}

}  // namespace

const std::string* HttpRequest::FindHeader(
    std::string_view name_lower) const {
  for (const auto& [name, value] : headers) {
    if (name == name_lower) return &value;
  }
  return nullptr;
}

std::string_view HttpReasonPhrase(int status) {
  switch (status) {
    case 200:
      return "OK";
    case 400:
      return "Bad Request";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    case 431:
      return "Request Header Fields Too Large";
    case 500:
      return "Internal Server Error";
    case 503:
      return "Service Unavailable";
    default:
      return "Unknown";
  }
}

std::string EncodeHttpResponse(const HttpResponse& response,
                               bool keep_alive) {
  std::string out = StrFormat("HTTP/1.1 %d %s\r\n", response.status,
                              std::string(HttpReasonPhrase(response.status))
                                  .c_str());
  out += "Content-Type: " + response.content_type + "\r\n";
  out += StrFormat("Content-Length: %zu\r\n", response.body.size());
  out += keep_alive ? "Connection: keep-alive\r\n" : "Connection: close\r\n";
  for (const auto& [name, value] : response.headers) {
    out += name + ": " + value + "\r\n";
  }
  out += "\r\n";
  out += response.body;
  return out;
}

HttpConnection::HttpConnection(Options options) : options_(options) {}

void HttpConnection::Ingest(std::string_view data) {
  AssertOnReactor();
  if (corrupt()) return;  // bytes after a violation are ignored
  buffer_.append(data);
  Advance();
}

void HttpConnection::OnPeerClosed() {
  AssertOnReactor();
  peer_closed_ = true;
  if (!corrupt() && !buffer_.empty()) {
    error_ = Status::Corrupted("connection closed mid-request");
  }
}

void HttpConnection::Advance() {
  while (!corrupt()) {
    size_t head_end = 0;
    // Rescan from one shy of the previous frontier: a terminator can span
    // the old buffer end ("...\r\n" + "\r\n" arriving split).
    const size_t from = scanned_ > 2 ? scanned_ - 2 : 0;
    const size_t next = FindHeadTerminator(buffer_, from, &head_end);
    if (next == std::string_view::npos) {
      // The cap applies to one incomplete head, not to pipelined complete
      // requests (those were parsed and erased on earlier iterations).
      if (buffer_.size() > options_.max_head_bytes) {
        error_ = Status::InvalidArgument(StrFormat(
            "request head exceeds %zu bytes", options_.max_head_bytes));
      }
      scanned_ = buffer_.size();
      return;
    }
    if (!ParseHead(std::string_view(buffer_).substr(0, head_end))) return;
    buffer_.erase(0, next);
    scanned_ = 0;
  }
}

bool HttpConnection::ParseHead(std::string_view head) {
  HttpRequest request;
  size_t line_start = 0;
  bool first = true;
  while (line_start <= head.size()) {
    size_t line_end = head.find('\n', line_start);
    std::string_view line =
        StripCr(head.substr(line_start, line_end == std::string_view::npos
                                            ? std::string_view::npos
                                            : line_end - line_start));
    line_start =
        line_end == std::string_view::npos ? head.size() + 1 : line_end + 1;
    if (first) {
      // RFC 9112 §2.2: tolerate (blank) lines before the request line —
      // some clients send a stray CRLF after a previous request's body.
      if (line.empty()) continue;
      // METHOD SP TARGET SP HTTP/x.y — exactly three tokens.
      std::vector<std::string> parts = SplitWhitespace(line);
      if (parts.size() != 3 || !StartsWith(parts[2], "HTTP/")) {
        error_ = Status::InvalidArgument("malformed request line");
        return false;
      }
      request.method = std::move(parts[0]);
      request.target = std::move(parts[1]);
      request.version = std::move(parts[2]);
      if (request.version != "HTTP/1.1" && request.version != "HTTP/1.0") {
        error_ = Status::InvalidArgument("unsupported HTTP version " +
                                         request.version);
        return false;
      }
      first = false;
      continue;
    }
    if (line.empty()) continue;  // tolerated stray blank before terminator
    size_t colon = line.find(':');
    if (colon == std::string_view::npos) {
      error_ = Status::InvalidArgument("malformed header line");
      return false;
    }
    std::string name = ToLower(TrimView(line.substr(0, colon)));
    std::string value = Trim(line.substr(colon + 1));
    if (name.empty()) {
      error_ = Status::InvalidArgument("empty header name");
      return false;
    }
    request.headers.emplace_back(std::move(name), std::move(value));
  }
  if (first) {
    error_ = Status::InvalidArgument("empty request head");
    return false;
  }

  // GET-only plane: any request announcing a body would desynchronize the
  // next head, so it is connection-fatal rather than skippable.
  const std::string* content_length = request.FindHeader("content-length");
  if ((content_length != nullptr && *content_length != "0") ||
      request.FindHeader("transfer-encoding") != nullptr) {
    error_ = Status::InvalidArgument("request bodies are not supported");
    return false;
  }

  request.keep_alive = request.version == "HTTP/1.1";
  if (const std::string* connection = request.FindHeader("connection")) {
    const std::string value = ToLower(*connection);
    if (value == "close") request.keep_alive = false;
    if (value == "keep-alive") request.keep_alive = true;
  }

  const size_t query = request.target.find('?');
  request.path = query == std::string::npos
                     ? request.target
                     : request.target.substr(0, query);
  pending_.push_back(std::move(request));
  return true;
}

bool HttpConnection::TakeRequest(HttpRequest* out) {
  AssertOnReactor();
  if (pending_.empty()) return false;
  *out = std::move(pending_.front());
  pending_.pop_front();
  return true;
}

bool HttpConnection::wants_read() const {
  if (corrupt() || peer_closed_ || close_requested_) return false;
  if (options_.max_pending_requests != 0 &&
      pending_.size() >= options_.max_pending_requests) {
    return false;
  }
  if (options_.write_high_water != 0 &&
      write_queued() >= options_.write_high_water) {
    return false;
  }
  return true;
}

}  // namespace hypermine::net
