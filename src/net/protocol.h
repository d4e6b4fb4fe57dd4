#ifndef HYPERMINE_NET_PROTOCOL_H_
#define HYPERMINE_NET_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "api/engine.h"
#include "net/socket.h"
#include "util/status.h"

namespace hypermine::net {

/// Framed wire protocol for B-reachability / top-k association queries —
/// the normative byte-level spec lives in docs/protocol.md; this header is
/// its implementation. All integers are little-endian. Every frame is a
/// fixed 24-byte header followed by `body_len` body bytes.
///
/// Queries travel as vertex *names*, never ids: ids are per-model and a
/// hot swap (api::Engine::Swap) would silently re-address them; names are
/// resolved against the model that answers (api::Engine does exactly
/// this), and responses carry names back for the same reason.

/// "HMNP" in file order (reads as HM net protocol).
inline constexpr uint32_t kFrameMagic = 0x504E4D48u;
/// Version this build speaks. A server answers a frame whose version it
/// does not speak with kUnimplemented (header intact, so the connection
/// survives the rejection).
inline constexpr uint16_t kProtocolVersion = 1;
/// Hard protocol cap on body_len. A header announcing more is framing
/// corruption (not a big request) and is connection-fatal.
inline constexpr uint32_t kMaxBodyBytes = 16u << 20;
/// Longest vertex name / error message the wire format can carry.
inline constexpr size_t kMaxStringBytes = 0xFFFF;
inline constexpr size_t kFrameHeaderBytes = 24;

enum class FrameType : uint16_t {
  kQuery = 1,
  kResponse = 2,
};

/// The fixed preamble of every frame.
struct FrameHeader {
  uint32_t magic = kFrameMagic;
  uint16_t version = kProtocolVersion;
  uint16_t type = 0;
  /// Client-chosen correlation id, echoed verbatim in the response.
  uint64_t request_id = 0;
  uint32_t body_len = 0;
  /// Must be zero (reserved for flags in a future version).
  uint32_t reserved = 0;
};

/// One ranked consequent as it travels over the wire.
struct WireConsequent {
  std::string name;
  double acv = 0.0;

  friend bool operator==(const WireConsequent&,
                         const WireConsequent&) = default;
};

/// A decoded response frame body: the StatusOr<api::QueryResponse> of the
/// engine, flattened into wire-friendly fields with vertex ids resolved to
/// names. `status` is OK for answered queries; otherwise `ranked`/`closure`
/// are empty and `message` explains (quota exhaustion arrives here as
/// StatusCode::kResourceExhausted).
struct WireResponse {
  StatusCode code = StatusCode::kOk;
  std::string message;
  uint64_t model_version = 0;
  bool from_cache = false;
  api::QueryRequest::Kind kind = api::QueryRequest::Kind::kTopK;
  std::vector<WireConsequent> ranked;
  std::vector<std::string> closure;

  Status ToStatus() const {
    return code == StatusCode::kOk ? Status::OK() : Status(code, message);
  }
};

/// Serializes `header` (with header.body_len already set) into 24 bytes.
void EncodeFrameHeader(const FrameHeader& header, std::string* out);

/// Parses a 24-byte header. kCorrupted on short input, bad magic, nonzero
/// reserved bits, or a body_len above kMaxBodyBytes. Deliberately does NOT
/// reject foreign versions — the caller answers those with a status frame
/// instead of dropping the connection (see docs/protocol.md §4).
Status DecodeFrameHeader(std::string_view data, FrameHeader* header);

/// Encodes a complete query frame (header + body). Only `request.names`
/// travel; kInvalidArgument when names are absent, too many
/// (api::kMaxQueryItems), a name exceeds kMaxStringBytes, or `k` does not
/// fit the wire's 32-bit field.
Status EncodeQueryFrame(uint64_t request_id, const api::QueryRequest& request,
                        std::string* out);

/// Decodes a query frame body into a name-based api::QueryRequest.
/// kCorrupted on truncation or trailing garbage; kInvalidArgument on
/// an unknown query kind.
Status DecodeQueryBody(std::string_view body, api::QueryRequest* request);

/// Encodes a complete response frame (header + body). `version` lets the
/// server stamp its own protocol version when rejecting a foreign one.
/// kInvalidArgument when a name or the message exceeds kMaxStringBytes;
/// kResourceExhausted, naming the result count and the encoded size, when
/// the body would exceed kMaxBodyBytes.
Status EncodeResponseFrame(uint64_t request_id, const WireResponse& response,
                           std::string* out,
                           uint16_t version = kProtocolVersion);

/// Decodes a response frame body. kCorrupted on truncation, trailing
/// garbage, or a result count the body is too short to hold (checked
/// before anything is allocated for the results).
Status DecodeResponseBody(std::string_view body, WireResponse* response);

/// Reads one frame (header + body) off a socket. `max_body` tightens the
/// protocol cap (a server's configured request limit); a body_len above it
/// yields kInvalidArgument with the body left unread — the caller decides
/// whether the connection can be salvaged. kNotFound propagates a clean
/// peer close between frames.
Status ReadFrame(Socket* socket, FrameHeader* header, std::string* body,
                 uint32_t max_body = kMaxBodyBytes);

}  // namespace hypermine::net

#endif  // HYPERMINE_NET_PROTOCOL_H_
