// Byte-level conformance of the framed wire protocol (docs/protocol.md):
// round trips, truncation at every boundary, bad magic, reserved bits,
// oversized declarations, and unknown query kinds. Pure buffer tests — no
// sockets — so a framing regression fails here before the server tests.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "net/protocol.h"

namespace hypermine::net {
namespace {

api::QueryRequest TopKRequest() {
  api::QueryRequest request;
  request.names = {"HES", "SLB"};
  request.k = 5;
  return request;
}

/// Splits an encoded frame into its header struct and body bytes,
/// asserting the header parses.
void SplitFrame(const std::string& frame, FrameHeader* header,
                std::string* body) {
  ASSERT_GE(frame.size(), kFrameHeaderBytes);
  ASSERT_TRUE(DecodeFrameHeader(frame, header).ok());
  *body = frame.substr(kFrameHeaderBytes);
  ASSERT_EQ(body->size(), header->body_len);
}

TEST(ProtocolTest, HeaderRoundTrip) {
  FrameHeader header;
  header.type = static_cast<uint16_t>(FrameType::kResponse);
  header.request_id = 0xDEADBEEFCAFEF00Dull;
  header.body_len = 123;
  std::string wire;
  EncodeFrameHeader(header, &wire);
  ASSERT_EQ(wire.size(), kFrameHeaderBytes);

  FrameHeader decoded;
  ASSERT_TRUE(DecodeFrameHeader(wire, &decoded).ok());
  EXPECT_EQ(decoded.magic, kFrameMagic);
  EXPECT_EQ(decoded.version, kProtocolVersion);
  EXPECT_EQ(decoded.type, header.type);
  EXPECT_EQ(decoded.request_id, header.request_id);
  EXPECT_EQ(decoded.body_len, header.body_len);
}

TEST(ProtocolTest, TruncatedHeaderIsCorrupted) {
  std::string wire;
  EncodeFrameHeader(FrameHeader{}, &wire);
  for (size_t len = 0; len < kFrameHeaderBytes; ++len) {
    FrameHeader header;
    Status status = DecodeFrameHeader(wire.substr(0, len), &header);
    EXPECT_EQ(status.code(), StatusCode::kCorrupted) << "len=" << len;
  }
}

TEST(ProtocolTest, BadMagicIsCorrupted) {
  std::string wire;
  EncodeFrameHeader(FrameHeader{}, &wire);
  wire[0] = 'X';
  FrameHeader header;
  EXPECT_EQ(DecodeFrameHeader(wire, &header).code(), StatusCode::kCorrupted);
}

TEST(ProtocolTest, ReservedBitsMustBeZero) {
  FrameHeader header;
  header.reserved = 1;
  std::string wire;
  EncodeFrameHeader(header, &wire);
  FrameHeader decoded;
  EXPECT_EQ(DecodeFrameHeader(wire, &decoded).code(),
            StatusCode::kCorrupted);
}

TEST(ProtocolTest, BodyAboveProtocolCapIsCorrupted) {
  FrameHeader header;
  header.body_len = kMaxBodyBytes + 1;
  std::string wire;
  EncodeFrameHeader(header, &wire);
  FrameHeader decoded;
  EXPECT_EQ(DecodeFrameHeader(wire, &decoded).code(),
            StatusCode::kCorrupted);
}

TEST(ProtocolTest, ForeignVersionDecodesOk) {
  // Version checking is the server's job (it must answer, not drop), so
  // the header decoder lets foreign versions through.
  FrameHeader header;
  header.version = 99;
  std::string wire;
  EncodeFrameHeader(header, &wire);
  FrameHeader decoded;
  ASSERT_TRUE(DecodeFrameHeader(wire, &decoded).ok());
  EXPECT_EQ(decoded.version, 99);
}

TEST(ProtocolTest, QueryFrameRoundTrip) {
  api::QueryRequest request = TopKRequest();
  std::string frame;
  ASSERT_TRUE(EncodeQueryFrame(7, request, &frame).ok());

  FrameHeader header;
  std::string body;
  SplitFrame(frame, &header, &body);
  EXPECT_EQ(header.type, static_cast<uint16_t>(FrameType::kQuery));
  EXPECT_EQ(header.request_id, 7u);

  api::QueryRequest decoded;
  ASSERT_TRUE(DecodeQueryBody(body, &decoded).ok());
  EXPECT_EQ(decoded.names, request.names);
  EXPECT_EQ(decoded.k, request.k);
  EXPECT_EQ(decoded.kind, api::QueryRequest::Kind::kTopK);
  EXPECT_TRUE(decoded.items.empty());
}

TEST(ProtocolTest, ReachableQueryRoundTrip) {
  api::QueryRequest request;
  request.names = {"XOM"};
  request.kind = api::QueryRequest::Kind::kReachable;
  request.min_acv = 0.375;
  std::string frame;
  ASSERT_TRUE(EncodeQueryFrame(1, request, &frame).ok());
  FrameHeader header;
  std::string body;
  SplitFrame(frame, &header, &body);
  api::QueryRequest decoded;
  ASSERT_TRUE(DecodeQueryBody(body, &decoded).ok());
  EXPECT_EQ(decoded.kind, api::QueryRequest::Kind::kReachable);
  EXPECT_DOUBLE_EQ(decoded.min_acv, 0.375);
}

TEST(ProtocolTest, QueryEncodeRejectsIdOnlyAndOversizedRequests) {
  api::QueryRequest ids_only;
  ids_only.items = {1, 2};
  std::string frame;
  EXPECT_EQ(EncodeQueryFrame(1, ids_only, &frame).code(),
            StatusCode::kInvalidArgument);

  api::QueryRequest too_many;
  too_many.names.assign(api::kMaxQueryItems + 1, "A");
  EXPECT_EQ(EncodeQueryFrame(1, too_many, &frame).code(),
            StatusCode::kInvalidArgument);

  api::QueryRequest giant_name;
  giant_name.names = {std::string(kMaxStringBytes + 1, 'x')};
  EXPECT_EQ(EncodeQueryFrame(1, giant_name, &frame).code(),
            StatusCode::kInvalidArgument);
}

TEST(ProtocolTest, QueryEncodeRejectsKAboveTheWireField) {
  // k travels as a u32; 2^32 must not go out as 0 and come back empty.
  api::QueryRequest request = TopKRequest();
  request.k = size_t{1} << 32;
  std::string frame;
  EXPECT_EQ(EncodeQueryFrame(1, request, &frame).code(),
            StatusCode::kInvalidArgument);

  request.k = UINT32_MAX;
  ASSERT_TRUE(EncodeQueryFrame(1, request, &frame).ok());
  api::QueryRequest decoded;
  ASSERT_TRUE(
      DecodeQueryBody(frame.substr(kFrameHeaderBytes), &decoded).ok());
  EXPECT_EQ(decoded.k, UINT32_MAX);
}

TEST(ProtocolTest, TruncatedQueryBodyIsCorrupted) {
  std::string frame;
  ASSERT_TRUE(EncodeQueryFrame(1, TopKRequest(), &frame).ok());
  std::string body = frame.substr(kFrameHeaderBytes);
  api::QueryRequest decoded;
  // Every proper prefix must fail safely (no crash, no partial accept).
  for (size_t len = 0; len < body.size(); ++len) {
    EXPECT_EQ(DecodeQueryBody(body.substr(0, len), &decoded).code(),
              StatusCode::kCorrupted)
        << "len=" << len;
  }
  EXPECT_EQ(DecodeQueryBody(body + "x", &decoded).code(),
            StatusCode::kCorrupted)
      << "trailing garbage must be rejected";
}

TEST(ProtocolTest, UnknownQueryKindIsInvalid) {
  std::string frame;
  ASSERT_TRUE(EncodeQueryFrame(1, TopKRequest(), &frame).ok());
  std::string body = frame.substr(kFrameHeaderBytes);
  body[0] = 9;  // kind byte
  api::QueryRequest decoded;
  EXPECT_EQ(DecodeQueryBody(body, &decoded).code(),
            StatusCode::kInvalidArgument);
}

TEST(ProtocolTest, QueryNameCountAboveTheBodyIsCorruptedBeforeAllocating) {
  // The query preamble is 15 bytes: kind, k, min_acv, then the u16 name
  // count in its last 2 bytes.
  std::string frame;
  ASSERT_TRUE(EncodeQueryFrame(1, TopKRequest(), &frame).ok());
  const std::string preamble = frame.substr(kFrameHeaderBytes, 13);
  auto with_count = [&preamble](uint16_t count) {
    return preamble + std::string(reinterpret_cast<const char*>(&count),
                                  sizeof(count));
  };

  // A bare preamble claiming 65,535 names: reserving them first would
  // take about 2 MiB of std::string for a 15-byte frame.
  const std::string hostile = with_count(UINT16_MAX);
  ASSERT_EQ(hostile.size(), 15u);
  api::QueryRequest decoded;
  EXPECT_EQ(DecodeQueryBody(hostile, &decoded).code(),
            StatusCode::kCorrupted);
  EXPECT_EQ(decoded.names.capacity(), 0u);

  // The bound is a 2-byte length prefix per name: n empty names decode,
  // and a count of n + 1 over the same bytes does not.
  constexpr uint16_t kNames = 3;
  const std::string empty_names(2 * kNames, '\0');
  api::QueryRequest fits;
  ASSERT_TRUE(DecodeQueryBody(with_count(kNames) + empty_names, &fits).ok());
  EXPECT_EQ(fits.names, std::vector<std::string>(kNames, ""));
  api::QueryRequest over;
  EXPECT_EQ(DecodeQueryBody(with_count(kNames + 1) + empty_names, &over)
                .code(),
            StatusCode::kCorrupted);
}

TEST(ProtocolTest, ResponseRoundTripTopK) {
  WireResponse response;
  response.model_version = 42;
  response.from_cache = true;
  response.ranked = {{"SLB", 0.9375}, {"HAL", 0.5}};
  std::string frame;
  ASSERT_TRUE(EncodeResponseFrame(9, response, &frame).ok());

  FrameHeader header;
  std::string body;
  SplitFrame(frame, &header, &body);
  EXPECT_EQ(header.type, static_cast<uint16_t>(FrameType::kResponse));
  EXPECT_EQ(header.request_id, 9u);

  WireResponse decoded;
  ASSERT_TRUE(DecodeResponseBody(body, &decoded).ok());
  EXPECT_EQ(decoded.code, StatusCode::kOk);
  EXPECT_EQ(decoded.model_version, 42u);
  EXPECT_TRUE(decoded.from_cache);
  EXPECT_EQ(decoded.ranked, response.ranked);
  EXPECT_TRUE(decoded.closure.empty());
}

TEST(ProtocolTest, ResponseRoundTripReachableAndError) {
  WireResponse closure;
  closure.kind = api::QueryRequest::Kind::kReachable;
  closure.model_version = 7;
  closure.closure = {"A", "B", "C"};
  std::string frame;
  ASSERT_TRUE(EncodeResponseFrame(1, closure, &frame).ok());
  FrameHeader header;
  std::string body;
  SplitFrame(frame, &header, &body);
  WireResponse decoded;
  ASSERT_TRUE(DecodeResponseBody(body, &decoded).ok());
  EXPECT_EQ(decoded.closure, closure.closure);
  EXPECT_TRUE(decoded.ToStatus().ok());

  WireResponse error;
  error.code = StatusCode::kResourceExhausted;
  error.message = "per-connection query quota (3) exhausted";
  ASSERT_TRUE(EncodeResponseFrame(2, error, &frame).ok());
  SplitFrame(frame, &header, &body);
  ASSERT_TRUE(DecodeResponseBody(body, &decoded).ok());
  EXPECT_EQ(decoded.code, StatusCode::kResourceExhausted);
  EXPECT_EQ(decoded.ToStatus().message(), error.message);
}

TEST(ProtocolTest, TruncatedResponseBodyIsCorrupted) {
  WireResponse response;
  response.ranked = {{"SLB", 0.25}};
  std::string frame;
  ASSERT_TRUE(EncodeResponseFrame(3, response, &frame).ok());
  std::string body = frame.substr(kFrameHeaderBytes);
  WireResponse decoded;
  for (size_t len = 0; len < body.size(); ++len) {
    EXPECT_EQ(DecodeResponseBody(body.substr(0, len), &decoded).code(),
              StatusCode::kCorrupted)
        << "len=" << len;
  }
}

TEST(ProtocolTest, ResultCountAboveTheBodyIsCorruptedBeforeAllocating) {
  // An 18-byte empty answer whose u32 count (its last 4 bytes) claims
  // 0xFFFF0000 results: reserving that many would ask for about 172 GB.
  for (auto kind : {api::QueryRequest::Kind::kTopK,
                    api::QueryRequest::Kind::kReachable}) {
    WireResponse empty;
    empty.kind = kind;
    std::string frame;
    ASSERT_TRUE(EncodeResponseFrame(1, empty, &frame).ok());
    std::string body = frame.substr(kFrameHeaderBytes);
    ASSERT_EQ(body.size(), 18u);
    const uint32_t count = 0xFFFF0000u;
    body.replace(body.size() - sizeof(count), sizeof(count),
                 reinterpret_cast<const char*>(&count), sizeof(count));
    WireResponse decoded;
    EXPECT_EQ(DecodeResponseBody(body, &decoded).code(),
              StatusCode::kCorrupted);
  }

  // The bound is the smallest record: a body holding one 10-byte
  // consequent (empty name) or one 2-byte closure name still decodes, and
  // a count of 2 over it does not.
  WireResponse ranked;
  ranked.ranked = {{"", 0.5}};
  WireResponse closure;
  closure.kind = api::QueryRequest::Kind::kReachable;
  closure.closure = {""};
  for (const WireResponse& response : {ranked, closure}) {
    std::string frame;
    ASSERT_TRUE(EncodeResponseFrame(1, response, &frame).ok());
    std::string body = frame.substr(kFrameHeaderBytes);
    WireResponse decoded;
    ASSERT_TRUE(DecodeResponseBody(body, &decoded).ok());
    body[14] = 2;  // the count's low byte, after the 14-byte preamble
    EXPECT_EQ(DecodeResponseBody(body, &decoded).code(),
              StatusCode::kCorrupted);
  }
}

}  // namespace
}  // namespace hypermine::net
