#include "net/protocol.h"

#include <algorithm>
#include <cstdint>

#include "serve/wire.h"
#include "util/string_util.h"

namespace hypermine::net {
namespace {

using serve::AppendPod;
using serve::WireReader;

Status Truncated(const char* what) {
  return Status::Corrupted(StrFormat("truncated frame body: %s", what));
}

/// Length-prefixed string (uint16 length + raw bytes).
Status AppendString(std::string* out, std::string_view s, const char* what) {
  if (s.size() > kMaxStringBytes) {
    return Status::InvalidArgument(
        StrFormat("%s longer than %zu bytes", what, kMaxStringBytes));
  }
  AppendPod<uint16_t>(out, static_cast<uint16_t>(s.size()));
  out->append(s);
  return Status::OK();
}

bool ReadString(WireReader* reader, std::string* out) {
  uint16_t len = 0;
  std::string_view bytes;
  if (!reader->ReadPod(&len) || !reader->ReadBytes(len, &bytes)) return false;
  out->assign(bytes);
  return true;
}

/// Wraps a finished body in its frame header.
std::string Frame(uint64_t request_id, FrameType type, std::string body,
                  uint16_t version) {
  FrameHeader header;
  header.version = version;
  header.type = static_cast<uint16_t>(type);
  header.request_id = request_id;
  header.body_len = static_cast<uint32_t>(body.size());
  std::string out;
  out.reserve(kFrameHeaderBytes + body.size());
  EncodeFrameHeader(header, &out);
  out += body;
  return out;
}

}  // namespace

void EncodeFrameHeader(const FrameHeader& header, std::string* out) {
  AppendPod<uint32_t>(out, header.magic);
  AppendPod<uint16_t>(out, header.version);
  AppendPod<uint16_t>(out, header.type);
  AppendPod<uint64_t>(out, header.request_id);
  AppendPod<uint32_t>(out, header.body_len);
  AppendPod<uint32_t>(out, header.reserved);
}

Status DecodeFrameHeader(std::string_view data, FrameHeader* header) {
  WireReader reader(data);
  if (!reader.ReadPod(&header->magic) || !reader.ReadPod(&header->version) ||
      !reader.ReadPod(&header->type) ||
      !reader.ReadPod(&header->request_id) ||
      !reader.ReadPod(&header->body_len) ||
      !reader.ReadPod(&header->reserved)) {
    return Status::Corrupted("truncated frame header");
  }
  if (header->magic != kFrameMagic) {
    return Status::Corrupted("bad frame magic (not a hypermine peer?)");
  }
  if (header->reserved != 0) {
    return Status::Corrupted("nonzero reserved header bits");
  }
  if (header->body_len > kMaxBodyBytes) {
    return Status::Corrupted(
        StrFormat("frame body of %u bytes exceeds the protocol cap (%u)",
                  header->body_len, kMaxBodyBytes));
  }
  return Status::OK();
}

Status EncodeQueryFrame(uint64_t request_id, const api::QueryRequest& request,
                        std::string* out) {
  if (request.names.empty()) {
    return Status::InvalidArgument(
        "net queries must carry vertex names (ids are per-model)");
  }
  if (request.names.size() > api::kMaxQueryItems) {
    return Status::InvalidArgument(
        StrFormat("query names %zu exceed kMaxQueryItems (%zu)",
                  request.names.size(), api::kMaxQueryItems));
  }
  if (request.k > UINT32_MAX) {
    return Status::InvalidArgument(StrFormat(
        "query k %zu exceeds the wire's 32-bit field", request.k));
  }
  std::string body;
  AppendPod<uint8_t>(
      &body, request.kind == api::QueryRequest::Kind::kTopK ? 0 : 1);
  AppendPod<uint32_t>(&body, static_cast<uint32_t>(request.k));
  AppendPod<double>(&body, request.min_acv);
  AppendPod<uint16_t>(&body, static_cast<uint16_t>(request.names.size()));
  for (const std::string& name : request.names) {
    HM_RETURN_IF_ERROR(AppendString(&body, name, "vertex name"));
  }
  *out = Frame(request_id, FrameType::kQuery, std::move(body),
               kProtocolVersion);
  return Status::OK();
}

Status DecodeQueryBody(std::string_view body, api::QueryRequest* request) {
  WireReader reader(body);
  uint8_t kind = 0;
  uint32_t k = 0;
  uint16_t num_names = 0;
  if (!reader.ReadPod(&kind) || !reader.ReadPod(&k) ||
      !reader.ReadPod(&request->min_acv) || !reader.ReadPod(&num_names)) {
    return Truncated("query preamble");
  }
  if (kind > 1) {
    return Status::InvalidArgument(
        StrFormat("unknown query kind %u", unsigned{kind}));
  }
  request->kind = kind == 0 ? api::QueryRequest::Kind::kTopK
                            : api::QueryRequest::Kind::kReachable;
  request->k = k;
  request->items.clear();
  request->names.clear();
  // Each name takes at least its length prefix. A count the rest of the
  // body cannot hold is corrupt, checked before the reserve so a 15-byte
  // frame cannot ask for 65,535 strings.
  if (num_names > reader.remaining() / sizeof(uint16_t)) {
    return Status::Corrupted(
        StrFormat("name count %u exceeds the %zu-byte query body",
                  unsigned{num_names}, body.size()));
  }
  request->names.reserve(num_names);
  for (uint16_t i = 0; i < num_names; ++i) {
    std::string name;
    if (!ReadString(&reader, &name)) return Truncated("vertex name");
    request->names.push_back(std::move(name));
  }
  if (!reader.empty()) {
    return Status::Corrupted("trailing bytes after query body");
  }
  return Status::OK();
}

Status EncodeResponseFrame(uint64_t request_id, const WireResponse& response,
                           std::string* out, uint16_t version) {
  std::string body;
  AppendPod<uint16_t>(&body, static_cast<uint16_t>(response.code));
  AppendPod<uint8_t>(&body, response.from_cache ? 1 : 0);
  AppendPod<uint8_t>(
      &body, response.kind == api::QueryRequest::Kind::kTopK ? 0 : 1);
  HM_RETURN_IF_ERROR(AppendString(&body, response.message, "error message"));
  AppendPod<uint64_t>(&body, response.model_version);
  if (response.kind == api::QueryRequest::Kind::kTopK) {
    AppendPod<uint32_t>(&body,
                        static_cast<uint32_t>(response.ranked.size()));
    for (const WireConsequent& c : response.ranked) {
      HM_RETURN_IF_ERROR(AppendString(&body, c.name, "consequent name"));
      AppendPod<double>(&body, c.acv);
    }
  } else {
    AppendPod<uint32_t>(&body,
                        static_cast<uint32_t>(response.closure.size()));
    for (const std::string& name : response.closure) {
      HM_RETURN_IF_ERROR(AppendString(&body, name, "closure vertex name"));
    }
  }
  // Every receiver drops a frame above the cap as stream corruption
  // (docs/protocol.md §1), so such a body must never be sent.
  if (body.size() > kMaxBodyBytes) {
    return Status::ResourceExhausted(StrFormat(
        "response of %zu results encodes to %zu bytes, above the protocol "
        "cap of %u; narrow the query",
        response.ranked.size() + response.closure.size(), body.size(),
        kMaxBodyBytes));
  }
  *out = Frame(request_id, FrameType::kResponse, std::move(body), version);
  return Status::OK();
}

Status DecodeResponseBody(std::string_view body, WireResponse* response) {
  WireReader reader(body);
  uint16_t code = 0;
  uint8_t from_cache = 0;
  uint8_t kind = 0;
  if (!reader.ReadPod(&code) || !reader.ReadPod(&from_cache) ||
      !reader.ReadPod(&kind) || !ReadString(&reader, &response->message) ||
      !reader.ReadPod(&response->model_version)) {
    return Truncated("response preamble");
  }
  response->code = static_cast<StatusCode>(code);
  response->from_cache = from_cache != 0;
  response->kind = kind == 0 ? api::QueryRequest::Kind::kTopK
                             : api::QueryRequest::Kind::kReachable;
  uint32_t count = 0;
  if (!reader.ReadPod(&count)) return Truncated("result count");
  // A ranked consequent takes at least a name length and an ACV, a
  // closure vertex at least a name length. A count the rest of the body
  // cannot hold is corrupt, checked before the reserve so a damaged count
  // cannot ask for a giant allocation.
  const bool topk = response->kind == api::QueryRequest::Kind::kTopK;
  const size_t min_record =
      topk ? sizeof(uint16_t) + sizeof(double) : sizeof(uint16_t);
  if (count > reader.remaining() / min_record) {
    return Status::Corrupted(
        StrFormat("result count %u exceeds the %zu-byte response body",
                  count, body.size()));
  }
  response->ranked.clear();
  response->closure.clear();
  if (topk) {
    response->ranked.reserve(count);
    for (uint32_t i = 0; i < count; ++i) {
      WireConsequent c;
      if (!ReadString(&reader, &c.name) || !reader.ReadPod(&c.acv)) {
        return Truncated("ranked consequent");
      }
      response->ranked.push_back(std::move(c));
    }
  } else {
    response->closure.reserve(count);
    for (uint32_t i = 0; i < count; ++i) {
      std::string name;
      if (!ReadString(&reader, &name)) return Truncated("closure vertex");
      response->closure.push_back(std::move(name));
    }
  }
  if (!reader.empty()) {
    return Status::Corrupted("trailing bytes after response body");
  }
  return Status::OK();
}

Status ReadFrame(Socket* socket, FrameHeader* header, std::string* body,
                 uint32_t max_body) {
  char raw[kFrameHeaderBytes];
  HM_RETURN_IF_ERROR(socket->ReadFull(raw, sizeof(raw)));
  HM_RETURN_IF_ERROR(
      DecodeFrameHeader(std::string_view(raw, sizeof(raw)), header));
  if (header->body_len > max_body) {
    return Status::InvalidArgument(
        StrFormat("frame body of %u bytes exceeds the limit (%u)",
                  header->body_len, max_body));
  }
  body->resize(header->body_len);
  if (header->body_len > 0) {
    HM_RETURN_IF_ERROR(socket->ReadFull(body->data(), header->body_len));
  }
  return Status::OK();
}

}  // namespace hypermine::net
