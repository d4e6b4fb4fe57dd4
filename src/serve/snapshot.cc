#include "serve/snapshot.h"

#include <bit>
#include <cstring>
#include <utility>
#include <vector>

#include "core/export.h"
#include "serve/wire.h"
#include "util/csv.h"
#include "util/fault.h"
#include "util/string_util.h"

namespace hypermine::serve {
namespace {

// The format is defined as little-endian. The project targets x86-64 (see
// the accelerator notes in ROADMAP.md); on a big-endian host the memcpy
// below would need byte swaps.
static_assert(std::endian::native == std::endian::little,
              "snapshot format requires a little-endian host");

constexpr char kMagic[8] = {'H', 'M', 'S', 'N', 'A', 'P', 'S', 'H'};
constexpr size_t kHeaderSize = 8 + 4 + 4 + 8;
// Version <= 2 narrow record: uint16 tail[3] + uint16 head + double weight.
constexpr size_t kEdgeRecordSize = 4 * 2 + 8;
// Version 3 wide record: uint32 tail[3] + uint32 head + double weight.
constexpr size_t kWideEdgeRecordSize = 4 * 4 + 8;
// 16-bit encoding of core::kNoVertex in narrow records; no real id reaches
// it because narrow records are only written for graphs within the old
// 0xFFFE-vertex universe.
constexpr uint16_t kNoVertex16 = 0xFFFF;
// Largest vertex count the narrow (version 2) records can address — the
// pre-widening core::kMaxVertices. The writer stays narrow (and
// byte-identical to older builds) up to here.
constexpr uint64_t kMaxNarrowVertices = 0xFFFE;

// Spec-trailer config flag bits (version >= 2).
constexpr uint32_t kFlagRestrictPairsToEdges = 1u << 0;
constexpr uint32_t kFlagKeepPairsWithoutEdges = 1u << 1;
constexpr uint32_t kKnownConfigFlags =
    kFlagRestrictPairsToEdges | kFlagKeepPairsWithoutEdges;

uint64_t Fnv1a(std::string_view data) {
  uint64_t hash = 0xcbf29ce484222325ull;
  for (unsigned char c : data) {
    hash ^= c;
    hash *= 0x100000001b3ull;
  }
  return hash;
}

/// Reads one u32-length-prefixed string, the snapshot's string encoding
/// (the net protocol's is u16-prefixed); false on underrun.
bool ReadString(WireReader* reader, std::string* out) {
  uint32_t length = 0;
  std::string_view bytes;
  if (!reader->ReadPod(&length) || !reader->ReadBytes(length, &bytes)) {
    return false;
  }
  out->assign(bytes);
  return true;
}

Status Corrupt(const std::string& what) {
  return Status::Corrupted("snapshot: " + what);
}

/// Reads edge record `i` of either width, tail[3] and head as `Id`s and
/// then the weight, into `graph`. Tail slots holding `empty` are unused.
template <typename Id>
Status ReadEdgeRecord(WireReader* reader, Id empty, uint64_t i,
                      core::DirectedHypergraph* graph) {
  Id ids[core::kMaxTailSize + 1];
  double weight = 0.0;
  bool ok = true;
  for (Id& id : ids) ok = ok && reader->ReadPod(&id);
  if (!ok || !reader->ReadPod(&weight)) {
    return Corrupt(StrFormat("truncated edge record %llu",
                             static_cast<unsigned long long>(i)));
  }
  std::vector<core::VertexId> tail;
  for (size_t t = 0; t < core::kMaxTailSize; ++t) {
    if (ids[t] != empty) tail.push_back(ids[t]);
  }
  auto added = graph->AddEdge(std::move(tail), ids[core::kMaxTailSize],
                              weight);
  if (!added.ok()) {
    return Corrupt(StrFormat("invalid edge record %llu: %s",
                             static_cast<unsigned long long>(i),
                             added.status().message().c_str()));
  }
  return Status::OK();
}

/// Chaos-only damage to freshly read snapshot bytes, before parsing:
/// "snapshot.truncate" drops the second half, "snapshot.corrupt" flips a
/// bit mid-body. Both must surface as kCorrupted from the deserializer
/// (the checksum covers the whole body), which is exactly what the chaos
/// harness asserts.
void MaybeInjectSnapshotFault(std::string* data) {
  if (data->empty()) return;
  if (fault::ShouldFail("snapshot.truncate")) {
    data->resize(data->size() / 2);
  }
  if (!data->empty() && fault::ShouldFail("snapshot.corrupt")) {
    (*data)[data->size() / 2] ^= 0x40;
  }
}

void AppendString(std::string* out, const std::string& value) {
  AppendPod<uint32_t>(out, static_cast<uint32_t>(value.size()));
  *out += value;
}

void AppendSpecTrailer(std::string* body, const api::ModelSpec& spec) {
  AppendPod<uint32_t>(body, static_cast<uint32_t>(spec.config.k));
  AppendPod<double>(body, spec.config.gamma_edge);
  AppendPod<double>(body, spec.config.gamma_hyper);
  uint32_t flags = 0;
  if (spec.config.restrict_pairs_to_edges) flags |= kFlagRestrictPairsToEdges;
  if (spec.config.keep_pairs_without_edges) {
    flags |= kFlagKeepPairsWithoutEdges;
  }
  AppendPod<uint32_t>(body, flags);
  AppendPod<uint64_t>(body, spec.provenance.created_unix);
  AppendString(body, spec.discretization);
  AppendString(body, spec.provenance.source);
  AppendString(body, spec.provenance.git_sha);
  AppendString(body, spec.provenance.note);
}

StatusOr<api::ModelSpec> ParseSpecTrailer(WireReader* reader) {
  api::ModelSpec spec;
  uint32_t k = 0;
  uint32_t flags = 0;
  if (!reader->ReadPod(&k) || !reader->ReadPod(&spec.config.gamma_edge) ||
      !reader->ReadPod(&spec.config.gamma_hyper) || !reader->ReadPod(&flags) ||
      !reader->ReadPod(&spec.provenance.created_unix)) {
    return Corrupt("truncated spec trailer");
  }
  if ((flags & ~kKnownConfigFlags) != 0) {
    return Corrupt("unknown spec config flags");
  }
  spec.config.k = k;
  spec.config.restrict_pairs_to_edges =
      (flags & kFlagRestrictPairsToEdges) != 0;
  spec.config.keep_pairs_without_edges =
      (flags & kFlagKeepPairsWithoutEdges) != 0;
  if (!ReadString(reader, &spec.discretization) ||
      !ReadString(reader, &spec.provenance.source) ||
      !ReadString(reader, &spec.provenance.git_sha) ||
      !ReadString(reader, &spec.provenance.note)) {
    return Corrupt("truncated spec strings");
  }
  return spec;
}

/// True when the buffer starts with the snapshot magic.
bool LooksLikeSnapshot(std::string_view data) {
  return data.size() >= sizeof(kMagic) &&
         std::memcmp(data.data(), kMagic, sizeof(kMagic)) == 0;
}

/// Splits a buffer into (version, body) after magic/checksum verification.
StatusOr<std::pair<uint32_t, std::string_view>> CheckEnvelope(
    std::string_view data) {
  if (data.size() < kHeaderSize) return Corrupt("file shorter than header");
  if (!LooksLikeSnapshot(data)) {
    return Corrupt("bad magic (not a hypermine snapshot)");
  }
  uint32_t version = 0;
  uint32_t flags = 0;
  uint64_t checksum = 0;
  std::memcpy(&version, data.data() + 8, sizeof(version));
  std::memcpy(&flags, data.data() + 12, sizeof(flags));
  std::memcpy(&checksum, data.data() + 16, sizeof(checksum));
  if (version < kMinSnapshotVersion || version > kSnapshotVersion) {
    return Status::InvalidArgument(
        StrFormat("snapshot: unsupported version %u (supported %u..%u)",
                  version, kMinSnapshotVersion, kSnapshotVersion));
  }
  if (flags != 0) return Corrupt("nonzero reserved flags");
  std::string_view body = data.substr(kHeaderSize);
  if (Fnv1a(body) != checksum) {
    return Corrupt("body checksum mismatch");
  }
  return std::make_pair(version, body);
}

}  // namespace

std::string SerializeSnapshot(const core::DirectedHypergraph& graph,
                              const api::ModelSpec& spec) {
  // Narrowest representation that fits: version 2 (16-bit ids,
  // byte-identical to pre-widening builds) unless the graph actually uses
  // the widened id space.
  const bool wide = graph.num_vertices() > kMaxNarrowVertices;
  const uint32_t version = wide ? kSnapshotVersion : kNarrowSnapshotVersion;
  std::string body;
  body.reserve(128 + 16 * graph.num_vertices() +
               (wide ? kWideEdgeRecordSize : kEdgeRecordSize) *
                   graph.num_edges());
  AppendPod<uint64_t>(&body, graph.num_vertices());
  AppendPod<uint64_t>(&body, graph.num_edges());
  for (const std::string& name : graph.vertex_names()) {
    AppendPod<uint32_t>(&body, static_cast<uint32_t>(name.size()));
  }
  for (const std::string& name : graph.vertex_names()) body += name;
  for (core::EdgeId id = 0; id < graph.num_edges(); ++id) {
    const core::Hyperedge& e = graph.edge(id);
    if (wide) {
      for (core::VertexId v : e.tail) AppendPod<uint32_t>(&body, v);
      AppendPod<uint32_t>(&body, e.head);
    } else {
      for (core::VertexId v : e.tail) {
        AppendPod<uint16_t>(&body, v == core::kNoVertex
                                       ? kNoVertex16
                                       : static_cast<uint16_t>(v));
      }
      AppendPod<uint16_t>(&body, static_cast<uint16_t>(e.head));
    }
    AppendPod<double>(&body, e.weight);
  }
  AppendSpecTrailer(&body, spec);

  std::string out;
  out.reserve(kHeaderSize + body.size());
  out.append(kMagic, sizeof(kMagic));
  AppendPod<uint32_t>(&out, version);
  AppendPod<uint32_t>(&out, 0);  // flags
  AppendPod<uint64_t>(&out, Fnv1a(body));
  out += body;
  return out;
}

StatusOr<LoadedSnapshot> DeserializeSnapshotFull(std::string_view data) {
  HM_ASSIGN_OR_RETURN(auto envelope, CheckEnvelope(data));
  const uint32_t version = envelope.first;
  WireReader reader(envelope.second);

  uint64_t num_vertices = 0;
  uint64_t num_edges = 0;
  if (!reader.ReadPod(&num_vertices) || !reader.ReadPod(&num_edges)) {
    return Corrupt("truncated counts");
  }
  if (num_vertices == 0 || num_vertices > core::kMaxVertices) {
    return Corrupt("vertex count out of range");
  }
  // Each vertex needs at least a 4-byte name-length entry, so a count
  // beyond body_size/4 is corrupt — checked before the name-table resize
  // so a damaged count cannot trigger a giant allocation (kMaxVertices is
  // no longer a tight bound now that ids are 32-bit).
  if (num_vertices > envelope.second.size() / sizeof(uint32_t)) {
    return Corrupt("vertex count exceeds snapshot size");
  }
  if (version < 3 && num_vertices > kMaxNarrowVertices) {
    return Corrupt("narrow snapshot claims more vertices than 16-bit "
                   "records can address");
  }
  // The same rule for edges, with their record size: ReserveEdges below
  // sizes the edge array and lookup table from this count.
  const bool wide = version >= 3;
  if (num_edges > envelope.second.size() /
                      (wide ? kWideEdgeRecordSize : kEdgeRecordSize)) {
    return Corrupt("edge count exceeds snapshot size");
  }

  std::vector<uint32_t> name_lengths(num_vertices);
  for (uint32_t& len : name_lengths) {
    if (!reader.ReadPod(&len)) return Corrupt("truncated name table");
  }
  std::vector<std::string> names;
  names.reserve(num_vertices);
  for (uint32_t len : name_lengths) {
    std::string_view bytes;
    if (!reader.ReadBytes(len, &bytes)) return Corrupt("truncated names");
    names.emplace_back(bytes);
  }

  auto graph_or = core::DirectedHypergraph::Create(std::move(names));
  if (!graph_or.ok()) return Corrupt(graph_or.status().message());
  core::DirectedHypergraph graph = std::move(graph_or).value();
  graph.ReserveEdges(num_edges);

  for (uint64_t i = 0; i < num_edges; ++i) {
    HM_RETURN_IF_ERROR(
        wide ? ReadEdgeRecord(&reader, core::kNoVertex, i, &graph)
             : ReadEdgeRecord(&reader, kNoVertex16, i, &graph));
  }

  LoadedSnapshot loaded{std::move(graph), api::ModelSpec{}, false};
  if (version >= 2) {
    HM_ASSIGN_OR_RETURN(loaded.spec, ParseSpecTrailer(&reader));
    loaded.has_spec = true;
  }
  if (!reader.empty()) return Corrupt("trailing bytes after snapshot body");
  return loaded;
}

Status WriteSnapshot(const core::DirectedHypergraph& graph,
                     const api::ModelSpec& spec, const std::string& path) {
  return WriteStringToFile(path, SerializeSnapshot(graph, spec));
}

StatusOr<LoadedSnapshot> ReadSnapshotFull(const std::string& path) {
  HM_ASSIGN_OR_RETURN(std::string data, ReadFileToString(path));
  MaybeInjectSnapshotFault(&data);
  return DeserializeSnapshotFull(data);
}

StatusOr<LoadedSnapshot> LoadModelFile(const std::string& path) {
  HM_ASSIGN_OR_RETURN(std::string data, ReadFileToString(path));
  MaybeInjectSnapshotFault(&data);
  if (LooksLikeSnapshot(data)) return DeserializeSnapshotFull(data);
  HM_ASSIGN_OR_RETURN(core::DirectedHypergraph graph,
                      core::ParseHypergraphCsv(data));
  return LoadedSnapshot{std::move(graph), api::ModelSpec{}, false};
}

}  // namespace hypermine::serve
