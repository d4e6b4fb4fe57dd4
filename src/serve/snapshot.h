#ifndef HYPERMINE_SERVE_SNAPSHOT_H_
#define HYPERMINE_SERVE_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "api/model_spec.h"
#include "core/hypergraph.h"
#include "util/status.h"

namespace hypermine::serve {

/// Binary snapshot of a built association hypergraph — the servable artifact
/// of the read path. Layout (little-endian, x86 assumption documented in
/// snapshot.cc):
///
///   magic    8 bytes  "HMSNAPSH"
///   version  uint32   2 (narrow ids) or 3 (wide ids); see below
///   flags    uint32   reserved, 0
///   checksum uint64   FNV-1a over the body
///   body:
///     num_vertices uint64
///     num_edges    uint64
///     name lengths uint32 x num_vertices
///     name bytes   concatenated, no terminators
///     edge records, version <= 2 (16 bytes x num_edges):
///       tail uint16 x 3 (0xFFFF = empty slot), head uint16, weight double
///     edge records, version 3 (24 bytes x num_edges):
///       tail uint32 x 3 (0xFFFFFFFF = empty slot), head uint32,
///       weight double
///     spec trailer (version >= 2 only; checksummed with the body):
///       k uint32, gamma_edge double, gamma_hyper double,
///       config flags uint32 (bit 0 restrict_pairs_to_edges,
///                            bit 1 keep_pairs_without_edges),
///       created_unix uint64,
///       4 length-prefixed strings (uint32 + bytes):
///         discretization, source, git_sha, note
///
/// The writer picks the narrowest representation that fits: graphs within
/// the old 0xFFFE-vertex universe serialize as version 2, byte-identical
/// to what earlier builds wrote, so existing snapshots, goldens, and
/// readers are unaffected; only graphs that actually use the widened
/// 32-bit id space (> 0xFFFE vertices) emit version-3 wide records.
///
/// Round-trips everything WriteHypergraphCsv covers (vertex names including
/// isolated vertices, tails of size 1..3, exact weights) at ~10x smaller
/// size, plus the api::ModelSpec that produced the graph; load is a single
/// pass over the file with no re-mining. Version 1 files (no spec trailer)
/// still load, reporting has_spec = false.
inline constexpr uint32_t kSnapshotVersion = 3;
/// Newest version using 16-bit edge records; also what the writer emits
/// for any graph small enough to fit them.
inline constexpr uint32_t kNarrowSnapshotVersion = 2;
/// Oldest version the loader still accepts.
inline constexpr uint32_t kMinSnapshotVersion = 1;

/// A fully parsed snapshot (or CSV) file: the graph plus the ModelSpec that
/// built it. `has_spec` is false for v1 snapshots and CSV files, whose
/// `spec` is default-constructed.
struct LoadedSnapshot {
  core::DirectedHypergraph graph;
  api::ModelSpec spec;
  bool has_spec = false;
};

/// Serializes the graph (and its spec) to the snapshot wire format.
/// Infallible — every DirectedHypergraph is representable. All functions
/// in this header are stateless and thread-safe on distinct arguments.
std::string SerializeSnapshot(const core::DirectedHypergraph& graph,
                              const api::ModelSpec& spec = {});

/// Parses a snapshot buffer, including its ModelSpec trailer when present.
/// Corrupted, truncated, or checksum-mismatching input yields kCorrupted;
/// an unsupported version yields kInvalidArgument.
StatusOr<LoadedSnapshot> DeserializeSnapshotFull(std::string_view data);

/// Writes a snapshot file (truncating). kIoError when the path cannot be
/// created or written.
Status WriteSnapshot(const core::DirectedHypergraph& graph,
                     const api::ModelSpec& spec, const std::string& path);
/// Reads a snapshot file. kIoError when the file cannot be read; the
/// DeserializeSnapshotFull errors (kCorrupted / kInvalidArgument) when it
/// parses badly.
StatusOr<LoadedSnapshot> ReadSnapshotFull(const std::string& path);

/// Loads either a snapshot or a WriteHypergraphCsv file, sniffing the
/// format from the leading bytes, and surfaces the ModelSpec trailer of
/// v2+ snapshots (CSV and v1 snapshots yield has_spec = false). This is
/// the loader api::Model::FromFile builds on.
StatusOr<LoadedSnapshot> LoadModelFile(const std::string& path);

}  // namespace hypermine::serve

#endif  // HYPERMINE_SERVE_SNAPSHOT_H_
