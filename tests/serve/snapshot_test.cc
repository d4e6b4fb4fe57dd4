#include "serve/snapshot.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>

#include "core/builder.h"
#include "core/discretize.h"
#include "core/export.h"
#include "util/csv.h"
#include "util/logging.h"

namespace hypermine::serve {
namespace {

core::DirectedHypergraph Named(std::vector<std::string> names) {
  auto graph = core::DirectedHypergraph::Create(std::move(names));
  HM_CHECK_OK(graph.status());
  return std::move(graph).value();
}

/// Structural equality: names, edge set, and exact weights.
void ExpectSameGraph(const core::DirectedHypergraph& a,
                     const core::DirectedHypergraph& b) {
  ASSERT_EQ(a.num_vertices(), b.num_vertices());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  EXPECT_EQ(a.vertex_names(), b.vertex_names());
  for (core::EdgeId id = 0; id < a.num_edges(); ++id) {
    const core::Hyperedge& e = a.edge(id);
    auto found = b.FindEdge(e.TailSpan(), e.head);
    ASSERT_TRUE(found.has_value()) << a.EdgeToString(id);
    // Bit-exact weights, not approximate: snapshots must be lossless.
    EXPECT_EQ(b.edge(*found).weight, e.weight) << a.EdgeToString(id);
  }
}

core::DirectedHypergraph RoundTrip(const core::DirectedHypergraph& graph) {
  auto reloaded = DeserializeSnapshotFull(SerializeSnapshot(graph));
  HM_CHECK_OK(reloaded.status());
  return std::move(reloaded->graph);
}

TEST(SnapshotTest, RoundTripEmptyGraph) {
  core::DirectedHypergraph graph = Named({"only"});
  ExpectSameGraph(graph, RoundTrip(graph));
}

TEST(SnapshotTest, RoundTripIsolatedVerticesAndEmptyNames) {
  core::DirectedHypergraph graph = Named({"", "A", "isolated", "B"});
  ASSERT_TRUE(graph.AddEdge({1}, 3, 0.5).ok());
  ExpectSameGraph(graph, RoundTrip(graph));
}

TEST(SnapshotTest, RoundTripAllTailSizesAndWeightEdgeCases) {
  core::DirectedHypergraph graph = Named({"a", "b", "c", "d", "e"});
  ASSERT_TRUE(graph.AddEdge({0}, 4, 0.0).ok());
  ASSERT_TRUE(graph.AddEdge({0, 1}, 4, 1.0).ok());
  ASSERT_TRUE(graph.AddEdge({0, 1, 2}, 4, 0.12345678901234567).ok());
  ASSERT_TRUE(graph.AddEdge({1}, 0, 1e-300).ok());
  ExpectSameGraph(graph, RoundTrip(graph));
}

TEST(SnapshotTest, LosslessVersusCsvExportOnQuickstartGraph) {
  // The quickstart pipeline: Chapter 3 patient database -> C1 hypergraph.
  const std::vector<std::vector<double>> raw = {
      {25, 105, 135, 75}, {62, 160, 165, 85}, {32, 125, 139, 71},
      {12, 95, 105, 67},  {38, 129, 135, 75}, {39, 121, 117, 71},
      {41, 134, 145, 73}, {85, 125, 155, 78},
  };
  std::vector<std::vector<core::ValueId>> columns(4);
  for (size_t attr = 0; attr < 4; ++attr) {
    std::vector<double> series;
    for (const auto& row : raw) series.push_back(row[attr]);
    auto discretized = core::FloorDivDiscretize(series, 10.0);
    HM_CHECK_OK(discretized.status());
    columns[attr] = std::move(discretized).value();
  }
  auto db = core::DatabaseFromColumns({"A", "C", "B", "H"}, 17, columns);
  HM_CHECK_OK(db.status());
  core::HypergraphConfig config = core::ConfigC1();
  config.k = db->num_values();
  auto graph = core::BuildAssociationHypergraph(*db, config);
  HM_CHECK_OK(graph.status());
  ASSERT_GT(graph->num_edges(), 0u);

  const std::string csv_path = ::testing::TempDir() + "quickstart.csv";
  const std::string snap_path = ::testing::TempDir() + "quickstart.snap";
  ASSERT_TRUE(core::WriteHypergraphCsv(*graph, csv_path).ok());
  ASSERT_TRUE(WriteSnapshot(*graph, {}, snap_path).ok());

  auto from_csv = core::ReadHypergraphCsv(csv_path);
  auto from_snap = ReadSnapshotFull(snap_path);
  HM_CHECK_OK(from_csv.status());
  HM_CHECK_OK(from_snap.status());
  ExpectSameGraph(*from_csv, from_snap->graph);
  ExpectSameGraph(*graph, from_snap->graph);

  // LoadModelFile sniffs both formats.
  auto auto_csv = LoadModelFile(csv_path);
  auto auto_snap = LoadModelFile(snap_path);
  HM_CHECK_OK(auto_csv.status());
  HM_CHECK_OK(auto_snap.status());
  ExpectSameGraph(auto_csv->graph, auto_snap->graph);

  std::remove(csv_path.c_str());
  std::remove(snap_path.c_str());
}

TEST(SnapshotTest, BinaryIsSmallerThanCsvAtScale) {
  // The 16-byte edge records undercut CSV's "%.17g" weights + names once
  // the graph has more than a handful of edges (the fixed header loses on
  // toy graphs, which is fine — snapshots exist for production models).
  auto graph = core::DirectedHypergraph::CreateAnonymous(500);
  HM_CHECK_OK(graph.status());
  size_t added = 0;
  for (core::VertexId a = 0; a < 500 && added < 2000; ++a) {
    for (core::VertexId b = 0; b < 500 && added < 2000; ++b) {
      if (a == b) continue;
      double weight = 1.0 / (1.0 + static_cast<double>(a + b));
      if (graph->AddEdge({a}, b, weight).ok()) ++added;
      if (a + 1 != b && b != 0 && a != 0 &&
          graph->AddEdge({0, a}, b, weight).ok()) {
        ++added;
      }
    }
  }
  std::string snap = SerializeSnapshot(*graph);
  const std::string csv_path = ::testing::TempDir() + "scale.csv";
  ASSERT_TRUE(core::WriteHypergraphCsv(*graph, csv_path).ok());
  auto csv = ReadFileToString(csv_path);
  HM_CHECK_OK(csv.status());
  // At least 1.5x smaller (16-byte records vs ~30-byte CSV rows).
  EXPECT_LT(snap.size() * 3, csv->size() * 2);
  std::remove(csv_path.c_str());
}

TEST(SnapshotTest, NarrowGraphsSerializeAsVersion2) {
  // Byte-level pin of the adaptive writer: any graph within the old
  // 0xFFFE-vertex universe keeps the 16-bit record format (version 2) so
  // existing snapshots and third-party readers see no format change.
  core::DirectedHypergraph graph = Named({"a", "b"});
  ASSERT_TRUE(graph.AddEdge({0}, 1, 0.5).ok());
  const std::string snap = SerializeSnapshot(graph);
  EXPECT_EQ(static_cast<uint32_t>(snap[8]), kNarrowSnapshotVersion);
  // Narrow body: counts (16) + name lengths (8) + names (2) + one 16-byte
  // edge record + spec trailer.
  auto loaded = DeserializeSnapshotFull(snap);
  ASSERT_TRUE(loaded.ok());
  ExpectSameGraph(graph, loaded->graph);
}

TEST(SnapshotTest, WideSnapshotRoundTripsBeyondOld16BitCap) {
  // A graph past the old 0xFFFE cap must serialize wide (version 3) and
  // round-trip exactly — including ids that would have truncated to
  // aliases under 16-bit records (0x10000 == 0 mod 2^16).
  auto graph = core::DirectedHypergraph::CreateAnonymous(0x10010);
  HM_CHECK_OK(graph.status());
  ASSERT_TRUE(graph->AddEdge({0}, 1, 0.25).ok());
  ASSERT_TRUE(graph->AddEdge({0x10000}, 1, 0.75).ok());
  ASSERT_TRUE(graph->AddEdge({0x10000, 0x1000F}, 2, 0.5).ok());
  ASSERT_TRUE(graph->AddEdge({3, 4, 0x1000E}, 5, 0.125).ok());

  api::ModelSpec spec;
  spec.provenance.source = "wide snapshot test";
  const std::string snap = SerializeSnapshot(*graph, spec);
  EXPECT_EQ(static_cast<uint32_t>(snap[8]), kSnapshotVersion);

  auto loaded = DeserializeSnapshotFull(snap);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded->has_spec);
  EXPECT_EQ(loaded->spec.provenance.source, "wide snapshot test");
  ExpectSameGraph(*graph, loaded->graph);

  // The index behind FindEdge distinguishes the 16-bit-aliasing pair
  // after the round trip.
  core::VertexId low[] = {0};
  core::VertexId high[] = {0x10000};
  auto found_low = loaded->graph.FindEdge(low, 1);
  auto found_high = loaded->graph.FindEdge(high, 1);
  ASSERT_TRUE(found_low.has_value());
  ASSERT_TRUE(found_high.has_value());
  EXPECT_EQ(loaded->graph.edge(*found_low).weight, 0.25);
  EXPECT_EQ(loaded->graph.edge(*found_high).weight, 0.75);

  // Wide snapshots fail cleanly when damaged: a sampling of truncations
  // (the exhaustive loop runs on narrow snapshots above; this body is
  // ~1 MB) and a flipped byte mid-body.
  for (size_t len : {size_t{0}, size_t{10}, size_t{100}, snap.size() / 2,
                     snap.size() - 9, snap.size() - 1}) {
    auto result = DeserializeSnapshotFull(snap.substr(0, len));
    ASSERT_FALSE(result.ok()) << "prefix length " << len;
    EXPECT_EQ(result.status().code(), StatusCode::kCorrupted)
        << "prefix length " << len;
  }
  std::string mutated = snap;
  mutated[snap.size() / 2] = static_cast<char>(mutated[snap.size() / 2] ^ 1);
  EXPECT_EQ(DeserializeSnapshotFull(mutated).status().code(),
            StatusCode::kCorrupted);
}

TEST(SnapshotTest, EveryTruncationIsCorrupted) {
  core::DirectedHypergraph graph = Named({"a", "b", "c"});
  ASSERT_TRUE(graph.AddEdge({0}, 1, 0.5).ok());
  ASSERT_TRUE(graph.AddEdge({0, 2}, 1, 0.75).ok());
  const std::string full = SerializeSnapshot(graph);
  for (size_t len = 0; len < full.size(); ++len) {
    auto result = DeserializeSnapshotFull(full.substr(0, len));
    ASSERT_FALSE(result.ok()) << "prefix length " << len;
    EXPECT_EQ(result.status().code(), StatusCode::kCorrupted)
        << "prefix length " << len;
  }
  EXPECT_TRUE(DeserializeSnapshotFull(full).ok());
}

TEST(SnapshotTest, EveryFlippedBodyByteIsCorrupted) {
  core::DirectedHypergraph graph = Named({"a", "b"});
  ASSERT_TRUE(graph.AddEdge({0}, 1, 0.5).ok());
  const std::string full = SerializeSnapshot(graph);
  // Body starts after the 24-byte header; the checksum catches any flip.
  for (size_t pos = 24; pos < full.size(); ++pos) {
    std::string mutated = full;
    mutated[pos] = static_cast<char>(mutated[pos] ^ 0x5A);
    auto result = DeserializeSnapshotFull(mutated);
    ASSERT_FALSE(result.ok()) << "byte " << pos;
    EXPECT_EQ(result.status().code(), StatusCode::kCorrupted)
        << "byte " << pos;
  }
}

TEST(SnapshotTest, BadMagicIsCorrupted) {
  core::DirectedHypergraph graph = Named({"a"});
  std::string mutated = SerializeSnapshot(graph);
  mutated[0] = 'X';
  auto result = DeserializeSnapshotFull(mutated);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCorrupted);
}

TEST(SnapshotTest, TrailingGarbageIsCorrupted) {
  core::DirectedHypergraph graph = Named({"a", "b"});
  ASSERT_TRUE(graph.AddEdge({0}, 1, 0.5).ok());
  std::string mutated = SerializeSnapshot(graph) + "extra";
  auto result = DeserializeSnapshotFull(mutated);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCorrupted);
}

TEST(SnapshotTest, VersionMismatchIsRejected) {
  core::DirectedHypergraph graph = Named({"a"});
  std::string mutated = SerializeSnapshot(graph);
  // The version field sits at offset 8 and is not checksummed, so this
  // exercises the version gate rather than corruption detection.
  mutated[8] = static_cast<char>(kSnapshotVersion + 1);
  auto result = DeserializeSnapshotFull(mutated);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(SnapshotTest, MissingFileIsIoError) {
  EXPECT_EQ(ReadSnapshotFull("/nonexistent/path/model.snap").status().code(),
            StatusCode::kIoError);
  EXPECT_EQ(LoadModelFile("/nonexistent/path/model.snap").status().code(),
            StatusCode::kIoError);
}

TEST(SnapshotTest, SpecTrailerRoundTrips) {
  core::DirectedHypergraph graph = Named({"a", "b", "c"});
  ASSERT_TRUE(graph.AddEdge({0, 1}, 2, 0.25).ok());
  api::ModelSpec spec;
  spec.config = core::ConfigC2();
  spec.config.restrict_pairs_to_edges = false;
  spec.config.keep_pairs_without_edges = false;
  spec.discretization = "equi-depth k=5";
  spec.provenance.source = "unit test";
  spec.provenance.git_sha = "abc123def456";
  spec.provenance.note = "trailer round trip";
  spec.provenance.created_unix = 1700000000;

  auto loaded = DeserializeSnapshotFull(SerializeSnapshot(graph, spec));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded->has_spec);
  EXPECT_EQ(loaded->spec.provenance, spec.provenance);
  EXPECT_EQ(loaded->spec.discretization, spec.discretization);
  EXPECT_EQ(loaded->spec.config.k, spec.config.k);
  EXPECT_EQ(loaded->spec.config.gamma_edge, spec.config.gamma_edge);
  EXPECT_EQ(loaded->spec.config.gamma_hyper, spec.config.gamma_hyper);
  EXPECT_FALSE(loaded->spec.config.restrict_pairs_to_edges);
  EXPECT_FALSE(loaded->spec.config.keep_pairs_without_edges);
  ExpectSameGraph(graph, loaded->graph);
}

/// FNV-1a over a snapshot body: the envelope's checksum field.
uint64_t BodyChecksum(std::string_view body) {
  uint64_t checksum = 0xcbf29ce484222325ull;
  for (unsigned char c : body) {
    checksum ^= c;
    checksum *= 0x100000001b3ull;
  }
  return checksum;
}

/// Overwrites the first edge weight equal to `from` with `to` and
/// re-seals the checksum, so only the weight check can reject the result.
std::string PatchWeight(std::string snap, double from, double to) {
  const std::string_view pattern(reinterpret_cast<const char*>(&from),
                                 sizeof(from));
  const size_t pos = snap.find(pattern, 24);
  HM_CHECK(pos != std::string::npos);
  std::memcpy(&snap[pos], &to, sizeof(to));
  const uint64_t checksum = BodyChecksum(std::string_view(snap).substr(24));
  std::memcpy(&snap[16], &checksum, sizeof(checksum));
  return snap;
}

TEST(SnapshotTest, NanWeightIsCorrupted) {
  core::DirectedHypergraph graph = Named({"a", "b"});
  ASSERT_TRUE(graph.AddEdge({0}, 1, 0.123456789).ok());
  const std::string snap = SerializeSnapshot(graph);
  // A legal replacement weight loads, so the re-sealed checksum holds...
  auto patched =
      DeserializeSnapshotFull(PatchWeight(snap, 0.123456789, 0.25));
  ASSERT_TRUE(patched.ok()) << patched.status().ToString();
  EXPECT_EQ(patched->graph.edge(0).weight, 0.25);
  // ...and a NaN ACV is refused by AddEdge, reported as corruption.
  EXPECT_EQ(
      DeserializeSnapshotFull(PatchWeight(snap, 0.123456789, std::nan("")))
          .status()
          .code(),
      StatusCode::kCorrupted);
}

TEST(SnapshotTest, EdgeCountBeyondTheBodyIsCorrupted) {
  core::DirectedHypergraph graph = Named({"a", "b"});
  ASSERT_TRUE(graph.AddEdge({0}, 1, 0.5).ok());
  std::string snap = SerializeSnapshot(graph);
  // The edge count follows the vertex count at the start of the body.
  const uint64_t claimed = uint64_t{1} << 40;
  std::memcpy(&snap[24 + 8], &claimed, sizeof(claimed));
  const uint64_t checksum = BodyChecksum(std::string_view(snap).substr(24));
  std::memcpy(&snap[16], &checksum, sizeof(checksum));
  // Rejected from the header alone: sizing the edge table from this count
  // would ask for terabytes.
  auto loaded = DeserializeSnapshotFull(snap);
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorrupted);
  EXPECT_NE(loaded.status().message().find("edge count exceeds"),
            std::string::npos)
      << loaded.status().ToString();
}

/// Serializes `graph` in the retired version-1 wire format (no spec
/// trailer) so backward compatibility stays pinned even though the writer
/// only emits v2 now.
std::string SerializeV1Snapshot(const core::DirectedHypergraph& graph) {
  auto append_pod = [](std::string* out, auto value) {
    char buf[sizeof(value)];
    std::memcpy(buf, &value, sizeof(value));
    out->append(buf, sizeof(value));
  };
  std::string body;
  append_pod(&body, static_cast<uint64_t>(graph.num_vertices()));
  append_pod(&body, static_cast<uint64_t>(graph.num_edges()));
  for (const std::string& name : graph.vertex_names()) {
    append_pod(&body, static_cast<uint32_t>(name.size()));
  }
  for (const std::string& name : graph.vertex_names()) body += name;
  for (core::EdgeId id = 0; id < graph.num_edges(); ++id) {
    const core::Hyperedge& e = graph.edge(id);
    for (core::VertexId v : e.tail) {
      append_pod(&body, v == core::kNoVertex
                            ? static_cast<uint16_t>(0xFFFF)
                            : static_cast<uint16_t>(v));
    }
    append_pod(&body, static_cast<uint16_t>(e.head));
    append_pod(&body, e.weight);
  }
  std::string out("HMSNAPSH", 8);
  append_pod(&out, static_cast<uint32_t>(1));  // version
  append_pod(&out, static_cast<uint32_t>(0));  // flags
  append_pod(&out, BodyChecksum(body));
  out += body;
  return out;
}

TEST(SnapshotTest, Version1SnapshotStillLoads) {
  core::DirectedHypergraph graph = Named({"x", "y", "z"});
  ASSERT_TRUE(graph.AddEdge({0}, 1, 0.5).ok());
  ASSERT_TRUE(graph.AddEdge({0, 2}, 1, 0.75).ok());
  const std::string v1 = SerializeV1Snapshot(graph);

  auto loaded = DeserializeSnapshotFull(v1);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_FALSE(loaded->has_spec);
  EXPECT_TRUE(loaded->spec.provenance.empty());
  ExpectSameGraph(graph, loaded->graph);

  // A v1 file with trailing bytes is still corrupt (there is no trailer
  // to absorb them), and truncated v1 files still fail cleanly.
  EXPECT_EQ(DeserializeSnapshotFull(v1 + "x").status().code(),
            StatusCode::kCorrupted);
  EXPECT_EQ(DeserializeSnapshotFull(v1.substr(0, v1.size() - 3))
                .status()
                .code(),
            StatusCode::kCorrupted);
}

TEST(SnapshotTest, LoadModelFileSurfacesSpecOnlyForV2Snapshots) {
  core::DirectedHypergraph graph = Named({"a", "b"});
  ASSERT_TRUE(graph.AddEdge({0}, 1, 0.5).ok());
  api::ModelSpec spec;
  spec.provenance.source = "load-model-file test";

  const std::string snap_path = ::testing::TempDir() + "lmf.snap";
  const std::string csv_path = ::testing::TempDir() + "lmf.csv";
  ASSERT_TRUE(WriteSnapshot(graph, spec, snap_path).ok());
  ASSERT_TRUE(core::WriteHypergraphCsv(graph, csv_path).ok());

  auto from_snap = LoadModelFile(snap_path);
  ASSERT_TRUE(from_snap.ok());
  EXPECT_TRUE(from_snap->has_spec);
  EXPECT_EQ(from_snap->spec.provenance.source, "load-model-file test");

  auto from_csv = LoadModelFile(csv_path);
  ASSERT_TRUE(from_csv.ok());
  EXPECT_FALSE(from_csv->has_spec);
  ExpectSameGraph(from_snap->graph, from_csv->graph);

  std::remove(snap_path.c_str());
  std::remove(csv_path.c_str());
}

}  // namespace
}  // namespace hypermine::serve
