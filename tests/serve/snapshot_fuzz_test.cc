// Exhaustive corruption fuzzing of the snapshot loader: every truncation
// length and every single-byte flip of a real v2 snapshot must come back
// as a clean error — kCorrupted (or kInvalidArgument for a damaged
// version field), never a crash, never UB, never a silently-wrong graph.
// The v2 body checksum makes this a hard guarantee, not a probabilistic
// one, and CI runs this file under ASan/UBSan to hold the "no UB" half.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "api/model.h"
#include "core/hypergraph.h"
#include "serve/snapshot.h"
#include "util/logging.h"

namespace hypermine::serve {
namespace {

/// A snapshot exercising every region the loader parses: several edges
/// (multi-vertex tails, weight extremes) and a v2 spec trailer with
/// non-empty strings.
std::string BuildSnapshotBytes() {
  auto graph = core::DirectedHypergraph::Create({"A", "B", "C", "D", ""});
  HM_CHECK_OK(graph.status());
  HM_CHECK_OK(graph->AddEdge({0}, 1, 0.9).status());
  HM_CHECK_OK(graph->AddEdge({0, 1}, 3, 0.8).status());
  HM_CHECK_OK(graph->AddEdge({1, 2, 3}, 4, 1e-300).status());
  HM_CHECK_OK(graph->AddEdge({2}, 0, 1.0).status());
  api::ModelSpec spec;
  spec.config.k = 12;
  spec.discretization = "floor(value / 10)";
  spec.provenance.source = "snapshot_fuzz_test";
  spec.provenance.git_sha = "deadbeef";
  spec.provenance.note = "fuzz corpus";
  spec.provenance.created_unix = 1754524800;
  return SerializeSnapshot(*graph, spec);
}

/// Any damaged buffer must yield a clean parse error. kCorrupted is the
/// contract for torn bytes; a flip inside the header's version word may
/// legitimately surface as kInvalidArgument ("unsupported version").
void ExpectCleanFailure(const std::string& data, const std::string& what) {
  auto full = DeserializeSnapshotFull(data);
  ASSERT_FALSE(full.ok()) << what << ": damaged snapshot parsed OK";
  EXPECT_TRUE(full.status().code() == StatusCode::kCorrupted ||
              full.status().code() == StatusCode::kInvalidArgument)
      << what << ": unexpected status " << full.status().ToString();
}

TEST(SnapshotFuzzTest, IntactCorpusParses) {
  const std::string data = BuildSnapshotBytes();
  auto full = DeserializeSnapshotFull(data);
  ASSERT_TRUE(full.ok()) << full.status();
  EXPECT_EQ(full->graph.num_edges(), 4u);
  EXPECT_TRUE(full->has_spec);
  EXPECT_EQ(full->spec.provenance.source, "snapshot_fuzz_test");
}

TEST(SnapshotFuzzTest, TruncationAtEveryOffsetFailsCleanly) {
  const std::string data = BuildSnapshotBytes();
  for (size_t len = 0; len < data.size(); ++len) {
    ExpectCleanFailure(data.substr(0, len),
                       "truncated to " + std::to_string(len) + " bytes");
  }
}

TEST(SnapshotFuzzTest, SingleByteFlipAtEveryOffsetFailsCleanly) {
  const std::string data = BuildSnapshotBytes();
  for (size_t pos = 0; pos < data.size(); ++pos) {
    for (uint8_t flip : {uint8_t{0x01}, uint8_t{0x80}, uint8_t{0xFF}}) {
      std::string damaged = data;
      damaged[pos] = static_cast<char>(damaged[pos] ^ flip);
      ExpectCleanFailure(damaged, "bit flip 0x" + std::to_string(flip) +
                                      " at offset " + std::to_string(pos));
    }
  }
}

TEST(SnapshotFuzzTest, GarbageAppendedAfterTheBodyIsRejected) {
  // Trailing junk changes the body the checksum covers, so it is torn
  // bytes like any other: the loader must not silently ignore it.
  std::string data = BuildSnapshotBytes();
  data += "extra";
  ExpectCleanFailure(data, "trailing garbage");
}

TEST(SnapshotFuzzTest, EmptyAndTinyBuffersFailCleanly) {
  ExpectCleanFailure("", "empty buffer");
  ExpectCleanFailure("H", "one byte");
  ExpectCleanFailure(std::string(23, '\0'), "sub-header zeros");
  ExpectCleanFailure(std::string(1024, '\xFF'), "all-ones buffer");
}

}  // namespace
}  // namespace hypermine::serve
