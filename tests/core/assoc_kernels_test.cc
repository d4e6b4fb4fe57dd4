// Fuzz-style coverage for the low-level ACV kernels: the fused multi-head
// edge kernel and the scratch-buffer pair kernel must agree with the
// reference AssociationTable::Build(...).acv() on random inputs, and
// bit-exactly with their unfused/allocating counterparts. The plane
// kernels, the builder's Stage-2 pair kernel included, must match the byte
// kernels bit for bit on every SIMD tier.
#include <gtest/gtest.h>

#include <vector>

#include "core/assoc_table.h"
#include "core/discretize.h"
#include "core/simd.h"
#include "util/rng.h"

namespace hypermine::core {
namespace {

/// Random column-major database over n attributes, m observations, k
/// values, with adjacent-column correlation so interesting contingency
/// tables (non-uniform row maxima) occur.
Database RandomDb(Rng* rng, size_t n, size_t m, size_t k) {
  std::vector<std::vector<ValueId>> columns(n, std::vector<ValueId>(m));
  std::vector<std::string> names;
  for (size_t a = 0; a < n; ++a) names.push_back("A" + std::to_string(a));
  for (size_t o = 0; o < m; ++o) {
    for (size_t a = 0; a < n; ++a) {
      if (a > 0 && rng->NextBernoulli(0.5)) {
        columns[a][o] = columns[a - 1][o];
      } else {
        columns[a][o] = static_cast<ValueId>(rng->NextBounded(k));
      }
    }
  }
  auto db = DatabaseFromColumns(std::move(names), k, columns);
  EXPECT_TRUE(db.ok());
  return std::move(db).value();
}

TEST(AcvKernelsTest, ScratchSizeHelpers) {
  EXPECT_EQ(AcvEdgeBlockScratchSize(4, 3), 4u * 9u);
  EXPECT_EQ(AcvEdgeBlockScratchSize(1, 5), 25u);
  EXPECT_EQ(AcvPairScratchSize(3), 27u);
  EXPECT_EQ(AcvPairScratchSize(5), 125u);
}

TEST(AcvKernelsTest, FusedEdgeKernelMatchesReferenceOnRandomInputs) {
  Rng rng(2024);
  for (int trial = 0; trial < 40; ++trial) {
    const size_t k = 2 + rng.NextBounded(5);          // 2..6
    const size_t n = 3 + rng.NextBounded(8);          // 3..10
    const size_t m = 1 + rng.NextBounded(300);        // 1..300
    Database db = RandomDb(&rng, n, m, k);

    // A random block of heads (may include the tail attribute itself;
    // those slots are judged meaningless by the builder but must still be
    // computed consistently with AcvEdgeKernel).
    const size_t tail = rng.NextBounded(n);
    const size_t num_heads = 1 + rng.NextBounded(n);
    std::vector<const ValueId*> heads(num_heads);
    std::vector<size_t> head_ids(num_heads);
    for (size_t j = 0; j < num_heads; ++j) {
      head_ids[j] = rng.NextBounded(n);
      heads[j] = db.column(static_cast<AttrId>(head_ids[j])).data();
    }

    std::vector<size_t> scratch(AcvEdgeBlockScratchSize(num_heads, k));
    std::vector<double> acv(num_heads, -1.0);
    AcvEdgeBlockKernel(db.column(static_cast<AttrId>(tail)).data(),
                       heads.data(), num_heads, m, k, scratch.data(),
                       acv.data());

    for (size_t j = 0; j < num_heads; ++j) {
      // Bit-exact vs the unfused kernel (same integer counts, one divide).
      EXPECT_EQ(acv[j],
                AcvEdgeKernel(db.column(static_cast<AttrId>(tail)).data(),
                              heads[j], m, k))
          << "trial " << trial << " head " << j;
      // Near-exact vs the row-materializing reference, which accumulates
      // best/m per row instead of summing integers first.
      if (head_ids[j] != tail) {
        auto table = AssociationTable::Build(
            db, {static_cast<AttrId>(tail)},
            static_cast<AttrId>(head_ids[j]));
        ASSERT_TRUE(table.ok());
        EXPECT_NEAR(acv[j], table->acv(), 1e-12)
            << "trial " << trial << " head " << j;
      }
    }
  }
}

TEST(AcvKernelsTest, PairKernelScratchMatchesReferenceOnRandomInputs) {
  Rng rng(777);
  for (int trial = 0; trial < 40; ++trial) {
    const size_t k = 2 + rng.NextBounded(5);
    const size_t n = 3 + rng.NextBounded(6);
    const size_t m = 1 + rng.NextBounded(250);
    Database db = RandomDb(&rng, n, m, k);

    // Three distinct attributes: two tails and a head.
    std::vector<size_t> ids = rng.SampleIndices(n, 3);
    const ValueId* t0 = db.column(static_cast<AttrId>(ids[0])).data();
    const ValueId* t1 = db.column(static_cast<AttrId>(ids[1])).data();
    const ValueId* head = db.column(static_cast<AttrId>(ids[2])).data();

    std::vector<size_t> scratch(AcvPairScratchSize(k), 1234);
    double with_scratch = AcvPairKernel(t0, t1, head, m, k, scratch.data());
    // Legacy allocating wrapper must agree bit-exactly.
    EXPECT_EQ(with_scratch, AcvPairKernel(t0, t1, head, m, k));

    auto table = AssociationTable::Build(
        db, {static_cast<AttrId>(ids[0]), static_cast<AttrId>(ids[1])},
        static_cast<AttrId>(ids[2]));
    ASSERT_TRUE(table.ok());
    EXPECT_NEAR(with_scratch, table->acv(), 1e-12) << "trial " << trial;
  }
}

TEST(AcvKernelsTest, PackValuePlanesPartitionsObservations) {
  Rng rng(31);
  for (size_t m : {1u, 63u, 64u, 65u, 200u}) {
    const size_t k = 4;
    std::vector<ValueId> col(m);
    for (size_t o = 0; o < m; ++o) {
      col[o] = static_cast<ValueId>(rng.NextBounded(k));
    }
    std::vector<uint64_t> planes(ValuePlanesSize(k, m), ~uint64_t{0});
    PackValuePlanes(col.data(), m, k, planes.data());
    const size_t words = PlaneWords(m);
    for (size_t o = 0; o < m; ++o) {
      for (size_t v = 0; v < k; ++v) {
        const bool bit =
            (planes[v * words + (o >> 6)] >> (o & 63)) & uint64_t{1};
        EXPECT_EQ(bit, col[o] == v) << "m=" << m << " o=" << o;
      }
    }
    // Padding bits beyond m must be cleared despite the dirty buffer.
    uint64_t padding = 0;
    for (size_t v = 0; v < k; ++v) {
      if (m % 64 != 0) {
        padding |= planes[v * words + words - 1] & (~uint64_t{0} << (m % 64));
      }
    }
    EXPECT_EQ(padding, 0u) << "m=" << m;
  }
}

TEST(AcvKernelsTest, PlaneKernelsMatchByteKernelsOnRandomInputs) {
  Rng rng(4242);
  for (int trial = 0; trial < 40; ++trial) {
    const size_t k = 2 + rng.NextBounded(7);      // 2..8, the plane regime
    const size_t n = 3 + rng.NextBounded(6);
    const size_t m = 1 + rng.NextBounded(400);
    Database db = RandomDb(&rng, n, m, k);

    const size_t per_col = ValuePlanesSize(k, m);
    std::vector<uint64_t> planes(n * per_col);
    for (size_t a = 0; a < n; ++a) {
      PackValuePlanes(db.column(static_cast<AttrId>(a)).data(), m, k,
                      &planes[a * per_col]);
    }

    // Edge block: every (tail, head block) vs the byte kernel, bit-exact.
    const size_t tail = rng.NextBounded(n);
    const size_t num_heads = 1 + rng.NextBounded(n);
    std::vector<const uint64_t*> head_planes(num_heads);
    std::vector<size_t> head_ids(num_heads);
    for (size_t j = 0; j < num_heads; ++j) {
      head_ids[j] = rng.NextBounded(n);
      head_planes[j] = &planes[head_ids[j] * per_col];
    }
    std::vector<double> acv(num_heads, -1.0);
    AcvEdgeBlockKernel(&planes[tail * per_col], head_planes.data(),
                       num_heads, m, k, acv.data());
    for (size_t j = 0; j < num_heads; ++j) {
      EXPECT_EQ(acv[j],
                AcvEdgeKernel(db.column(static_cast<AttrId>(tail)).data(),
                              db.column(static_cast<AttrId>(head_ids[j]))
                                  .data(),
                              m, k))
          << "trial " << trial << " head " << j;
    }

    // Every SIMD tier this host supports must agree bit-exactly with the
    // byte oracle — the integer counts are identical by construction, so
    // any deviation is a vectorization bug, not a tolerance question.
    for (simd::Tier tier : simd::SupportedTiers()) {
      const simd::Ops& ops = simd::OpsForTier(tier);
      std::vector<double> tier_acv(num_heads, -1.0);
      AcvEdgeBlockKernel(&planes[tail * per_col], head_planes.data(),
                         num_heads, m, k, ops, tier_acv.data());
      for (size_t j = 0; j < num_heads; ++j) {
        EXPECT_EQ(tier_acv[j], acv[j])
            << "tier " << ops.name << " trial " << trial << " head " << j;
      }
    }
  }
}

/// A column whose values come from a random non-empty subset of the k
/// values, copying `source` (when given) with probability 1/2: some value
/// combinations then never occur, including ones with the last value,
/// whose cells the pair kernel derives rather than counts.
std::vector<ValueId> SparseColumn(Rng* rng, size_t m, size_t k,
                                  const std::vector<ValueId>* source) {
  std::vector<ValueId> allowed;
  while (allowed.empty()) {
    for (size_t v = 0; v < k; ++v) {
      if (rng->NextBernoulli(0.6)) allowed.push_back(static_cast<ValueId>(v));
    }
  }
  std::vector<ValueId> col(m);
  for (size_t o = 0; o < m; ++o) {
    col[o] = source != nullptr && rng->NextBernoulli(0.5)
                 ? (*source)[o]
                 : allowed[rng->NextBounded(allowed.size())];
  }
  return col;
}

/// The k×k (tail, head) table counted byte by byte.
std::vector<uint32_t> ByteEdgeTable(const std::vector<ValueId>& tail,
                                    const std::vector<ValueId>& head,
                                    size_t k) {
  std::vector<uint32_t> table(k * k, 0);
  for (size_t o = 0; o < tail.size(); ++o) ++table[tail[o] * k + head[o]];
  return table;
}

TEST(AcvKernelsTest, PairMarginalKernelMatchesBytePairKernelOnEveryTier) {
  Rng rng(1606);
  std::vector<size_t> row_counts = {1, 63, 64, 65};
  for (int extra = 0; extra < 4; ++extra) {
    row_counts.push_back(1 + rng.NextBounded(400));
  }
  for (simd::Tier tier : simd::SupportedTiers()) {
    const simd::Ops& ops = simd::OpsForTier(tier);
    for (size_t k = 2; k <= kMaxPlaneKernelValues; ++k) {
      for (size_t m : row_counts) {
        for (int trial = 0; trial < 6; ++trial) {
          SCOPED_TRACE(::testing::Message()
                       << "tier " << ops.name << " k " << k << " m " << m
                       << " trial " << trial);
          const std::vector<ValueId> a = SparseColumn(&rng, m, k, nullptr);
          const std::vector<ValueId> b = SparseColumn(&rng, m, k, &a);
          const std::vector<ValueId> h =
              SparseColumn(&rng, m, k, trial % 2 == 0 ? &a : &b);
          const size_t per_col = ValuePlanesSize(k, m);
          std::vector<uint64_t> planes(3 * per_col);
          PackValuePlanes(a.data(), m, k, &planes[0]);
          PackValuePlanes(b.data(), m, k, &planes[per_col]);
          PackValuePlanes(h.data(), m, k, &planes[2 * per_col]);

          const std::vector<uint32_t> ah = ByteEdgeTable(a, h, k);
          const std::vector<uint32_t> bh = ByteEdgeTable(b, h, k);
          std::vector<uint32_t> table(k * k, 0xFFFF);
          EdgeTableKernel(&planes[0], &planes[2 * per_col], m, k, ops,
                          table.data());
          EXPECT_EQ(table, ah);

          // Dirty buffers: the kernel must overwrite every word it reads.
          std::vector<uint64_t> joint(PairJointWords(k, m), 0xABCDu);
          std::vector<uint32_t> joint_counts((k - 1) * (k - 1), 77);
          PairJointPlanes(&planes[0], &planes[per_col], m, k, ops,
                          joint.data(), joint_counts.data());
          EXPECT_EQ(AcvPairMarginalKernel(joint.data(), joint_counts.data(),
                                          &planes[2 * per_col], ah.data(),
                                          bh.data(), m, k, ops),
                    AcvPairKernel(a.data(), b.data(), h.data(), m, k));
        }
      }
    }
  }
}

TEST(AcvKernelsTest, ScratchContentsDoNotLeakBetweenCalls) {
  // A dirty scratch buffer must not change results: kernels zero it.
  Rng rng(5);
  Database db = RandomDb(&rng, 4, 100, 3);
  const ValueId* t0 = db.column(0).data();
  const ValueId* t1 = db.column(1).data();
  const ValueId* head = db.column(2).data();

  std::vector<size_t> dirty(AcvPairScratchSize(3), 0xDEAD);
  std::vector<size_t> clean(AcvPairScratchSize(3), 0);
  EXPECT_EQ(AcvPairKernel(t0, t1, head, 100, 3, dirty.data()),
            AcvPairKernel(t0, t1, head, 100, 3, clean.data()));

  std::vector<size_t> block_dirty(AcvEdgeBlockScratchSize(2, 3), 0xBEEF);
  const ValueId* heads[2] = {t1, head};
  double acv_dirty[2];
  AcvEdgeBlockKernel(t0, heads, 2, 100, 3, block_dirty.data(), acv_dirty);
  EXPECT_EQ(acv_dirty[0], AcvEdgeKernel(t0, t1, 100, 3));
  EXPECT_EQ(acv_dirty[1], AcvEdgeKernel(t0, head, 100, 3));
}

}  // namespace
}  // namespace hypermine::core
