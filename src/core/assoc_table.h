#ifndef HYPERMINE_CORE_ASSOC_TABLE_H_
#define HYPERMINE_CORE_ASSOC_TABLE_H_

#include <string>
#include <vector>

#include "core/database.h"
#include "core/simd.h"
#include "util/status.h"

namespace hypermine::core {

/// One row of an association table (Definition 3.6(2), Table 3.7): the
/// support of a tail value combination, the most frequent head value v*
/// under it, and the confidence of the induced mva-type rule.
struct AssocTableRow {
  double support = 0.0;
  ValueId best_head_value = 0;
  double confidence = 0.0;
  /// Absolute observation count of the tail combination.
  size_t tail_count = 0;
};

/// The association table AT(T, H) of a directed hyperedge (T, {H}) with
/// |T| in {1, 2}: one row per tail value combination, plus the derived
/// association confidence value
///   ACV(T, H) = sum_rows Supp(row) * Conf(row)  (Definition 3.6(1)).
class AssociationTable {
 public:
  /// Builds the table by one counting pass over the database. `tail` must
  /// hold 1 or 2 distinct attributes, all different from `head`; the
  /// database must be non-empty.
  static StatusOr<AssociationTable> Build(const Database& db,
                                          std::vector<AttrId> tail,
                                          AttrId head);

  const std::vector<AttrId>& tail() const { return tail_; }
  AttrId head() const { return head_; }
  size_t num_values() const { return k_; }

  /// Number of rows: k for |T|=1, k^2 for |T|=2 (rows with zero support are
  /// materialized with support 0).
  size_t num_rows() const { return rows_.size(); }

  /// Row of a tail value combination; for |T|=2 the order matches tail().
  const AssocTableRow& RowFor(const std::vector<ValueId>& tail_values) const;
  const AssocTableRow& row(size_t index) const { return rows_[index]; }
  /// All rows in tail-combination order, for consumers that need to walk
  /// the whole table rather than look up single combinations.
  const std::vector<AssocTableRow>& rows() const { return rows_; }

  /// ACV(T, H) in [0, 1].
  double acv() const { return acv_; }

  /// Renders the table in the layout of Table 3.7 (values shown 1-based).
  std::string ToString(const Database& db) const;

 private:
  AssociationTable() = default;

  std::vector<AttrId> tail_;
  AttrId head_ = 0;
  size_t k_ = 0;
  std::vector<AssocTableRow> rows_;
  double acv_ = 0.0;
};

/// ACV(∅, {H}) — the frequency of the most frequent value of H. This is the
/// γ-significance baseline for directed edges (Definition 3.7 with
/// T - {v} = ∅) and the lower bound of Theorem 3.8(1).
StatusOr<double> BaseAcv(const Database& db, AttrId head);

/// --- Low-level counting kernels (hot path of the hypergraph builder) ---
/// These avoid AssociationTable's row materialization; they only produce
/// the ACV. Columns must have length m with values < k. All kernels count
/// in integers and divide once, so a given (tail, head, m, k) input yields
/// a bit-identical double regardless of which kernel computed it.

/// ACV({tail}, {head}) by a single counting pass.
double AcvEdgeKernel(const ValueId* tail, const ValueId* head, size_t m,
                     size_t k);

/// Scratch length (in size_t elements) required by the fused multi-head
/// edge kernel: one k×k contingency table per head in the block.
constexpr size_t AcvEdgeBlockScratchSize(size_t num_heads, size_t k) {
  return num_heads * k * k;
}

/// Fused multi-head edge kernel: computes ACV({tail}, {heads[j]}) for all
/// j in [0, num_heads) while scanning the tail column ONCE, accumulating
/// the block's k×k contingency tables side by side in `scratch`
/// (>= AcvEdgeBlockScratchSize(num_heads, k) elements, caller-owned so the
/// hot loop never allocates). This amortizes the dominant memory traffic
/// of model construction — the per-candidate column scan — across a whole
/// block of heads; out_acv[j] is bit-identical to
/// AcvEdgeKernel(tail, heads[j], m, k).
void AcvEdgeBlockKernel(const ValueId* tail, const ValueId* const* heads,
                        size_t num_heads, size_t m, size_t k,
                        size_t* scratch, double* out_acv);

/// Scratch length (in size_t elements) required by the scratch-buffer pair
/// kernel: the k²×k contingency table of a 2-to-1 candidate.
constexpr size_t AcvPairScratchSize(size_t k) { return k * k * k; }

/// ACV({tail1, tail2}, {head}); tail value pairs are coded as v1*k+v2.
/// `scratch` must hold >= AcvPairScratchSize(k) elements; passing it in
/// lets the builder evaluate millions of candidates without a heap
/// allocation per call.
double AcvPairKernel(const ValueId* tail1, const ValueId* tail2,
                     const ValueId* head, size_t m, size_t k,
                     size_t* scratch);

/// Compatibility wrapper allocating its own scratch; prefer the
/// scratch-buffer overload on hot paths.
double AcvPairKernel(const ValueId* tail1, const ValueId* tail2,
                     const ValueId* head, size_t m, size_t k);

/// --- Bit-plane ACV kernels (the builder's fast path for small k) ---
/// A column over k values is re-coded as k bit planes of m bits each;
/// a contingency-table cell is then popcount(tail_plane & head_plane), so
/// one (tail, head) candidate costs ~k² passes over m/64 words instead of
/// m byte-at-a-time increments. Counting stays exact-integer, so plane
/// kernels are bit-identical to the byte kernels. The representation pays
/// off while k(k-1) word passes beat m byte scans; the builder switches
/// paths at kMaxPlaneKernelValues.

/// Largest k for which the builder uses the bit-plane kernels. Beyond
/// this, k² popcount passes per candidate outgrow the byte kernels' single
/// m-byte scan (and the packed planes outgrow the raw columns).
inline constexpr size_t kMaxPlaneKernelValues = 8;

/// 64-bit words per m-bit value plane.
constexpr size_t PlaneWords(size_t m) { return (m + 63) / 64; }

/// Total words of a column's packed planes: k planes of PlaneWords(m).
constexpr size_t ValuePlanesSize(size_t k, size_t m) {
  return k * PlaneWords(m);
}

/// Packs a column into k value planes: bit o of plane v is set iff
/// col[o] == v. `planes` must hold ValuePlanesSize(k, m) words; padding
/// bits are cleared (popcounts over whole planes are exact).
void PackValuePlanes(const ValueId* col, size_t m, size_t k,
                     uint64_t* planes);

/// Fused multi-head edge kernel over packed planes: out_acv[j] =
/// ACV({tail}, {heads[j]}) for a block of heads, bit-identical to
/// AcvEdgeKernel on the original columns. The tail's plane popcounts are
/// computed once per call and each row's last head-value count is inferred
/// from the row total, so a block of B heads costs ~B·k(k-1) word passes.
/// The builder keeps a block's head planes L1-resident while streaming
/// every tail through this kernel — the cache-blocked core of model
/// construction.
void AcvEdgeBlockKernel(const uint64_t* tail_planes,
                        const uint64_t* const* head_planes, size_t num_heads,
                        size_t m, size_t k, double* out_acv);

/// --- Tier-explicit plane kernels ---
/// The plane kernels above run on simd::ActiveOps() — the best tier the
/// host supports, or the HYPERMINE_SIMD override. These overloads take the
/// dispatch table explicitly so tests and benches can pin a specific tier
/// (and fuzz every supported tier against the byte-kernel oracle). All
/// tiers count in exact integers, so outputs are bit-identical across
/// tiers by construction.
void AcvEdgeBlockKernel(const uint64_t* tail_planes,
                        const uint64_t* const* head_planes, size_t num_heads,
                        size_t m, size_t k, const simd::Ops& ops,
                        double* out_acv);

/// --- Stage-2 plane kernel: 2-to-1 candidates judged pair-major ---
/// A candidate ({a, b}, {h}) has a k×k×k table N[i][j][l] of observations
/// with a = i, b = j and h = l. The builder visits candidates tail pair by
/// tail pair, which splits the count in two:
///  - per tail pair, the (k-1)² joint planes A_i & B_j with i, j < k-1 and
///    their popcounts (PairJointPlanes); they do not depend on the head;
///  - per candidate, only the (k-1)³ cells whose values are all below k-1,
///    as popcount(A_i & B_j & H_l) (AcvPairMarginalKernel).
/// Every other cell follows by subtraction from the joint counts and the
/// (a, h) and (b, h) contingency tables (EdgeTableKernel), so the ACV is
/// the same integer over m as the byte AcvPairKernel's, bit for bit. At
/// k = 3 a candidate costs 8 word passes instead of 27.

/// Words of a tail pair's joint planes: (k-1)² planes of PlaneWords(m).
constexpr size_t PairJointWords(size_t k, size_t m) {
  return (k - 1) * (k - 1) * PlaneWords(m);
}

/// The k×k contingency table of ({tail}, {head}): table[i * k + l] is the
/// number of observations with tail value i and head value l. `m` must not
/// exceed UINT32_MAX.
void EdgeTableKernel(const uint64_t* tail_planes, const uint64_t* head_planes,
                     size_t m, size_t k, const simd::Ops& ops,
                     uint32_t* table);

/// The head-independent half of the tail pair (a, b): for i, j < k-1,
/// cell c = i * (k-1) + j gets joint[c * PlaneWords(m) ...] = A_i & B_j
/// and joint_counts[c] = its popcount. `joint` must hold
/// PairJointWords(k, m) words and `joint_counts` (k-1)² entries.
void PairJointPlanes(const uint64_t* a_planes, const uint64_t* b_planes,
                     size_t m, size_t k, const simd::Ops& ops,
                     uint64_t* joint, uint32_t* joint_counts);

/// ACV({a, b}, {h}) from the pair's joint planes (PairJointPlanes), the
/// head's planes, and the EdgeTableKernel tables of (a, h) and (b, h);
/// bit-identical to the byte AcvPairKernel on the original columns.
/// k must be at most kMaxPlaneKernelValues.
double AcvPairMarginalKernel(const uint64_t* joint,
                             const uint32_t* joint_counts,
                             const uint64_t* head_planes,
                             const uint32_t* ah_table,
                             const uint32_t* bh_table, size_t m, size_t k,
                             const simd::Ops& ops);

}  // namespace hypermine::core

#endif  // HYPERMINE_CORE_ASSOC_TABLE_H_
