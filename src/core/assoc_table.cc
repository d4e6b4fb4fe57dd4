#include "core/assoc_table.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <sstream>
#include <utility>

#include "util/logging.h"
#include "util/string_util.h"

namespace hypermine::core {

namespace {

Status ValidateTailHead(const Database& db, const std::vector<AttrId>& tail,
                        AttrId head) {
  if (tail.empty() || tail.size() > 2) {
    return Status::InvalidArgument(
        "AssociationTable: |T| must be 1 or 2 (the restricted model of "
        "Section 3.2)");
  }
  if (head >= db.num_attributes()) {
    return Status::OutOfRange("AssociationTable: head out of range");
  }
  for (AttrId a : tail) {
    if (a >= db.num_attributes()) {
      return Status::OutOfRange("AssociationTable: tail attr out of range");
    }
    if (a == head) {
      return Status::InvalidArgument(
          "AssociationTable: T and H must be disjoint");
    }
  }
  if (tail.size() == 2 && tail[0] == tail[1]) {
    return Status::InvalidArgument("AssociationTable: repeated tail attr");
  }
  if (db.num_observations() == 0) {
    return Status::FailedPrecondition("AssociationTable: empty database");
  }
  return Status::OK();
}

}  // namespace

StatusOr<AssociationTable> AssociationTable::Build(const Database& db,
                                                   std::vector<AttrId> tail,
                                                   AttrId head) {
  HM_RETURN_IF_ERROR(ValidateTailHead(db, tail, head));
  const size_t k = db.num_values();
  const size_t m = db.num_observations();
  const size_t num_rows = tail.size() == 1 ? k : k * k;

  // counts[row * k + h] = #observations with this tail combo and head h.
  std::vector<size_t> counts(num_rows * k, 0);
  const ValueId* head_col = db.column(head).data();
  if (tail.size() == 1) {
    const ValueId* t0 = db.column(tail[0]).data();
    for (size_t o = 0; o < m; ++o) {
      ++counts[static_cast<size_t>(t0[o]) * k + head_col[o]];
    }
  } else {
    const ValueId* t0 = db.column(tail[0]).data();
    const ValueId* t1 = db.column(tail[1]).data();
    for (size_t o = 0; o < m; ++o) {
      size_t row = (static_cast<size_t>(t0[o]) * k + t1[o]);
      ++counts[row * k + head_col[o]];
    }
  }

  AssociationTable table;
  table.tail_ = std::move(tail);
  table.head_ = head;
  table.k_ = k;
  table.rows_.resize(num_rows);
  double acv = 0.0;
  for (size_t row = 0; row < num_rows; ++row) {
    size_t total = 0;
    size_t best_count = 0;
    ValueId best_value = 0;
    for (size_t h = 0; h < k; ++h) {
      size_t c = counts[row * k + h];
      total += c;
      if (c > best_count) {
        best_count = c;
        best_value = static_cast<ValueId>(h);
      }
    }
    AssocTableRow& out = table.rows_[row];
    out.tail_count = total;
    out.support = static_cast<double>(total) / static_cast<double>(m);
    out.best_head_value = best_value;
    out.confidence =
        total == 0 ? 0.0
                   : static_cast<double>(best_count) / static_cast<double>(total);
    // Supp * Conf telescopes to best_count / m, summed over rows.
    acv += static_cast<double>(best_count) / static_cast<double>(m);
  }
  table.acv_ = acv;
  return table;
}

const AssocTableRow& AssociationTable::RowFor(
    const std::vector<ValueId>& tail_values) const {
  HM_CHECK_EQ(tail_values.size(), tail_.size());
  size_t row = 0;
  for (ValueId v : tail_values) {
    HM_CHECK_LT(v, k_);
    row = row * k_ + v;
  }
  return rows_[row];
}

std::string AssociationTable::ToString(const Database& db) const {
  std::ostringstream os;
  os << "AT(T={";
  for (size_t i = 0; i < tail_.size(); ++i) {
    if (i > 0) os << ", ";
    os << db.attribute_name(tail_[i]);
  }
  os << "}, H={" << db.attribute_name(head_) << "}), ACV="
     << FormatDouble(acv_, 3) << "\n";
  os << "index | values | support | v* | confidence\n";
  for (size_t row = 0; row < rows_.size(); ++row) {
    os << row + 1 << " | <";
    if (tail_.size() == 1) {
      os << row + 1;
    } else {
      os << row / k_ + 1 << ", " << row % k_ + 1;
    }
    os << "> | " << FormatDouble(rows_[row].support, 3) << " | "
       << static_cast<int>(rows_[row].best_head_value) + 1 << " | "
       << FormatDouble(rows_[row].confidence, 3) << "\n";
  }
  return os.str();
}

StatusOr<double> BaseAcv(const Database& db, AttrId head) {
  if (head >= db.num_attributes()) {
    return Status::OutOfRange("BaseAcv: head out of range");
  }
  if (db.num_observations() == 0) {
    return Status::FailedPrecondition("BaseAcv: empty database");
  }
  const size_t k = db.num_values();
  std::vector<size_t> counts(k, 0);
  for (ValueId v : db.column(head)) ++counts[v];
  size_t best = *std::max_element(counts.begin(), counts.end());
  return static_cast<double>(best) /
         static_cast<double>(db.num_observations());
}

namespace {

/// Sum over rows of the row maximum, divided by m — the shared reduction of
/// every ACV kernel (the Supp * Conf sum telescopes to it).
double ReduceAcv(const size_t* counts, size_t num_rows, size_t k, size_t m) {
  size_t acc = 0;
  for (size_t row = 0; row < num_rows; ++row) {
    size_t best = 0;
    for (size_t h = 0; h < k; ++h) {
      best = std::max(best, counts[row * k + h]);
    }
    acc += best;
  }
  return static_cast<double>(acc) / static_cast<double>(m);
}

}  // namespace

double AcvEdgeKernel(const ValueId* tail, const ValueId* head, size_t m,
                     size_t k) {
  // counts[v_t * k + v_h]; k <= kMaxValues keeps this on the stack-ish side.
  size_t counts[kMaxValues * kMaxValues];
  std::fill(counts, counts + k * k, size_t{0});
  for (size_t o = 0; o < m; ++o) {
    ++counts[static_cast<size_t>(tail[o]) * k + head[o]];
  }
  return ReduceAcv(counts, k, k, m);
}

void AcvEdgeBlockKernel(const ValueId* tail, const ValueId* const* heads,
                        size_t num_heads, size_t m, size_t k,
                        size_t* scratch, double* out_acv) {
  const size_t table = k * k;
  std::fill(scratch, scratch + num_heads * table, size_t{0});
  for (size_t o = 0; o < m; ++o) {
    // One tail load feeds every head's table; `cell` walks the tables at a
    // fixed row offset so the inner loop is add + increment only.
    size_t* cell = scratch + static_cast<size_t>(tail[o]) * k;
    for (size_t j = 0; j < num_heads; ++j, cell += table) {
      ++cell[heads[j][o]];
    }
  }
  for (size_t j = 0; j < num_heads; ++j) {
    out_acv[j] = ReduceAcv(scratch + j * table, k, k, m);
  }
}

double AcvPairKernel(const ValueId* tail1, const ValueId* tail2,
                     const ValueId* head, size_t m, size_t k,
                     size_t* scratch) {
  std::fill(scratch, scratch + AcvPairScratchSize(k), size_t{0});
  for (size_t o = 0; o < m; ++o) {
    size_t row = (static_cast<size_t>(tail1[o]) * k + tail2[o]);
    ++scratch[row * k + head[o]];
  }
  return ReduceAcv(scratch, k * k, k, m);
}

double AcvPairKernel(const ValueId* tail1, const ValueId* tail2,
                     const ValueId* head, size_t m, size_t k) {
  std::vector<size_t> counts(AcvPairScratchSize(k), 0);
  return AcvPairKernel(tail1, tail2, head, m, k, counts.data());
}

void PackValuePlanes(const ValueId* col, size_t m, size_t k,
                     uint64_t* planes) {
  const size_t words = PlaneWords(m);
  std::fill(planes, planes + k * words, uint64_t{0});
  for (size_t o = 0; o < m; ++o) {
    planes[static_cast<size_t>(col[o]) * words + (o >> 6)] |=
        uint64_t{1} << (o & 63);
  }
}

void AcvEdgeBlockKernel(const uint64_t* tail_planes,
                        const uint64_t* const* head_planes, size_t num_heads,
                        size_t m, size_t k, const simd::Ops& ops,
                        double* out_acv) {
  const size_t words = PlaneWords(m);
  // Row totals: #observations with tail value v, shared by every head in
  // the block; the last head value's cell is row_total - sum(previous),
  // saving one popcount pass per row.
  size_t row_total[kMaxValues];
  for (size_t v = 0; v < k; ++v) {
    row_total[v] = ops.popcount(tail_planes + v * words, words);
  }
  for (size_t j = 0; j < num_heads; ++j) {
    const uint64_t* head = head_planes[j];
    size_t acc = 0;
    for (size_t v = 0; v < k; ++v) {
      const uint64_t* tail_plane = tail_planes + v * words;
      size_t best = 0;
      size_t seen = 0;
      for (size_t h = 0; h + 1 < k; ++h) {
        size_t c = ops.popcount_and(tail_plane, head + h * words, words);
        seen += c;
        best = std::max(best, c);
      }
      best = std::max(best, row_total[v] - seen);
      acc += best;
    }
    out_acv[j] = static_cast<double>(acc) / static_cast<double>(m);
  }
}

void AcvEdgeBlockKernel(const uint64_t* tail_planes,
                        const uint64_t* const* head_planes, size_t num_heads,
                        size_t m, size_t k, double* out_acv) {
  AcvEdgeBlockKernel(tail_planes, head_planes, num_heads, m, k,
                     simd::ActiveOps(), out_acv);
}

void EdgeTableKernel(const uint64_t* tail_planes, const uint64_t* head_planes,
                     size_t m, size_t k, const simd::Ops& ops,
                     uint32_t* table) {
  const size_t words = PlaneWords(m);
  for (size_t i = 0; i < k; ++i) {
    for (size_t l = 0; l < k; ++l) {
      table[i * k + l] = static_cast<uint32_t>(ops.popcount_and(
          tail_planes + i * words, head_planes + l * words, words));
    }
  }
}

void PairJointPlanes(const uint64_t* a_planes, const uint64_t* b_planes,
                     size_t m, size_t k, const simd::Ops& ops,
                     uint64_t* joint, uint32_t* joint_counts) {
  const size_t words = PlaneWords(m);
  const size_t last = k - 1;
  for (size_t i = 0; i < last; ++i) {
    for (size_t j = 0; j < last; ++j) {
      const size_t cell = i * last + j;
      joint_counts[cell] = static_cast<uint32_t>(
          ops.and_store_popcount(a_planes + i * words, b_planes + j * words,
                                 joint + cell * words, words));
    }
  }
}

namespace {

/// AcvPairMarginalKernel's integer sum. The bookkeeping arrays hold
/// kValues values, of which the first k are used. For k = 2 and 3 the
/// kernel instantiates kValues = k with a constant k, so the loops unroll
/// and the bookkeeping stays in registers: one-thread Stage 2 of a
/// 200-series market model (m = 3779, AVX-512 tier, 4-vCPU host) took
/// 0.049 s instead of 0.084 s at k = 2 and 0.271 s instead of 0.315 s at
/// k = 3 (medians; faster in every one of 6 and 8 alternating runs). From
/// k = 4 on, an exact instance won nothing over the kMaxPlaneKernelValues
/// one (medians within 3% at k = 4 and 8; at k = 5 between 15% slower and
/// 2% faster over four batches), so that one serves them all.
template <size_t kValues>
size_t PairMarginalCount(const uint64_t* joint, const uint32_t* joint_counts,
                         const uint64_t* head_planes, const uint32_t* ah_table,
                         const uint32_t* bh_table, size_t words, size_t k,
                         const simd::Ops& ops) {
  const size_t last = k - 1;
  // b_seen[j][l] = sum over i < last of N[i][j][l]; corner[l] = sum over
  // i < last of N[i][last][l].
  size_t b_seen[kValues - 1][kValues] = {};
  size_t corner[kValues] = {};
  size_t acc = 0;
  for (size_t i = 0; i < last; ++i) {
    // a_seen[l] = sum over j < last of N[i][j][l].
    size_t a_seen[kValues] = {};
    // Rows (i, j) with j < last: count the head values below last, and
    // take N[i][j][last] from the joint count.
    for (size_t j = 0; j < last; ++j) {
      const size_t cell = i * last + j;
      if (joint_counts[cell] == 0) continue;  // an empty row adds nothing
      const uint64_t* plane = joint + cell * words;
      size_t seen = 0;
      size_t best = 0;
      for (size_t l = 0; l < last; ++l) {
        const size_t c = ops.popcount_and(plane, head_planes + l * words,
                                          words);
        seen += c;
        best = std::max(best, c);
        a_seen[l] += c;
        b_seen[j][l] += c;
      }
      const size_t c = joint_counts[cell] - seen;
      best = std::max(best, c);
      a_seen[last] += c;
      b_seen[j][last] += c;
      acc += best;
    }
    // Row (i, last): the rest of the (a, h) table's row i.
    size_t best = 0;
    for (size_t l = 0; l < k; ++l) {
      const size_t c = ah_table[i * k + l] - a_seen[l];
      corner[l] += c;
      best = std::max(best, c);
    }
    acc += best;
  }
  // Rows (last, j): the rest of the (b, h) table's row j.
  for (size_t j = 0; j < last; ++j) {
    size_t best = 0;
    for (size_t l = 0; l < k; ++l) {
      best = std::max(best, bh_table[j * k + l] - b_seen[j][l]);
    }
    acc += best;
  }
  // Row (last, last): the rest of the (b, h) table's last row.
  size_t best = 0;
  for (size_t l = 0; l < k; ++l) {
    best = std::max(best, bh_table[last * k + l] - corner[l]);
  }
  return acc + best;
}

}  // namespace

double AcvPairMarginalKernel(const uint64_t* joint,
                             const uint32_t* joint_counts,
                             const uint64_t* head_planes,
                             const uint32_t* ah_table,
                             const uint32_t* bh_table, size_t m, size_t k,
                             const simd::Ops& ops) {
  HM_CHECK(k >= 2 && k <= kMaxPlaneKernelValues);
  const size_t words = PlaneWords(m);
  size_t acc;
  switch (k) {
    case 2:
      acc = PairMarginalCount<2>(joint, joint_counts, head_planes, ah_table,
                                 bh_table, words, 2, ops);
      break;
    case 3:
      acc = PairMarginalCount<3>(joint, joint_counts, head_planes, ah_table,
                                 bh_table, words, 3, ops);
      break;
    default:
      acc = PairMarginalCount<kMaxPlaneKernelValues>(
          joint, joint_counts, head_planes, ah_table, bh_table, words, k, ops);
  }
  return static_cast<double>(acc) / static_cast<double>(m);
}

}  // namespace hypermine::core
