#include "core/builder.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/assoc_table.h"
#include "util/stopwatch.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace hypermine::core {

namespace {

/// A γ-significant 2-to-1 candidate held in a per-head buffer until the
/// serial merge.
struct PairVerdict {
  VertexId a = 0;
  VertexId b = 0;
  double acv = 0.0;
};

/// Everything one head contributes to the hypergraph, computed by a worker
/// without touching shared state. The merge step replays these buffers in
/// head order, reproducing the serial build's edge-insertion and
/// stat-accumulation order exactly.
struct HeadVerdicts {
  /// Kept directed edges (tail id ascending, the serial scan order).
  std::vector<std::pair<VertexId, double>> kept_edges;
  /// Kept 2-to-1 hyperedges in the serial enumeration order.
  std::vector<PairVerdict> kept_pairs;
  size_t pair_candidates = 0;
};

}  // namespace

// Heads are evaluated in cache-blocked groups: AcvEdgeBlockKernel scans
// one tail column (or its planes) while filling a whole block's k×k
// contingency tables, so the block's scratch must stay L1-resident.
// ~32 KiB of counts.
size_t BuildHeadBlockSize(size_t k) {
  const size_t budget = (32 * 1024) / sizeof(size_t);
  return std::clamp<size_t>(budget / (k * k), 1, 16);
}

HypergraphConfig ConfigC1() {
  HypergraphConfig config;
  config.k = 3;
  config.gamma_edge = 1.15;
  config.gamma_hyper = 1.05;
  return config;
}

HypergraphConfig ConfigC2() {
  HypergraphConfig config;
  config.k = 5;
  config.gamma_edge = 1.20;
  config.gamma_hyper = 1.12;
  return config;
}

std::string BuildStats::ToString() const {
  return StrFormat(
      "edges: %zu kept of %zu candidates (mean ACV %.3f); "
      "2-to-1: %zu kept of %zu candidates (mean ACV %.3f); %.2fs",
      edges_kept, edge_candidates, mean_edge_acv, pairs_kept,
      pair_candidates, mean_pair_acv, elapsed_seconds);
}

StatusOr<DirectedHypergraph> BuildAssociationHypergraph(
    const Database& db, const HypergraphConfig& config, BuildStats* stats,
    ThreadPool* pool, const ValuePlanes* planes) {
  if (db.num_values() != config.k) {
    return Status::InvalidArgument(
        StrFormat("builder: database has k=%zu but config expects k=%zu",
                  db.num_values(), config.k));
  }
  if (db.num_observations() == 0) {
    return Status::FailedPrecondition("builder: empty database");
  }
  if (config.gamma_edge < 1.0 || config.gamma_hyper < 1.0) {
    return Status::InvalidArgument("builder: gamma must be >= 1");
  }
  const size_t n = db.num_attributes();
  const size_t m = db.num_observations();
  const size_t k = db.num_values();

  Stopwatch timer;
  BuildStats local;
  HM_ASSIGN_OR_RETURN(DirectedHypergraph graph,
                      DirectedHypergraph::Create(db.attribute_names()));

  // Phase 1 (parallel): heads are partitioned into cache-blocked groups and
  // each group's candidates — all n-1 directed edges per head (Stage 1) and
  // the head's 2-to-1 candidates (Stage 2) — are judged into per-head
  // buffers. A head's verdicts depend only on the database and config, never
  // on scheduling, so any thread count yields identical buffers. The ACV
  // column of a head is kept for the whole block (not just kept edges)
  // because Definition 3.7 compares 2-to-1 candidates against
  // constituent-edge ACVs regardless of whether those edges were themselves
  // significant.
  const size_t block = BuildHeadBlockSize(k);
  const size_t num_blocks = (n + block - 1) / block;
  std::vector<HeadVerdicts> per_head(n);

  // For small k, every column is re-coded once as bit planes and both
  // stages count via AND+popcount (~k² word passes per candidate instead
  // of m byte increments); large k keeps the byte kernels. Both paths are
  // exact-integer, hence interchangeable bit for bit. A caller-provided
  // `planes` artifact (γ-sweeps, serve::PlaneCache) replaces the packing
  // pass after a content check; the packed words are identical either way.
  const bool use_planes = k <= kMaxPlaneKernelValues;
  const size_t words = PlaneWords(m);
  ValuePlanes local_planes;
  const ValuePlanes* packed = nullptr;
  if (use_planes) {
    if (planes != nullptr) {
      if (!planes->Matches(db)) {
        return Status::InvalidArgument(
            "builder: supplied ValuePlanes do not match the database "
            "(stale or foreign artifact)");
      }
      packed = planes;
    } else {
      local_planes = PackDatabasePlanes(db);
      packed = &local_planes;
    }
  }
  auto planes_of = [&](size_t a) { return packed->planes_of(a); };

  auto process_block = [&](size_t block_index) {
    const size_t h0 = block_index * block;
    const size_t h1 = std::min(n, h0 + block);
    const size_t width = h1 - h0;

    std::vector<const ValueId*> head_cols(width);
    for (size_t j = 0; j < width; ++j) {
      head_cols[j] = db.column(static_cast<AttrId>(h0 + j)).data();
    }
    // Per-head γ baseline: ACV(∅, {H}) (Definition 3.7 with |T| = 1).
    // BaseAcv cannot fail here — heads are in range and m > 0.
    std::vector<double> base(width);
    for (size_t j = 0; j < width; ++j) {
      base[j] = *BaseAcv(db, static_cast<AttrId>(h0 + j));
    }

    // Stage 1, fused: one pass per tail fills the whole block's k×k
    // contingency tables; the block's head planes (or columns) stay
    // cache-resident across all n tails. acv[a * width + j] =
    // ACV({a}, {h0 + j}).
    std::vector<double> acv(n * width, 0.0);
    if (use_planes) {
      std::vector<const uint64_t*> head_planes(width);
      for (size_t j = 0; j < width; ++j) head_planes[j] = planes_of(h0 + j);
      for (size_t a = 0; a < n; ++a) {
        AcvEdgeBlockKernel(planes_of(a), head_planes.data(), width, m, k,
                           &acv[a * width]);
      }
    } else {
      std::vector<size_t> scratch(AcvEdgeBlockScratchSize(width, k));
      for (size_t a = 0; a < n; ++a) {
        AcvEdgeBlockKernel(db.column(static_cast<AttrId>(a)).data(),
                           head_cols.data(), width, m, k, scratch.data(),
                           &acv[a * width]);
      }
    }
    for (size_t j = 0; j < width; ++j) {
      const size_t h = h0 + j;
      HeadVerdicts& out = per_head[h];
      for (size_t a = 0; a < n; ++a) {
        if (a == h) continue;
        if (acv[a * width + j] >= config.gamma_edge * base[j]) {
          out.kept_edges.emplace_back(static_cast<VertexId>(a),
                                      acv[a * width + j]);
        }
      }
    }

    // Stage 2: 2-to-1 candidates per head. With the candidate restriction
    // we only pair up attributes that individually formed a significant
    // edge into the head; otherwise all unordered pairs are enumerated.
    std::vector<size_t> pair_scratch(AcvPairScratchSize(k));
    std::vector<uint64_t> word_scratch(use_planes ? words : 0);
    for (size_t j = 0; j < width; ++j) {
      const size_t h = h0 + j;
      HeadVerdicts& out = per_head[h];
      auto consider = [&](VertexId a, VertexId b) {
        ++out.pair_candidates;
        double best_edge =
            std::max(acv[a * width + j], acv[b * width + j]);
        if (!config.keep_pairs_without_edges &&
            best_edge < config.gamma_edge * base[j]) {
          return;
        }
        double pair_acv =
            use_planes
                ? AcvPairKernel(planes_of(a), planes_of(b), planes_of(h),
                                m, k, word_scratch.data())
                : AcvPairKernel(db.column(a).data(), db.column(b).data(),
                                head_cols[j], m, k, pair_scratch.data());
        if (pair_acv >= config.gamma_hyper * best_edge) {
          out.kept_pairs.push_back(PairVerdict{a, b, pair_acv});
        }
      };
      if (config.restrict_pairs_to_edges) {
        const std::vector<std::pair<VertexId, double>>& sources =
            out.kept_edges;
        for (size_t i = 0; i < sources.size(); ++i) {
          for (size_t l = i + 1; l < sources.size(); ++l) {
            consider(sources[i].first, sources[l].first);
          }
        }
      } else {
        for (size_t a = 0; a < n; ++a) {
          if (a == h) continue;
          for (size_t b = a + 1; b < n; ++b) {
            if (b == h) continue;
            consider(static_cast<VertexId>(a), static_cast<VertexId>(b));
          }
        }
      }
    }
  };

  const size_t threads =
      config.num_threads == 0
          ? (pool != nullptr ? pool->num_threads() + 1
                             : ThreadPool::HardwareThreads())
          : config.num_threads;
  if (threads <= 1 || num_blocks <= 1) {
    for (size_t b = 0; b < num_blocks; ++b) process_block(b);
  } else if (pool != nullptr) {
    // Caller-provided pool: no per-build thread spin-up. The calling
    // thread participates in ParallelFor alongside the pool's workers.
    pool->ParallelFor(num_blocks, process_block);
  } else {
    // The calling thread participates in ParallelFor, so a build with
    // `threads` workers runs on a pool of threads - 1.
    ThreadPool local_pool(threads - 1);
    local_pool.ParallelFor(num_blocks, process_block);
  }

  // Phase 2 (serial merge): replay the per-head buffers in head order —
  // first every head's directed edges, then every head's 2-to-1 edges —
  // matching the serial build's insertion order and floating-point
  // accumulation order bit for bit.
  local.edge_candidates = n * (n - 1);
  size_t kept = 0;
  for (const HeadVerdicts& verdicts : per_head) {
    kept += verdicts.kept_edges.size() + verdicts.kept_pairs.size();
  }
  graph.ReserveEdges(kept);
  double edge_acv_sum = 0.0;
  for (size_t h = 0; h < n; ++h) {
    for (const auto& [a, acv] : per_head[h].kept_edges) {
      HM_ASSIGN_OR_RETURN(
          EdgeId id, graph.AddEdge({a}, static_cast<VertexId>(h), acv));
      (void)id;
      edge_acv_sum += acv;
      ++local.edges_kept;
    }
  }
  double pair_acv_sum = 0.0;
  for (size_t h = 0; h < n; ++h) {
    local.pair_candidates += per_head[h].pair_candidates;
    for (const PairVerdict& p : per_head[h].kept_pairs) {
      HM_RETURN_IF_ERROR(
          graph.AddEdge({p.a, p.b}, static_cast<VertexId>(h), p.acv)
              .status());
      pair_acv_sum += p.acv;
      ++local.pairs_kept;
    }
  }

  local.mean_edge_acv = local.edges_kept == 0
                            ? 0.0
                            : edge_acv_sum / static_cast<double>(
                                                 local.edges_kept);
  local.mean_pair_acv =
      local.pairs_kept == 0
          ? 0.0
          : pair_acv_sum / static_cast<double>(local.pairs_kept);
  local.elapsed_seconds = timer.ElapsedSeconds();
  if (stats != nullptr) *stats = local;
  return graph;
}

}  // namespace hypermine::core
