#include "core/builder.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "core/assoc_table.h"
#include "core/simd.h"
#include "util/stopwatch.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace hypermine::core {

namespace {

/// Stage 1's output for one head h: its candidate sources, the tails a
/// whose directed edge ({a}, {h}) Stage 2 pairs up. With
/// restrict_pairs_to_edges these are exactly the γ-significant edges into
/// h; otherwise every a != h (the all-pairs ablation).
struct HeadSources {
  /// Tail ids, ascending.
  std::vector<VertexId> tails;
  /// acv[i] = ACV({tails[i]}, {h}).
  std::vector<double> acv;
  /// slot[i] = position of h among the heads of tails[i] (TailHeads).
  std::vector<uint32_t> slot;
};

/// Every head's sources regrouped by tail, the layout Stage 2 reads: the
/// slots [begin[a], begin[a + 1]) of tail a are the heads it is a
/// candidate source of, ascending. The candidates of a tail pair walk both
/// tails' slots in order, so the per-edge data they read streams.
struct TailHeads {
  std::vector<size_t> begin;
  std::vector<VertexId> head;
  /// Position of the tail in the head's HeadSources.
  std::vector<uint32_t> position;
  /// ACV({tail}, {head}).
  std::vector<double> acv;
  /// The k×k contingency table of (tail, head) at tables[slot * k * k]
  /// (EdgeTableKernel); plane path only.
  std::vector<uint32_t> tables;
};

/// A γ-significant 2-to-1 candidate ({a, b}, {h}), held by the Stage-2
/// task of tail a until the serial merge.
struct PairVerdict {
  /// Position of h among a's head slots.
  uint32_t slot = 0;
  VertexId b = 0;
  double acv = 0.0;
};

/// What the Stage-2 task of tail a hands to the merge.
struct TailVerdicts {
  /// Sorted by (slot, b): each head's pairs with tail a in b order.
  std::vector<PairVerdict> kept;
  size_t pair_candidates = 0;
};

/// One 2-to-1 candidate ({a, b}, {h}) of the current tail a.
struct PairCandidate {
  /// Position of h among a's head slots.
  uint32_t a_slot = 0;
  /// Position of h among b's head slots.
  uint32_t b_slot = 0;
};

/// A Stage-2 worker's buffers, reused across the tails it takes.
struct PairScratch {
  /// Per partner b: its candidate count, then its fill cursor; all zero
  /// between tails.
  std::vector<size_t> fill;
  /// The partners b > a that share a head with a, ascending.
  std::vector<VertexId> partners;
  /// partners[g]'s candidates are candidates[group_begin[g],
  /// group_begin[g + 1]), heads ascending.
  std::vector<size_t> group_begin;
  std::vector<PairCandidate> candidates;
  /// Kept pairs in (b, slot) order, before the sort by slot.
  std::vector<PairVerdict> found;
  std::vector<size_t> slot_begin;
  std::vector<uint64_t> joint;
  std::vector<uint32_t> joint_counts;
  std::vector<size_t> byte_counts;
};

}  // namespace

// Stage 1 evaluates heads in cache-blocked groups: AcvEdgeBlockKernel scans
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
      "2-to-1: %zu kept of %zu candidates (mean ACV %.3f); %.2fs "
      "(pack %.3fs, stage 1 %.3fs, stage 2 %.3fs, merge %.3fs)",
      edges_kept, edge_candidates, mean_edge_acv, pairs_kept,
      pair_candidates, mean_pair_acv, elapsed_seconds, pack_s, stage1_s,
      stage2_s, merge_s);
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
  // Written so that a NaN γ fails too: every comparison with NaN is false.
  if (!(config.gamma_edge >= 1.0) || !(config.gamma_hyper >= 1.0)) {
    return Status::InvalidArgument("builder: gamma must be >= 1");
  }
  const size_t n = db.num_attributes();
  const size_t m = db.num_observations();
  const size_t k = db.num_values();

  Stopwatch timer;
  BuildStats local;
  HM_ASSIGN_OR_RETURN(DirectedHypergraph graph,
                      DirectedHypergraph::Create(db.attribute_names()));

  // One pool serves both stages. The calling thread participates in
  // ParallelFor, so a build with `threads` workers that makes its own pool
  // makes one of threads - 1, once.
  const size_t threads =
      config.num_threads == 0
          ? (pool != nullptr ? pool->num_threads() + 1
                             : ThreadPool::HardwareThreads())
          : config.num_threads;
  std::unique_ptr<ThreadPool> owned_pool;
  ThreadPool* workers = nullptr;
  if (threads > 1 && n > 1) {
    if (pool == nullptr) {
      owned_pool = std::make_unique<ThreadPool>(threads - 1);
      pool = owned_pool.get();
    }
    workers = pool;
  }
  auto run = [workers](size_t count, const std::function<void(size_t)>& body) {
    if (workers == nullptr) {
      for (size_t i = 0; i < count; ++i) body(i);
    } else {
      workers->ParallelFor(count, body);
    }
  };
  Stopwatch phase;

  // For small k, every column is re-coded once as bit planes and both
  // stages count via AND+popcount; large k keeps the byte kernels. Both
  // paths are exact-integer, hence interchangeable bit for bit. A
  // caller-provided `planes` artifact (γ-sweeps, serve::PlaneCache)
  // replaces the packing pass after a content check; the packed words are
  // identical either way. The plane path's tables count in 32 bits.
  const bool use_planes = k <= kMaxPlaneKernelValues &&
                          m <= std::numeric_limits<uint32_t>::max();
  const simd::Ops& ops = simd::ActiveOps();
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
  auto column_of = [&](size_t a) {
    return db.column(static_cast<AttrId>(a)).data();
  };
  local.pack_s = phase.ElapsedSeconds();
  phase.Reset();

  // Stage 1 (parallel over cache-blocked groups of heads): every directed
  // edge ({a}, {h}) is judged, and each head keeps its candidate sources
  // for Stage 2. edge_bar[h] = γ_edge · ACV(∅, {h}) is Definition 3.7's
  // bar for |T| = 1. A head's output depends only on the database and
  // config, never on scheduling.
  std::vector<HeadSources> sources(n);
  std::vector<double> edge_bar(n);
  const size_t block = BuildHeadBlockSize(k);
  const size_t num_blocks = (n + block - 1) / block;
  auto process_block = [&](size_t block_index) {
    const size_t h0 = block_index * block;
    const size_t width = std::min(n, h0 + block) - h0;

    // Fused: one pass per tail fills the whole block's k×k contingency
    // tables; the block's head planes (or columns) stay cache-resident
    // across all n tails. acv[a * width + j] = ACV({a}, {h0 + j}).
    std::vector<double> acv(n * width, 0.0);
    if (use_planes) {
      std::vector<const uint64_t*> head_planes(width);
      for (size_t j = 0; j < width; ++j) head_planes[j] = planes_of(h0 + j);
      for (size_t a = 0; a < n; ++a) {
        AcvEdgeBlockKernel(planes_of(a), head_planes.data(), width, m, k,
                           ops, &acv[a * width]);
      }
    } else {
      std::vector<const ValueId*> head_cols(width);
      for (size_t j = 0; j < width; ++j) head_cols[j] = column_of(h0 + j);
      std::vector<size_t> scratch(AcvEdgeBlockScratchSize(width, k));
      for (size_t a = 0; a < n; ++a) {
        AcvEdgeBlockKernel(column_of(a), head_cols.data(), width, m, k,
                           scratch.data(), &acv[a * width]);
      }
    }
    for (size_t j = 0; j < width; ++j) {
      const size_t h = h0 + j;
      // BaseAcv cannot fail here: h is in range and m > 0.
      edge_bar[h] = config.gamma_edge * *BaseAcv(db, static_cast<AttrId>(h));
      HeadSources& out = sources[h];
      for (size_t a = 0; a < n; ++a) {
        if (a == h) continue;
        const double edge_acv = acv[a * width + j];
        if (config.restrict_pairs_to_edges && !(edge_acv >= edge_bar[h])) {
          continue;
        }
        out.tails.push_back(static_cast<VertexId>(a));
        out.acv.push_back(edge_acv);
      }
    }
  };
  run(num_blocks, process_block);
  local.stage1_s = phase.ElapsedSeconds();
  phase.Reset();

  // Stage 2 (parallel over tails a): the 2-to-1 candidates ({a, b}, {h})
  // with a < b are the heads h that have both a and b among their
  // candidate sources. They are visited pair-major, so the joint planes of
  // (a, b) are formed once and reused for every shared head.
  TailHeads heads;
  heads.begin.assign(n + 1, 0);
  for (const HeadSources& src : sources) {
    for (VertexId a : src.tails) ++heads.begin[a + 1];
  }
  for (size_t a = 0; a < n; ++a) heads.begin[a + 1] += heads.begin[a];
  const size_t num_slots_total = heads.begin[n];
  heads.head.resize(num_slots_total);
  heads.position.resize(num_slots_total);
  heads.acv.resize(num_slots_total);
  {
    std::vector<size_t> next(heads.begin.begin(), heads.begin.end() - 1);
    for (size_t h = 0; h < n; ++h) {
      HeadSources& src = sources[h];
      src.slot.resize(src.tails.size());
      for (size_t i = 0; i < src.tails.size(); ++i) {
        const VertexId a = src.tails[i];
        const size_t slot = next[a]++;
        heads.head[slot] = static_cast<VertexId>(h);
        heads.position[slot] = static_cast<uint32_t>(i);
        heads.acv[slot] = src.acv[i];
        src.slot[i] = static_cast<uint32_t>(slot - heads.begin[a]);
      }
    }
  }
  const size_t table_size = k * k;
  if (use_planes) {
    heads.tables.resize(num_slots_total * table_size);
    run(n, [&](size_t a) {
      for (size_t slot = heads.begin[a]; slot < heads.begin[a + 1]; ++slot) {
        EdgeTableKernel(planes_of(a), planes_of(heads.head[slot]), m, k, ops,
                        &heads.tables[slot * table_size]);
      }
    });
  }

  std::vector<TailVerdicts> verdicts(n);
  auto judge_tail = [&](size_t a, PairScratch& s) {
    const size_t first = heads.begin[a];
    const size_t num_slots = heads.begin[a + 1] - first;
    // Every candidate of tail a: for each head h of a, the sources of h
    // after a (the tails of a HeadSources are ascending).
    auto for_each_candidate = [&](auto&& visit) {
      for (size_t slot = 0; slot < num_slots; ++slot) {
        const HeadSources& src = sources[heads.head[first + slot]];
        for (size_t i = heads.position[first + slot] + 1; i < src.tails.size();
             ++i) {
          visit(slot, src.slot[i], src.tails[i]);
        }
      }
    };
    // Group the candidates by partner b, heads ascending within a group:
    // count, lay the groups out in b order, then fill.
    s.partners.clear();
    for_each_candidate([&](size_t, uint32_t, VertexId b) {
      if (s.fill[b]++ == 0) s.partners.push_back(b);
    });
    std::sort(s.partners.begin(), s.partners.end());
    s.group_begin.resize(s.partners.size() + 1);
    size_t total = 0;
    for (size_t g = 0; g < s.partners.size(); ++g) {
      s.group_begin[g] = total;
      total += s.fill[s.partners[g]];
      s.fill[s.partners[g]] = s.group_begin[g];
    }
    s.group_begin.back() = total;
    s.candidates.resize(total);
    for_each_candidate([&](size_t a_slot, uint32_t b_slot, VertexId b) {
      s.candidates[s.fill[b]++] =
          PairCandidate{static_cast<uint32_t>(a_slot), b_slot};
    });
    for (VertexId b : s.partners) s.fill[b] = 0;

    s.found.clear();
    for (size_t g = 0; g < s.partners.size(); ++g) {
      const VertexId b = s.partners[g];
      const size_t first_b = heads.begin[b];
      if (use_planes) {
        PairJointPlanes(planes_of(a), planes_of(b), m, k, ops, s.joint.data(),
                        s.joint_counts.data());
      }
      for (size_t c = s.group_begin[g]; c < s.group_begin[g + 1]; ++c) {
        const size_t a_slot = first + s.candidates[c].a_slot;
        const size_t b_slot = first_b + s.candidates[c].b_slot;
        const VertexId h = heads.head[a_slot];
        const double best_edge = std::max(heads.acv[a_slot], heads.acv[b_slot]);
        if (!config.keep_pairs_without_edges && best_edge < edge_bar[h]) {
          continue;
        }
        const double pair_acv =
            use_planes
                ? AcvPairMarginalKernel(
                      s.joint.data(), s.joint_counts.data(), planes_of(h),
                      &heads.tables[a_slot * table_size],
                      &heads.tables[b_slot * table_size], m, k, ops)
                : AcvPairKernel(column_of(a), column_of(b), column_of(h), m,
                                k, s.byte_counts.data());
        if (pair_acv >= config.gamma_hyper * best_edge) {
          s.found.push_back(
              PairVerdict{s.candidates[c].a_slot, b, pair_acv});
        }
      }
    }

    // Stable counting sort by slot: (b, slot) order becomes (slot, b).
    TailVerdicts& out = verdicts[a];
    out.pair_candidates = total;
    if (s.found.empty()) return;
    s.slot_begin.assign(num_slots + 1, 0);
    for (const PairVerdict& v : s.found) ++s.slot_begin[v.slot + 1];
    for (size_t slot = 0; slot < num_slots; ++slot) {
      s.slot_begin[slot + 1] += s.slot_begin[slot];
    }
    out.kept.resize(s.found.size());
    for (const PairVerdict& v : s.found) out.kept[s.slot_begin[v.slot]++] = v;
  };
  const size_t num_workers =
      workers == nullptr ? 1 : std::min(n, workers->num_threads() + 1);
  std::atomic<size_t> next_tail{0};
  run(num_workers, [&](size_t) {
    PairScratch scratch;
    scratch.fill.assign(n, 0);
    if (use_planes) {
      scratch.joint.resize(PairJointWords(k, m));
      scratch.joint_counts.resize((k - 1) * (k - 1));
    } else {
      scratch.byte_counts.resize(AcvPairScratchSize(k));
    }
    for (size_t a = next_tail++; a < n; a = next_tail++) judge_tail(a, scratch);
  });
  local.stage2_s = phase.ElapsedSeconds();
  phase.Reset();

  // Serial merge: first every head's directed edges, then every head's
  // 2-to-1 edges in (a, b) order — the insertion order and floating-point
  // accumulation order of a serial per-head scan, bit for bit. Heads come
  // in ascending order and so do a tail's slots, so one cursor per tail
  // walks its kept pairs.
  local.edge_candidates = n * (n - 1);
  size_t kept = 0;
  for (size_t h = 0; h < n; ++h) {
    for (double acv : sources[h].acv) kept += acv >= edge_bar[h];
  }
  for (const TailVerdicts& v : verdicts) kept += v.kept.size();
  graph.ReserveEdges(kept);
  double edge_acv_sum = 0.0;
  for (size_t h = 0; h < n; ++h) {
    const HeadSources& src = sources[h];
    for (size_t i = 0; i < src.tails.size(); ++i) {
      if (!(src.acv[i] >= edge_bar[h])) continue;
      HM_RETURN_IF_ERROR(
          graph.AddEdge({src.tails[i]}, static_cast<VertexId>(h), src.acv[i])
              .status());
      edge_acv_sum += src.acv[i];
      ++local.edges_kept;
    }
  }
  double pair_acv_sum = 0.0;
  std::vector<size_t> next_kept(n, 0);
  for (size_t h = 0; h < n; ++h) {
    const HeadSources& src = sources[h];
    for (size_t t = 0; t < src.tails.size(); ++t) {
      const VertexId a = src.tails[t];
      const uint32_t slot = src.slot[t];
      const std::vector<PairVerdict>& pairs = verdicts[a].kept;
      for (size_t& i = next_kept[a]; i < pairs.size() && pairs[i].slot == slot;
           ++i) {
        HM_RETURN_IF_ERROR(graph
                               .AddEdge({a, pairs[i].b},
                                        static_cast<VertexId>(h), pairs[i].acv)
                               .status());
        pair_acv_sum += pairs[i].acv;
        ++local.pairs_kept;
      }
    }
  }
  for (const TailVerdicts& v : verdicts) {
    local.pair_candidates += v.pair_candidates;
  }

  local.mean_edge_acv = local.edges_kept == 0
                            ? 0.0
                            : edge_acv_sum / static_cast<double>(
                                                 local.edges_kept);
  local.mean_pair_acv =
      local.pairs_kept == 0
          ? 0.0
          : pair_acv_sum / static_cast<double>(local.pairs_kept);
  local.merge_s = phase.ElapsedSeconds();
  local.elapsed_seconds = timer.ElapsedSeconds();
  if (stats != nullptr) *stats = local;
  return graph;
}

}  // namespace hypermine::core
