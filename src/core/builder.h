#ifndef HYPERMINE_CORE_BUILDER_H_
#define HYPERMINE_CORE_BUILDER_H_

#include <string>

#include "core/database.h"
#include "core/hypergraph.h"
#include "core/value_planes.h"
#include "util/status.h"

namespace hypermine {
class ThreadPool;
}

namespace hypermine::core {

/// Parameters of association-hypergraph construction (Sections 3.2.1 and
/// 5.1.2). γ-significance (Definition 3.7): a combination (T, H) enters the
/// hypergraph iff ACV(T,H) >= γ * max_{v in T} ACV(T - {v}, H).
struct HypergraphConfig {
  /// |V| of the discretized database this config is used with.
  size_t k = 3;
  /// γ for directed edges (γ_{1→1}); the baseline is ACV(∅, {H}).
  double gamma_edge = 1.15;
  /// γ for 2-to-1 directed hyperedges (γ_{2→1}); the baseline is the best
  /// constituent directed edge.
  double gamma_hyper = 1.05;
  /// When true (default), 2-to-1 candidates are restricted to pairs of
  /// attributes that each formed a γ-significant directed edge into the
  /// head. This is the scalability choice explained in
  /// docs/architecture.md ("Building a model: the pipeline"); setting it
  /// false enumerates all attribute pairs (the literal reading of
  /// Section 3.2.1) at O(n^3 m) cost — see bench_ablation_candidates.
  bool restrict_pairs_to_edges = true;
  /// When true, also admits a 2-to-1 hyperedge whose constituent edges were
  /// themselves below the γ_edge bar, as long as the pair clears γ_hyper
  /// against them (only meaningful with restrict_pairs_to_edges = false).
  bool keep_pairs_without_edges = true;
  /// Worker threads for model construction; 0 = hardware concurrency,
  /// 1 = fully serial. Both parallel stages run on one pool: Stage 1 over
  /// blocks of heads, Stage 2 over tails. Any value produces a
  /// bit-identical hypergraph, stats, and CSV export: workers only fill
  /// per-head source lists and per-tail verdict lists, and a serial merge
  /// inserts edges in the serial-build order (covered by
  /// tests/core/builder_parallel_test.cc).
  size_t num_threads = 0;
};

/// Configuration C1 of Section 5.1.2: k=3, γ_{1→1}=1.15, γ_{2→1}=1.05.
HypergraphConfig ConfigC1();
/// Configuration C2 of Section 5.1.2: k=5, γ_{1→1}=1.20, γ_{2→1}=1.12.
HypergraphConfig ConfigC2();

/// Number of heads per cache-blocked group of Stage 1 (directed edges):
/// large enough to amortize tail scans across the block, small enough that
/// the block's contingency tables (or head planes) stay cache-resident.
/// Exposed for bench_build_throughput, which mirrors the builder's
/// blocking in its kernel comparison.
size_t BuildHeadBlockSize(size_t k);

/// Construction statistics mirrored against Section 5.1.2's reported model
/// sizes (106,475 directed edges with mean ACV 0.436 under C1, etc.).
struct BuildStats {
  size_t edge_candidates = 0;
  size_t edges_kept = 0;
  size_t pair_candidates = 0;
  size_t pairs_kept = 0;
  double mean_edge_acv = 0.0;
  double mean_pair_acv = 0.0;
  double elapsed_seconds = 0.0;
  /// Wall time of each build phase, in order: packing the value planes,
  /// Stage 1 (directed edges), Stage 2 (2-to-1 candidates) and the serial
  /// merge. Their sum is at most elapsed_seconds.
  double pack_s = 0.0;
  double stage1_s = 0.0;
  double stage2_s = 0.0;
  double merge_s = 0.0;

  std::string ToString() const;
};

/// Builds the association hypergraph H for database `db` (Section 3.2.1):
/// evaluates every directed-edge combination ({A}, {B}) and the 2-to-1
/// candidates, keeping γ-significant ones weighted by their ACV. The
/// database's value count must equal config.k. `stats` is optional.
///
/// `pool` is an optional caller-provided worker pool: workloads building
/// many models back to back (year-sliced sweeps, api::Model registries)
/// pass one shared pool instead of paying thread spin-up per build. When
/// null and the build is parallel, a pool is created for the call. With a
/// pool, config.num_threads only picks serial vs parallel: 1 forces a
/// fully serial build, any other value (including explicit counts >= 2)
/// runs on the pool's full width — the pool owner sized it, so the pool,
/// not the config, is the resource contract. The result is bit-identical
/// in every case.
///
/// `planes` optionally supplies pre-packed value planes (PackDatabasePlanes
/// or a serve::PlaneCache hit) so γ-sweeps over one database skip the
/// per-build packing pass. The artifact must Match the database —
/// kInvalidArgument otherwise, reuse of stale planes is never silent. Only
/// consulted on the small-k plane path (k <= kMaxPlaneKernelValues);
/// ignored on the byte-kernel path. Passing planes never changes the
/// result: packed planes are a pure re-coding of the columns.
StatusOr<DirectedHypergraph> BuildAssociationHypergraph(
    const Database& db, const HypergraphConfig& config,
    BuildStats* stats = nullptr, ThreadPool* pool = nullptr,
    const ValuePlanes* planes = nullptr);

}  // namespace hypermine::core

#endif  // HYPERMINE_CORE_BUILDER_H_
