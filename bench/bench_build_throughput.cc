// Model-construction throughput harness (ISSUE 2): wall time of serial vs
// parallel BuildAssociationHypergraph with its per-phase split (pack,
// stage 1, stage 2, merge from BuildStats), candidate-evaluation rate, and
// the fused-vs-per-pair edge-kernel speedup, on a synthetic correlated
// database. Emits BENCH_build.json so the construction-path perf
// trajectory is tracked the same way BENCH_serve.json tracks serving.
//
//   ./bench_build_throughput [--attrs=192] [--rows=4000] [--k=3]
//       [--threads=0 (hardware)] [--repeat=3] [--out=BENCH_build.json]
//       [--smoke] [--simd=scalar|avx2|avx512] [--export-csv=PATH]
//       [--large] [--large-attrs=100000] [--large-rows=256]
//
// --smoke shrinks the workload to CI scale and checks correctness only
// (serial/parallel bit-identity, fused-kernel agreement); speedups are
// reported, never asserted — a 1-core container legitimately shows ~1x.
//
// --simd forces the kernel dispatch tier for the whole run; every
// supported tier is additionally timed (and checked bit-identical) in the
// stage-1 kernel comparison regardless. --export-csv writes the serial
// build's hypergraph CSV, the artifact CI diffs across --simd runs.
//
// --large adds the wide-id workload: a >=100k-attribute database (well
// past the old 0xFFFE-vertex cap) with per-tier sampled stage-1
// candidate throughput, the plane-artifact pack-vs-reuse speedup, and a
// wide-graph snapshot round-trip.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "build_info.h"
#include "common.h"
#include "core/assoc_table.h"
#include "core/builder.h"
#include "core/discretize.h"
#include "core/export.h"
#include "core/simd.h"
#include "core/value_planes.h"
#include "serve/plane_artifact.h"
#include "serve/snapshot.h"
#include "util/csv.h"
#include "util/flags.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace hypermine {
namespace {

/// Synthetic database with both single-attribute correlation (copies, so
/// directed edges clear γ) and two-parent structure (sum of the previous
/// two attributes mod k, which neither parent predicts alone, so 2-to-1
/// candidates beat their constituent edges) — both builder stages do real
/// work.
core::Database MakeDatabase(size_t n, size_t m, size_t k, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<core::ValueId>> columns(
      n, std::vector<core::ValueId>(m));
  std::vector<std::string> names;
  names.reserve(n);
  for (size_t a = 0; a < n; ++a) names.push_back("X" + std::to_string(a));
  for (size_t o = 0; o < m; ++o) {
    for (size_t a = 0; a < n; ++a) {
      double r = rng.NextDouble();
      if (a >= 2 && r < 0.45) {
        columns[a][o] = static_cast<core::ValueId>(
            (columns[a - 1][o] + columns[a - 2][o]) % k);
      } else if (a >= 1 && r < 0.7) {
        columns[a][o] = columns[a - 1][o];
      } else {
        columns[a][o] = static_cast<core::ValueId>(rng.NextBounded(k));
      }
    }
  }
  auto db = core::DatabaseFromColumns(std::move(names), k, columns);
  HM_CHECK_OK(db.status());
  return std::move(db).value();
}

/// Best-of-`repeat` build wall time; the graph/stats of the last run are
/// returned for the bit-identity check.
double TimedBuild(const core::Database& db, core::HypergraphConfig config,
                  size_t repeat, core::DirectedHypergraph* out_graph,
                  core::BuildStats* out_stats) {
  double best = 0.0;
  for (size_t r = 0; r < repeat; ++r) {
    Stopwatch timer;
    auto graph = core::BuildAssociationHypergraph(db, config, out_stats);
    double seconds = timer.ElapsedSeconds();
    HM_CHECK_OK(graph.status());
    if (r == 0 || seconds < best) best = seconds;
    if (r + 1 == repeat) *out_graph = std::move(graph).value();
  }
  return best;
}

/// The build's phase times as JSON members, from the last timed repeat.
std::string PhaseJson(const core::BuildStats& stats) {
  return StrFormat(
      "\"pack_s\": %.6f, \"stage1_s\": %.6f, \"stage2_s\": %.6f, "
      "\"merge_s\": %.6f",
      stats.pack_s, stats.stage1_s, stats.stage2_s, stats.merge_s);
}

void CheckIdentical(const core::DirectedHypergraph& a,
                    const core::DirectedHypergraph& b,
                    const core::BuildStats& sa, const core::BuildStats& sb) {
  HM_CHECK_EQ(a.num_edges(), b.num_edges());
  for (core::EdgeId id = 0; id < a.num_edges(); ++id) {
    const core::Hyperedge& ea = a.edge(id);
    const core::Hyperedge& eb = b.edge(id);
    HM_CHECK_EQ(ea.head, eb.head);
    HM_CHECK_EQ(ea.tail[0], eb.tail[0]);
    HM_CHECK_EQ(ea.tail[1], eb.tail[1]);
    HM_CHECK_EQ(ea.weight, eb.weight);
  }
  HM_CHECK_EQ(sa.edges_kept, sb.edges_kept);
  HM_CHECK_EQ(sa.pairs_kept, sb.pairs_kept);
  HM_CHECK_EQ(sa.pair_candidates, sb.pair_candidates);
  HM_CHECK_EQ(sa.mean_edge_acv, sb.mean_edge_acv);
  HM_CHECK_EQ(sa.mean_pair_acv, sb.mean_pair_acv);
}

struct TierTiming {
  const char* tier = "";
  /// Plane block kernel pass over the full stage-1 matrix (packing
  /// excluded — the per-tier comparison isolates the kernel itself).
  double plane_ms = 0.0;
  double speedup_vs_scalar = 0.0;
};

struct KernelStats {
  double per_pair_ms = 0.0;
  double fused_byte_ms = 0.0;
  /// The builder's fast path: bit-plane packing + plane block kernel
  /// (packing time included), on the active dispatch tier.
  double fused_ms = 0.0;
  double speedup = 0.0;
  /// One entry per simd::SupportedTiers() member, in ascending tier
  /// order; empty when k is beyond the plane-kernel regime.
  std::vector<TierTiming> tiers;
};

/// Times the full n×n stage-1 ACV matrix three ways — per-pair
/// AcvEdgeKernel calls, the fused byte block kernel, and the fused
/// bit-plane block kernel (the builder's small-k fast path, timed
/// including PackValuePlanes) — verifying all agree bit-exactly. For
/// k > kMaxPlaneKernelValues the plane pass is skipped (the builder
/// wouldn't use it either) and the byte block kernel is the fused path.
KernelStats RunKernelComparison(const core::Database& db, size_t repeat) {
  const size_t n = db.num_attributes();
  const size_t m = db.num_observations();
  const size_t k = db.num_values();
  const size_t block = core::BuildHeadBlockSize(k);
  const bool use_planes = k <= core::kMaxPlaneKernelValues;

  std::vector<double> per_pair(n * n, 0.0);
  std::vector<double> fused_byte(n * n, 0.0);
  std::vector<double> fused_plane(n * n, 0.0);

  KernelStats stats;
  for (size_t r = 0; r < repeat; ++r) {
    Stopwatch unfused_timer;
    for (size_t h = 0; h < n; ++h) {
      const core::ValueId* head_col =
          db.column(static_cast<core::AttrId>(h)).data();
      for (size_t a = 0; a < n; ++a) {
        if (a == h) continue;
        per_pair[a * n + h] = core::AcvEdgeKernel(
            db.column(static_cast<core::AttrId>(a)).data(), head_col, m, k);
      }
    }
    double unfused_ms = unfused_timer.ElapsedMillis();

    Stopwatch byte_timer;
    {
      std::vector<size_t> scratch(core::AcvEdgeBlockScratchSize(block, k));
      std::vector<const core::ValueId*> heads(block);
      std::vector<double> out(block);
      for (size_t h0 = 0; h0 < n; h0 += block) {
        const size_t width = std::min(block, n - h0);
        for (size_t j = 0; j < width; ++j) {
          heads[j] = db.column(static_cast<core::AttrId>(h0 + j)).data();
        }
        for (size_t a = 0; a < n; ++a) {
          core::AcvEdgeBlockKernel(
              db.column(static_cast<core::AttrId>(a)).data(), heads.data(),
              width, m, k, scratch.data(), out.data());
          for (size_t j = 0; j < width; ++j) {
            fused_byte[a * n + h0 + j] = out[j];
          }
        }
      }
    }
    double byte_ms = byte_timer.ElapsedMillis();

    Stopwatch plane_timer;
    if (use_planes) {
      const size_t per_col = core::ValuePlanesSize(k, m);
      std::vector<uint64_t> planes(n * per_col);
      for (size_t a = 0; a < n; ++a) {
        core::PackValuePlanes(db.column(static_cast<core::AttrId>(a)).data(),
                              m, k, &planes[a * per_col]);
      }
      std::vector<const uint64_t*> heads(block);
      std::vector<double> out(block);
      for (size_t h0 = 0; h0 < n; h0 += block) {
        const size_t width = std::min(block, n - h0);
        for (size_t j = 0; j < width; ++j) {
          heads[j] = &planes[(h0 + j) * per_col];
        }
        for (size_t a = 0; a < n; ++a) {
          core::AcvEdgeBlockKernel(&planes[a * per_col], heads.data(),
                                   width, m, k, out.data());
          for (size_t j = 0; j < width; ++j) {
            fused_plane[a * n + h0 + j] = out[j];
          }
        }
      }
    }
    double plane_ms = use_planes ? plane_timer.ElapsedMillis() : byte_ms;

    if (r == 0 || unfused_ms < stats.per_pair_ms) {
      stats.per_pair_ms = unfused_ms;
    }
    if (r == 0 || byte_ms < stats.fused_byte_ms) {
      stats.fused_byte_ms = byte_ms;
    }
    if (r == 0 || plane_ms < stats.fused_ms) stats.fused_ms = plane_ms;
  }

  for (size_t h = 0; h < n; ++h) {
    for (size_t a = 0; a < n; ++a) {
      if (a == h) continue;
      HM_CHECK_EQ(per_pair[a * n + h], fused_byte[a * n + h]);
      if (use_planes) {
        HM_CHECK_EQ(per_pair[a * n + h], fused_plane[a * n + h]);
      }
    }
  }
  stats.speedup =
      stats.fused_ms > 0.0 ? stats.per_pair_ms / stats.fused_ms : 0.0;

  // Per-tier plane kernel pass: every dispatch tier this host supports is
  // timed on the same matrix and checked bit-identical against the
  // per-pair oracle (packing happens once, outside the timers).
  if (use_planes) {
    const size_t per_col = core::ValuePlanesSize(k, m);
    std::vector<uint64_t> planes(n * per_col);
    for (size_t a = 0; a < n; ++a) {
      core::PackValuePlanes(db.column(static_cast<core::AttrId>(a)).data(),
                            m, k, &planes[a * per_col]);
    }
    std::vector<const uint64_t*> heads(block);
    std::vector<double> out(block);
    std::vector<double> tier_acv(n * n, 0.0);
    for (core::simd::Tier tier : core::simd::SupportedTiers()) {
      const core::simd::Ops& ops = core::simd::OpsForTier(tier);
      TierTiming timing;
      timing.tier = ops.name;
      for (size_t r = 0; r < repeat; ++r) {
        Stopwatch timer;
        for (size_t h0 = 0; h0 < n; h0 += block) {
          const size_t width = std::min(block, n - h0);
          for (size_t j = 0; j < width; ++j) {
            heads[j] = &planes[(h0 + j) * per_col];
          }
          for (size_t a = 0; a < n; ++a) {
            core::AcvEdgeBlockKernel(&planes[a * per_col], heads.data(),
                                     width, m, k, ops, out.data());
            for (size_t j = 0; j < width; ++j) {
              tier_acv[a * n + h0 + j] = out[j];
            }
          }
        }
        double ms = timer.ElapsedMillis();
        if (r == 0 || ms < timing.plane_ms) timing.plane_ms = ms;
      }
      for (size_t h = 0; h < n; ++h) {
        for (size_t a = 0; a < n; ++a) {
          if (a != h) HM_CHECK_EQ(per_pair[a * n + h], tier_acv[a * n + h]);
        }
      }
      stats.tiers.push_back(timing);
    }
    const double scalar_ms = stats.tiers.front().plane_ms;
    for (TierTiming& timing : stats.tiers) {
      timing.speedup_vs_scalar =
          timing.plane_ms > 0.0 ? scalar_ms / timing.plane_ms : 0.0;
    }
  }
  return stats;
}

struct LargeTierThroughput {
  const char* tier = "";
  double candidates_per_sec = 0.0;
};

struct LargeStats {
  size_t attrs = 0;
  size_t rows = 0;
  size_t sampled_tails = 0;
  size_t sampled_heads = 0;
  double pack_ms = 0.0;
  double reuse_lookup_ms = 0.0;
  /// Per-sweep-iteration cost ratio: (pack + kernels) / (reuse + kernels)
  /// on the active tier — what a gamma sweep over this database saves per
  /// build by reusing the plane artifact.
  double pack_reuse_speedup = 0.0;
  std::vector<LargeTierThroughput> tiers;
  bool wide_snapshot_ok = false;
};

/// The >=100k-vertex workload. A full O(n^2) stage-1 pass over 100k
/// attributes is ~1e10 candidate evaluations — days on one core — so the
/// per-tier throughput is measured on a sampled slice (every sample size
/// is reported; nothing is silently capped) while packing, artifact reuse,
/// and the wide-id graph/snapshot round-trip run on the full database.
LargeStats RunLargeMode(size_t attrs, size_t rows, size_t k,
                        size_t repeat) {
  HM_CHECK_GT(attrs, 0xFFFEu);  // the point is to exceed the old cap
  HM_CHECK_LE(k, core::kMaxPlaneKernelValues);
  LargeStats stats;
  stats.attrs = attrs;
  stats.rows = rows;

  std::printf("large mode: generating %zu attrs x %zu rows...\n", attrs,
              rows);
  core::Database db = MakeDatabase(attrs, rows, k, 20120402);

  // Pack-vs-reuse through the serve-layer cache: the first lookup packs,
  // the second hits the in-memory artifact.
  serve::PlaneCache cache;
  Stopwatch pack_timer;
  std::shared_ptr<const core::ValuePlanes> planes = cache.GetOrPack(db);
  stats.pack_ms = pack_timer.ElapsedMillis();
  Stopwatch reuse_timer;
  planes = cache.GetOrPack(db);
  stats.reuse_lookup_ms = reuse_timer.ElapsedMillis();
  HM_CHECK_EQ(cache.stats().packs, size_t{1});
  HM_CHECK_EQ(cache.stats().memory_hits, size_t{1});

  // Sampled stage-1 slice: a handful of tails against a head prefix.
  stats.sampled_tails = std::min<size_t>(32, attrs);
  stats.sampled_heads = std::min<size_t>(4096, attrs);
  const size_t m = db.num_observations();
  const size_t block = core::BuildHeadBlockSize(k);
  std::vector<const uint64_t*> heads(block);
  std::vector<double> out(block);
  std::vector<double> scalar_acv(stats.sampled_tails * stats.sampled_heads);
  double active_kernel_ms = 0.0;
  for (core::simd::Tier tier : core::simd::SupportedTiers()) {
    const core::simd::Ops& ops = core::simd::OpsForTier(tier);
    std::vector<double> tier_acv(stats.sampled_tails * stats.sampled_heads);
    double best_ms = 0.0;
    for (size_t r = 0; r < repeat; ++r) {
      Stopwatch timer;
      for (size_t h0 = 0; h0 < stats.sampled_heads; h0 += block) {
        const size_t width = std::min(block, stats.sampled_heads - h0);
        for (size_t j = 0; j < width; ++j) {
          heads[j] = planes->planes_of(h0 + j);
        }
        for (size_t t = 0; t < stats.sampled_tails; ++t) {
          core::AcvEdgeBlockKernel(planes->planes_of(t), heads.data(),
                                   width, m, k, ops, out.data());
          for (size_t j = 0; j < width; ++j) {
            tier_acv[t * stats.sampled_heads + h0 + j] = out[j];
          }
        }
      }
      double ms = timer.ElapsedMillis();
      if (r == 0 || ms < best_ms) best_ms = ms;
    }
    if (tier == core::simd::Tier::kScalar) {
      scalar_acv = tier_acv;
    } else {
      // Bit-identity across tiers, at scale.
      for (size_t i = 0; i < tier_acv.size(); ++i) {
        HM_CHECK_EQ(tier_acv[i], scalar_acv[i]);
      }
    }
    if (ops.tier == core::simd::ActiveOps().tier) {
      active_kernel_ms = best_ms;
    }
    const double candidates =
        static_cast<double>(stats.sampled_tails * stats.sampled_heads);
    stats.tiers.push_back(
        {ops.name, best_ms > 0.0 ? candidates / (best_ms / 1000.0) : 0.0});
  }
  stats.pack_reuse_speedup =
      (stats.reuse_lookup_ms + active_kernel_ms) > 0.0
          ? (stats.pack_ms + active_kernel_ms) /
                (stats.reuse_lookup_ms + active_kernel_ms)
          : 0.0;

  // Wide-id graph + snapshot round-trip: ids past the old 16-bit cap
  // index correctly and survive serialization.
  auto graph = core::DirectedHypergraph::CreateAnonymous(attrs);
  HM_CHECK_OK(graph.status());
  HM_CHECK_OK(graph->AddEdge({0}, 1, 0.25).status());
  HM_CHECK_OK(graph->AddEdge({0x10000}, 1, 0.75).status());
  HM_CHECK_OK(graph
                  ->AddEdge({0x10000, static_cast<core::VertexId>(attrs - 1)},
                            2, 0.5)
                  .status());
  const std::string snap = serve::SerializeSnapshot(*graph);
  auto reloaded = serve::DeserializeSnapshot(snap);
  HM_CHECK_OK(reloaded.status());
  core::VertexId wide_tail[] = {0x10000};
  auto found = reloaded->FindEdge(wide_tail, 1);
  HM_CHECK(found.has_value());
  HM_CHECK_EQ(reloaded->edge(*found).weight, 0.75);
  core::VertexId low_tail[] = {0};
  HM_CHECK_EQ(reloaded->edge(*reloaded->FindEdge(low_tail, 1)).weight, 0.25);
  stats.wide_snapshot_ok = true;
  return stats;
}

int Main(int argc, char** argv) {
  FlagParser flags;
  HM_CHECK_OK(flags.Parse(argc, argv));
  const bool smoke = flags.GetBool("smoke", false);
  auto positive = [&flags](const char* name, int64_t fallback) {
    int64_t value = flags.GetInt(name, fallback);
    HM_CHECK_GT(value, 0);
    return static_cast<size_t>(value);
  };
  const size_t attrs = positive("attrs", smoke ? 28 : 192);
  const size_t rows = positive("rows", smoke ? 500 : 4000);
  const size_t k = positive("k", 3);
  const size_t repeat = positive("repeat", smoke ? 1 : 3);
  const int64_t threads_flag = flags.GetInt("threads", 0);
  HM_CHECK_GE(threads_flag, 0);
  size_t threads = static_cast<size_t>(threads_flag);
  if (threads == 0) threads = ThreadPool::HardwareThreads();
  const std::string out_path = flags.GetString("out", "BENCH_build.json");
  const std::string export_csv = flags.GetString("export-csv", "");
  const bool large = flags.GetBool("large", false);
  const size_t large_attrs = positive("large-attrs", 100000);
  const size_t large_rows = positive("large-rows", 256);
  const char* simd = bench::ApplySimdFlag(flags);

  std::printf("bench_build_throughput: %zu attrs x %zu rows, k=%zu, "
              "%zu build threads (%zu hardware), repeat=%zu, simd=%s%s%s\n",
              attrs, rows, k, threads, ThreadPool::HardwareThreads(),
              repeat, simd, smoke ? ", --smoke" : "",
              large ? ", --large" : "");

  core::Database db = MakeDatabase(attrs, rows, k, 20120401);
  core::HypergraphConfig config = core::ConfigC1();
  config.k = k;

  core::DirectedHypergraph serial_graph =
      *core::DirectedHypergraph::CreateAnonymous(1);
  core::DirectedHypergraph parallel_graph =
      *core::DirectedHypergraph::CreateAnonymous(1);
  core::BuildStats serial_stats, parallel_stats;

  config.num_threads = 1;
  const double serial_s =
      TimedBuild(db, config, repeat, &serial_graph, &serial_stats);
  config.num_threads = threads;
  const double parallel_s =
      TimedBuild(db, config, repeat, &parallel_graph, &parallel_stats);

  // The headline guarantee: parallel output is bit-identical to serial.
  CheckIdentical(serial_graph, parallel_graph, serial_stats, parallel_stats);

  const size_t candidates =
      parallel_stats.edge_candidates + parallel_stats.pair_candidates;
  const double speedup = parallel_s > 0.0 ? serial_s / parallel_s : 0.0;
  const double cps =
      parallel_s > 0.0 ? static_cast<double>(candidates) / parallel_s : 0.0;

  KernelStats kernel = RunKernelComparison(db, repeat);

  std::printf("model: %zu directed edges + %zu pair edges from %zu "
              "candidates\n",
              serial_stats.edges_kept, serial_stats.pairs_kept, candidates);
  std::printf("%-28s %10s\n", "configuration", "seconds");
  std::printf("%-28s %10.3f\n", "serial (1 thread)", serial_s);
  std::string label = StrFormat("parallel (%zu threads)", threads);
  std::printf("%-28s %10.3f\n", label.c_str(), parallel_s);
  std::printf("build speedup: %.2fx (%zu hardware threads); "
              "%.0f candidates/sec; builds bit-identical\n",
              speedup, ThreadPool::HardwareThreads(), cps);
  for (const auto& [name, phases] :
       {std::pair{"serial", &serial_stats},
        std::pair{"parallel", &parallel_stats}}) {
    std::printf("%s phases: pack %.2f ms, stage 1 %.2f ms, stage 2 %.2f ms, "
                "merge %.2f ms\n",
                name, phases->pack_s * 1e3, phases->stage1_s * 1e3,
                phases->stage2_s * 1e3, phases->merge_s * 1e3);
  }
  std::printf("stage-1 kernel: per-pair %.2f ms, fused byte %.2f ms, "
              "fused bit-plane %.2f ms incl. packing (%.2fx vs per-pair, "
              "all bit-identical)\n",
              kernel.per_pair_ms, kernel.fused_byte_ms, kernel.fused_ms,
              kernel.speedup);
  for (const TierTiming& tier : kernel.tiers) {
    std::printf("  tier %-8s plane kernel %8.2f ms (%.2fx vs scalar)\n",
                tier.tier, tier.plane_ms, tier.speedup_vs_scalar);
  }

  if (!export_csv.empty()) {
    HM_CHECK_OK(core::WriteHypergraphCsv(serial_graph, export_csv));
    std::printf("exported hypergraph CSV to %s\n", export_csv.c_str());
  }

  LargeStats large_stats;
  if (large) {
    large_stats = RunLargeMode(large_attrs, large_rows, k, repeat);
    std::printf("large mode (%zu attrs x %zu rows): pack %.1f ms, reuse "
                "lookup %.3f ms, pack-reuse sweep speedup %.2fx; sampled "
                "%zu tails x %zu heads:\n",
                large_stats.attrs, large_stats.rows, large_stats.pack_ms,
                large_stats.reuse_lookup_ms,
                large_stats.pack_reuse_speedup, large_stats.sampled_tails,
                large_stats.sampled_heads);
    for (const LargeTierThroughput& tier : large_stats.tiers) {
      std::printf("  tier %-8s %12.0f candidates/sec\n", tier.tier,
                  tier.candidates_per_sec);
    }
    std::printf("  wide-id snapshot round-trip: %s\n",
                large_stats.wide_snapshot_ok ? "ok" : "FAILED");
  }

  std::string tier_json;
  for (const TierTiming& tier : kernel.tiers) {
    tier_json += StrFormat(
        "%s\n    {\"tier\": \"%s\", \"plane_ms\": %.3f, "
        "\"speedup_vs_scalar\": %.3f}",
        tier_json.empty() ? "" : ",", tier.tier, tier.plane_ms,
        tier.speedup_vs_scalar);
  }
  std::string large_json = "null";
  if (large) {
    std::string large_tier_json;
    for (const LargeTierThroughput& tier : large_stats.tiers) {
      large_tier_json += StrFormat(
          "%s\n      {\"tier\": \"%s\", \"candidates_per_sec\": %.0f}",
          large_tier_json.empty() ? "" : ",", tier.tier,
          tier.candidates_per_sec);
    }
    large_json = StrFormat(
        "{\n"
        "    \"attrs\": %zu,\n"
        "    \"rows\": %zu,\n"
        "    \"sampled_tails\": %zu,\n"
        "    \"sampled_heads\": %zu,\n"
        "    \"pack_ms\": %.3f,\n"
        "    \"reuse_lookup_ms\": %.3f,\n"
        "    \"pack_reuse_speedup\": %.3f,\n"
        "    \"tiers\": [%s\n    ],\n"
        "    \"wide_snapshot_ok\": %s\n"
        "  }",
        large_stats.attrs, large_stats.rows, large_stats.sampled_tails,
        large_stats.sampled_heads, large_stats.pack_ms,
        large_stats.reuse_lookup_ms, large_stats.pack_reuse_speedup,
        large_tier_json.c_str(),
        large_stats.wide_snapshot_ok ? "true" : "false");
  }

  std::string json = StrFormat(
      "{\n"
      "  \"bench\": \"build_throughput\",\n"
      "  \"git_sha\": \"%s\",\n"
      "  \"build_type\": \"%s\",\n"
      "  \"attrs\": %zu,\n"
      "  \"rows\": %zu,\n"
      "  \"k\": %zu,\n"
      "  \"repeat\": %zu,\n"
      "  \"smoke\": %s,\n"
      "  \"simd\": \"%s\",\n"
      "  \"hardware_threads\": %zu,\n"
      "  \"edge_candidates\": %zu,\n"
      "  \"pair_candidates\": %zu,\n"
      "  \"edges_kept\": %zu,\n"
      "  \"pairs_kept\": %zu,\n"
      "  \"serial\": {\"seconds\": %.4f, %s},\n"
      "  \"parallel\": {\"threads\": %zu, \"seconds\": %.4f, %s},\n"
      "  \"build_speedup\": %.3f,\n"
      "  \"candidates_per_sec\": %.0f,\n"
      "  \"fused_kernel\": {\"per_pair_ms\": %.3f, \"fused_byte_ms\": %.3f, "
      "\"fused_ms\": %.3f, \"speedup\": %.3f},\n"
      "  \"simd_tiers\": [%s\n  ],\n"
      "  \"large\": %s,\n"
      "  \"deterministic\": true\n"
      "}\n",
      bench::GitSha(), bench::BuildType(), attrs, rows, k, repeat,
      smoke ? "true" : "false", simd, ThreadPool::HardwareThreads(),
      parallel_stats.edge_candidates, parallel_stats.pair_candidates,
      parallel_stats.edges_kept, parallel_stats.pairs_kept, serial_s,
      PhaseJson(serial_stats).c_str(), threads, parallel_s,
      PhaseJson(parallel_stats).c_str(), speedup, cps, kernel.per_pair_ms,
      kernel.fused_byte_ms, kernel.fused_ms, kernel.speedup,
      tier_json.c_str(), large_json.c_str());
  HM_CHECK_OK(WriteStringToFile(out_path, json));
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}

}  // namespace
}  // namespace hypermine

int main(int argc, char** argv) { return hypermine::Main(argc, argv); }
