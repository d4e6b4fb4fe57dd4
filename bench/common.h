#ifndef HYPERMINE_BENCH_COMMON_H_
#define HYPERMINE_BENCH_COMMON_H_

#include <string>
#include <vector>

#include "core/builder.h"
#include "core/pipeline.h"
#include "market/market_sim.h"
#include "util/flags.h"

namespace hypermine::bench {

/// Scale and configuration shared by every table/figure harness. Defaults
/// run on one core in seconds; --full switches to the paper's scale
/// (346 series x 15 years, Jan 1995 - Dec 2009).
struct BenchOptions {
  market::MarketConfig market;
  bool run_c1 = true;
  bool run_c2 = true;
  bool skip_baselines = false;
  /// "paper" (association-table rows, Section 5.5) or "raw" (train on raw
  /// in-sample observations; stronger than the paper's baselines).
  std::string baseline_protocol = "paper";
  /// Worker threads for hypergraph construction (HypergraphConfig::
  /// num_threads); 0 = hardware concurrency. Builds are bit-identical at
  /// any thread count, so this only changes wall time — pass --threads=1
  /// for reproducible timing on CI/1-core containers.
  size_t build_threads = 0;

  /// Parses --series, --years, --seed, --full, --config=c1|c2|both,
  /// --threads, --skip-baselines, --baseline-protocol=paper|raw.
  static BenchOptions FromFlags(const FlagParser& flags);
};

/// Parses argv and prints the run header (scale, seed, configs).
BenchOptions ParseBenchArgs(int argc, char** argv, const char* bench_name,
                            const char* paper_anchor);

/// Applies --simd=scalar|avx2|avx512 for the whole process: forces the ACV
/// kernel dispatch tier (clamped to what this host supports, so requesting
/// avx512 on an avx2 machine runs avx2, not a crash). An unrecognized value
/// is fatal — a bench silently measuring the wrong tier is worse than an
/// error. Without the flag the environment/auto-detected tier stands.
/// Returns the name of the tier actually active.
const char* ApplySimdFlag(const FlagParser& flags);

/// The 11 series of Tables 5.1/5.2, one per sector (Conglomerates has no
/// selected row in the paper either).
const std::vector<std::string>& SelectedSeries();

/// Sets up market + discretized database + hypergraph for one config.
core::MarketExperiment MustSetUp(const BenchOptions& options,
                                 const core::HypergraphConfig& config);

/// "C1" / "C2" label helper.
std::string ConfigName(const core::HypergraphConfig& config);

/// Formats a hyperedge like the paper's tables: "HES (E), SLB (E) -> XOM".
std::string FormatEdgeWithSectors(const core::MarketExperiment& experiment,
                                  core::EdgeId id);

/// Prints a line comparing a measured value against what the paper reports.
void PrintPaperComparison(const std::string& metric, double measured,
                          const std::string& paper_value);

}  // namespace hypermine::bench

#endif  // HYPERMINE_BENCH_COMMON_H_
