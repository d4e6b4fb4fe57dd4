#include "common.h"

#include <cstdio>

#include "core/simd.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace hypermine::bench {

BenchOptions BenchOptions::FromFlags(const FlagParser& flags) {
  BenchOptions options;
  options.market.num_series =
      static_cast<size_t>(flags.GetInt("series", 100));
  options.market.num_years =
      static_cast<size_t>(flags.GetInt("years", 8));
  options.market.seed = static_cast<uint64_t>(flags.GetInt("seed", 20120401));
  if (flags.GetBool("full", false)) {
    // The paper's data set: 346 S&P 500 series, Jan 1995 - Dec 2009.
    options.market.num_series = 346;
    options.market.num_years = 15;
  }
  std::string config = ToLower(flags.GetString("config", "both"));
  options.run_c1 = config == "both" || config == "c1";
  options.run_c2 = config == "both" || config == "c2";
  options.skip_baselines = flags.GetBool("skip-baselines", false);
  options.baseline_protocol =
      ToLower(flags.GetString("baseline-protocol", "paper"));
  int64_t threads = flags.GetInt("threads", 0);
  HM_CHECK_GE(threads, 0);
  options.build_threads = static_cast<size_t>(threads);
  return options;
}

BenchOptions ParseBenchArgs(int argc, char** argv, const char* bench_name,
                            const char* paper_anchor) {
  FlagParser flags;
  HM_CHECK_OK(flags.Parse(argc, argv));
  BenchOptions options = BenchOptions::FromFlags(flags);
  const char* simd = ApplySimdFlag(flags);
  std::printf("=== %s (%s) ===\n", bench_name, paper_anchor);
  std::printf(
      "scale: %zu series x %zu years (seed %llu), simd=%s; flags: --series "
      "--years --seed --full --config=c1|c2|both --threads=N (0 = hardware) "
      "--simd=scalar|avx2|avx512\n\n",
      options.market.num_series, options.market.num_years,
      static_cast<unsigned long long>(options.market.seed), simd);
  return options;
}

const char* ApplySimdFlag(const FlagParser& flags) {
  const std::string requested = flags.GetString("simd", "");
  if (!requested.empty()) {
    auto tier = core::simd::ParseTier(requested);
    if (!tier.has_value()) {
      HM_LOG_FATAL << "--simd=" << requested
                   << " is not a tier (scalar, avx2, avx512)";
    }
    core::simd::ForceActiveTier(*tier);
  }
  return core::simd::ActiveOps().name;
}

const std::vector<std::string>& SelectedSeries() {
  static const std::vector<std::string>& series =
      *new std::vector<std::string>{
          "EMN", "HON", "GT", "PG", "XOM", "AIG",
          "JNJ", "JCP", "INTC", "FDX", "TE",
      };
  return series;
}

core::MarketExperiment MustSetUp(const BenchOptions& options,
                                 const core::HypergraphConfig& config) {
  core::HypergraphConfig build_config = config;
  build_config.num_threads = options.build_threads;
  auto experiment =
      core::SetUpMarketExperiment(options.market, build_config);
  HM_CHECK_OK(experiment.status());
  return std::move(experiment).value();
}

std::string ConfigName(const core::HypergraphConfig& config) {
  return config.k == 3 ? "C1" : (config.k == 5 ? "C2" : "custom");
}

std::string FormatEdgeWithSectors(const core::MarketExperiment& experiment,
                                  core::EdgeId id) {
  const core::Hyperedge& e = experiment.graph.edge(id);
  std::string out;
  for (size_t i = 0; i < e.tail_size(); ++i) {
    if (i > 0) out += ", ";
    core::VertexId v = e.tail[i];
    out += experiment.graph.vertex_name(v);
    out += StrFormat(" (%s)",
                     market::SectorCode(experiment.panel.tickers[v].sector));
  }
  out += " -> " + experiment.graph.vertex_name(e.head);
  return out;
}

void PrintPaperComparison(const std::string& metric, double measured,
                          const std::string& paper_value) {
  std::printf("  %-46s measured %-8.3f paper: %s\n", metric.c_str(), measured,
              paper_value.c_str());
}

}  // namespace hypermine::bench
