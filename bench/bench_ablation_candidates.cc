/// Ablation for the candidate-generation choice documented in
/// docs/architecture.md ("Building a model: the pipeline"):
/// restricting 2-to-1 candidates to pairs of γ-significant sources (the
/// default) versus enumerating all attribute pairs (the literal reading of
/// Section 3.2.1). Runs at reduced scale because the unrestricted
/// enumeration is O(n^3 m).
#include <cstdio>

#include "common.h"
#include "util/logging.h"
#include "util/stopwatch.h"
#include "util/string_util.h"
#include "util/table_printer.h"

namespace hypermine::bench {
namespace {

void Run(BenchOptions options) {
  // Cap the universe so the unrestricted build stays tractable.
  options.market.num_series = std::min<size_t>(options.market.num_series, 60);
  auto panel = market::SimulateMarket(options.market);
  HM_CHECK_OK(panel.status());
  auto db = core::DiscretizePanel(*panel, 3);
  HM_CHECK_OK(db.status());

  TablePrinter table({"candidates", "pair candidates", "2-to-1 kept",
                      "mean pair ACV", "build time"});
  size_t restricted_kept = 0;
  size_t unrestricted_kept = 0;
  for (bool restricted : {true, false}) {
    core::HypergraphConfig config = core::ConfigC1();
    config.restrict_pairs_to_edges = restricted;
    core::BuildStats stats;
    Stopwatch timer;
    auto graph = core::BuildAssociationHypergraph(*db, config, &stats);
    HM_CHECK_OK(graph.status());
    (restricted ? restricted_kept : unrestricted_kept) =
        graph->NumPairEdges();
    table.AddRow({restricted ? "gamma-significant sources (default)"
                             : "all pairs (literal Sec. 3.2.1)",
                  std::to_string(stats.pair_candidates),
                  std::to_string(stats.pairs_kept),
                  FormatDouble(stats.mean_pair_acv, 3),
                  StrFormat("%.2fs", stats.elapsed_seconds)});
  }
  std::printf("%s\n", table.ToString().c_str());
  double recall = unrestricted_kept == 0
                      ? 1.0
                      : static_cast<double>(restricted_kept) /
                            static_cast<double>(unrestricted_kept);
  std::printf("restricted candidate recall of unrestricted hyperedges: "
              "%.1f%% (the restriction loses only pairs whose members were "
              "individually insignificant)\n",
              recall * 100.0);
}

}  // namespace
}  // namespace hypermine::bench

int main(int argc, char** argv) {
  using namespace hypermine::bench;
  BenchOptions options = ParseBenchArgs(
      argc, argv, "bench_ablation_candidates",
      "candidate-restriction ablation (Section 3.2.1; docs/architecture.md)");
  Run(options);
  return 0;
}
