#ifndef HYPERMINE_MARKET_MARKET_SIM_H_
#define HYPERMINE_MARKET_MARKET_SIM_H_

#include <cstdint>
#include <vector>

#include "market/calendar.h"
#include "market/sectors.h"
#include "market/series.h"
#include "util/status.h"

namespace hypermine::market {

/// Per-role factor loadings of the return model (see SimulateMarket).
struct RoleLoadings {
  double market = 0.5;     ///< loading on the market-wide factor M_t
  double demand = 0.65;    ///< loading on the end-user demand factor D_t
  double sector = 0.6;     ///< loading on the sector factor S_{s,t}
  double subsector = 0.3;  ///< loading on the sub-sector factor U_{u,t}
  double idiosyncratic = 0.65;  ///< stddev of the series' own noise
  /// Blend weight toward a tercile-quantized systematic component. Producers
  /// respond coarsely and robustly to aggregate conditions, which makes
  /// their discretized values highly predictable (high weighted in-degree,
  /// Section 5.2) while revealing only coarse information as predictors.
  double quantization = 0.0;
};

/// Configuration of the synthetic S&P 500 substitute. Defaults reproduce the
/// paper's qualitative structure at laptop scale; `num_series = 346,
/// num_years = 15` matches the paper's data set dimensions.
struct MarketConfig {
  size_t num_series = 120;
  int first_year = 1995;
  size_t num_years = 11;
  uint64_t seed = 20120401;

  RoleLoadings producer{0.45, 0.90, 0.55, 0.3, 0.40, 0.92};
  RoleLoadings consumer{0.50, 1.30, 0.40, 0.3, 0.55, 0.0};
  RoleLoadings neutral{0.35, 0.35, 0.65, 0.3, 0.95, 0.0};

  /// End-user demand is segmented (Section 5.2's narrative): each consumer
  /// tracks its own demand niche d_{seg}, while producers and neutrals
  /// respond to the *aggregate* demand (sum of segments / sqrt(J)). This
  /// is what makes consumers good predictors of producers without making
  /// consumers mutually predictable — the directional structure behind
  /// Figure 5.1's in/out-degree separation.
  size_t demand_segments = 4;

  /// Per-ticker heterogeneity: each series draws a deterministic demand
  /// multiplier in [1 - spread, 1 + spread] (consumers skew high:
  /// [1, 1 + 2*spread]) and an idiosyncratic-vol multiplier in
  /// [1 - idio_spread, 1 + idio_spread]. This produces the fat top tails
  /// of the degree distributions in Figure 5.1 — a handful of strongly
  /// demand-coupled consumers become the market's best predictors.
  double demand_spread = 0.25;
  double idio_spread = 0.15;

  /// Converts the standardized model return into a daily fractional change.
  double daily_vol_scale = 0.015;
  /// Annualized drift shared by all series.
  double annual_drift = 0.06;
  /// Initial prices are drawn uniformly from [min_price0, max_price0].
  double min_price0 = 12.0;
  double max_price0 = 150.0;
};

/// A simulated market: calendar, ticker metadata, and aligned price series
/// (one close per calendar day per ticker).
struct MarketPanel {
  TradingCalendar calendar{1995, 1};
  std::vector<Ticker> tickers;
  std::vector<PriceSeries> series;

  size_t num_series() const { return tickers.size(); }
  size_t num_days() const { return calendar.num_days(); }
};

/// Simulates daily closing prices with the return model
///
///   r_{i,t} = vol * (sys_{i,t} + sigma_i * eps_{i,t}) + drift,
///   sys_{i,t} = blend_q( bm*M_t + bd*D_t + bs*S_{sector(i),t}
///                        + bu*U_{subsector(i),t} ),
///
/// where all factors are i.i.d. standard normal, loadings depend on the
/// ticker's Role, and blend_q mixes the raw systematic component with its
/// tercile-quantized version (producers only by default). Prices follow
/// P_{t+1} = P_t * (1 + r) with r clamped to (-0.25, 0.25).
///
/// The substitution rationale (docs/architecture.md, "Building a model:
/// the pipeline"): the paper's algorithms consume only discretized delta
/// series, and this model reproduces the association structure the
/// evaluation depends on — strong within-sector co-movement, demand-driven
/// cross-sector links from consumers to producers, predictable low-noise
/// producers, and noisy consumer series.
StatusOr<MarketPanel> SimulateMarket(const MarketConfig& config);

/// Tercile quantization of a standardized value: maps to the conditional
/// mean of its standard-normal tercile (-1.0913, 0, +1.0913). Exposed for
/// tests.
double TercileQuantize(double standardized);

}  // namespace hypermine::market

#endif  // HYPERMINE_MARKET_MARKET_SIM_H_
