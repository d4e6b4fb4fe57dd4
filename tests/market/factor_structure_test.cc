/// Structural tests of the factor model that back the substitution argument
/// of docs/architecture.md ("Building a model: the pipeline"): segmented
/// demand, role asymmetries, and robustness of the price recursion.
#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "util/logging.h"

#include "market/market_sim.h"
#include "market/series.h"
#include "util/stats.h"

namespace hypermine::market {
namespace {

MarketPanel Simulate(size_t series, size_t years, uint64_t seed) {
  MarketConfig config;
  config.num_series = series;
  config.num_years = years;
  config.seed = seed;
  auto panel = SimulateMarket(config);
  HM_CHECK_OK(panel.status());
  return std::move(panel).value();
}

TEST(FactorStructureTest, ConsumerNichesDecorrelateConsumers) {
  // Consumers track distinct demand segments: their mutual correlation
  // must sit well below consumer-producer correlation (the directional
  // mechanism behind Figure 5.1, see docs/architecture.md).
  MarketPanel panel = Simulate(120, 4, 31);
  std::vector<std::vector<double>> deltas(panel.num_series());
  for (size_t i = 0; i < panel.num_series(); ++i) {
    deltas[i] = DeltaSeries(panel.series[i].closes).value();
  }
  std::vector<double> consumer_consumer;
  std::vector<double> consumer_producer;
  for (size_t i = 0; i < panel.num_series(); ++i) {
    for (size_t j = i + 1; j < panel.num_series(); ++j) {
      if (panel.tickers[i].sector == panel.tickers[j].sector) continue;
      Role ri = panel.tickers[i].role;
      Role rj = panel.tickers[j].role;
      double corr = PearsonCorrelation(deltas[i], deltas[j]);
      if (ri == Role::kConsumer && rj == Role::kConsumer) {
        consumer_consumer.push_back(corr);
      } else if ((ri == Role::kConsumer && rj == Role::kProducer) ||
                 (ri == Role::kProducer && rj == Role::kConsumer)) {
        consumer_producer.push_back(corr);
      }
    }
  }
  ASSERT_FALSE(consumer_consumer.empty());
  ASSERT_FALSE(consumer_producer.empty());
  EXPECT_GT(Mean(consumer_producer), Mean(consumer_consumer) + 0.05);
}

TEST(FactorStructureTest, ProducersShareAggregateDemand) {
  // Producers all load on the demand aggregate: cross-sector
  // producer-producer correlation stays clearly positive.
  MarketPanel panel = Simulate(120, 4, 32);
  std::vector<std::vector<double>> deltas(panel.num_series());
  for (size_t i = 0; i < panel.num_series(); ++i) {
    deltas[i] = DeltaSeries(panel.series[i].closes).value();
  }
  std::vector<double> producer_producer;
  for (size_t i = 0; i < panel.num_series(); ++i) {
    for (size_t j = i + 1; j < panel.num_series(); ++j) {
      if (panel.tickers[i].sector == panel.tickers[j].sector) continue;
      if (panel.tickers[i].role == Role::kProducer &&
          panel.tickers[j].role == Role::kProducer) {
        producer_producer.push_back(PearsonCorrelation(deltas[i], deltas[j]));
      }
    }
  }
  ASSERT_FALSE(producer_producer.empty());
  EXPECT_GT(Mean(producer_producer), 0.25);
}

TEST(FactorStructureTest, SegmentCountChangesConsumerCoupling) {
  // One demand segment = the degenerate shared-demand model; consumers
  // then correlate with each other much more than under segmentation.
  MarketConfig shared;
  shared.num_series = 80;
  shared.num_years = 3;
  shared.seed = 33;
  shared.demand_segments = 1;
  MarketConfig segmented = shared;
  segmented.demand_segments = 4;

  auto measure = [](const MarketConfig& config) {
    auto panel = SimulateMarket(config);
    HM_CHECK_OK(panel.status());
    std::vector<std::vector<double>> deltas(panel->num_series());
    for (size_t i = 0; i < panel->num_series(); ++i) {
      deltas[i] = DeltaSeries(panel->series[i].closes).value();
    }
    std::vector<double> cc;
    for (size_t i = 0; i < panel->num_series(); ++i) {
      for (size_t j = i + 1; j < panel->num_series(); ++j) {
        if (panel->tickers[i].role == Role::kConsumer &&
            panel->tickers[j].role == Role::kConsumer &&
            panel->tickers[i].sector != panel->tickers[j].sector) {
          cc.push_back(PearsonCorrelation(deltas[i], deltas[j]));
        }
      }
    }
    return Mean(cc);
  };
  EXPECT_GT(measure(shared), measure(segmented) + 0.1);
}

TEST(FactorStructureTest, ExtremeVolStaysFiniteAndPositive) {
  // The daily-return clamp keeps the price recursion from collapsing even
  // under absurd volatility settings (failure-injection style check).
  MarketConfig config;
  config.num_series = 10;
  config.num_years = 2;
  config.seed = 34;
  config.daily_vol_scale = 5.0;  // 500x a realistic setting
  auto panel = SimulateMarket(config);
  ASSERT_TRUE(panel.ok());
  for (const PriceSeries& s : panel->series) {
    for (double close : s.closes) {
      ASSERT_TRUE(std::isfinite(close));
      ASSERT_GT(close, 0.0);
    }
  }
}

TEST(FactorStructureTest, RolesGetDistinctVolatility) {
  // Consumers carry more idiosyncratic volatility than producers by
  // construction; check realized delta stddev ordering per role.
  MarketPanel panel = Simulate(120, 4, 35);
  std::map<Role, std::vector<double>> vol_by_role;
  for (size_t i = 0; i < panel.num_series(); ++i) {
    std::vector<double> deltas =
        DeltaSeries(panel.series[i].closes).value();
    vol_by_role[panel.tickers[i].role].push_back(StdDev(deltas));
  }
  EXPECT_GT(Mean(vol_by_role[Role::kConsumer]),
            Mean(vol_by_role[Role::kProducer]));
}

TEST(FactorStructureTest, DemandSpreadZeroRemovesJitter) {
  // With spreads zeroed, two consumers in the same segment and sub-sector
  // differ only by idiosyncratic noise paths; their realized volatilities
  // are near-identical across seeds (sanity of the jitter switch).
  MarketConfig config;
  config.num_series = 40;
  config.num_years = 2;
  config.seed = 36;
  config.demand_spread = 0.0;
  config.idio_spread = 0.0;
  auto panel = SimulateMarket(config);
  ASSERT_TRUE(panel.ok());
  // Just shape-level: simulation succeeds and is deterministic.
  auto panel2 = SimulateMarket(config);
  ASSERT_TRUE(panel2.ok());
  EXPECT_DOUBLE_EQ(panel->series[5].closes.back(),
                   panel2->series[5].closes.back());
}

}  // namespace
}  // namespace hypermine::market
