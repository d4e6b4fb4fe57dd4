#include "util/metrics.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

namespace hypermine::metrics {
namespace {

TEST(CounterTest, ConcurrentIncrementsSumExactly) {
  Registry registry;
  Counter* counter = registry.GetCounter("test_concurrent_total");
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([counter] {
      for (uint64_t i = 0; i < kPerThread; ++i) counter->Increment();
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(counter->value(), kThreads * kPerThread);
}

TEST(CounterTest, IncrementByNAndBridge) {
  Registry registry;
  Counter* counter = registry.GetCounter("test_total");
  counter->Increment(5);
  counter->Increment();
  EXPECT_EQ(counter->value(), 6u);
  Counter* bridged = registry.GetCounter("bridged_total");
  bridged->BridgeTo(42);
  EXPECT_EQ(bridged->value(), 42u);
  bridged->BridgeTo(40);  // bridging mirrors the source, even downward
  EXPECT_EQ(bridged->value(), 40u);
}

TEST(GaugeTest, SetAddUpdateMax) {
  Registry registry;
  Gauge* gauge = registry.GetGauge("test_gauge");
  gauge->Set(10);
  EXPECT_EQ(gauge->Add(-3), 7) << "Add returns the value after the add";
  EXPECT_EQ(gauge->value(), 7);
  gauge->UpdateMax(5);  // below: no change
  EXPECT_EQ(gauge->value(), 7);
  gauge->UpdateMax(100);
  EXPECT_EQ(gauge->value(), 100);
}

TEST(GaugeTest, ConcurrentUpdateMaxKeepsTheMaximum) {
  Registry registry;
  Gauge* gauge = registry.GetGauge("test_peak");
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([gauge, t] {
      for (int i = 0; i < 10000; ++i) gauge->UpdateMax(t * 10000 + i);
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(gauge->value(), 7 * 10000 + 9999);
}

TEST(HistogramTest, BucketBoundariesAreInclusiveUpperBounds) {
  Histogram histogram({1.0, 2.0, 4.0});
  histogram.Observe(0.5);  // bucket 0 (le=1)
  histogram.Observe(1.0);  // bucket 0: le is INCLUSIVE
  histogram.Observe(1.5);  // bucket 1 (le=2)
  histogram.Observe(2.0);  // bucket 1
  histogram.Observe(4.0);  // bucket 2 (le=4)
  histogram.Observe(9.0);  // +Inf bucket
  const Histogram::Snapshot snap = histogram.TakeSnapshot();
  ASSERT_EQ(snap.counts.size(), 4u);
  EXPECT_EQ(snap.counts[0], 2u);
  EXPECT_EQ(snap.counts[1], 2u);
  EXPECT_EQ(snap.counts[2], 1u);
  EXPECT_EQ(snap.counts[3], 1u);
  EXPECT_EQ(snap.count, 6u);
  EXPECT_DOUBLE_EQ(snap.sum, 0.5 + 1.0 + 1.5 + 2.0 + 4.0 + 9.0);
}

TEST(HistogramTest, SnapshotIsIsolatedFromLaterObservations) {
  Histogram histogram({1.0});
  histogram.Observe(0.5);
  const Histogram::Snapshot before = histogram.TakeSnapshot();
  histogram.Observe(0.5);
  histogram.Observe(10.0);
  EXPECT_EQ(before.count, 1u);
  EXPECT_EQ(before.counts[0], 1u);
  EXPECT_EQ(before.counts[1], 0u);
  const Histogram::Snapshot after = histogram.TakeSnapshot();
  EXPECT_EQ(after.count, 3u);
}

TEST(HistogramTest, ConcurrentObservationsAllLand) {
  Histogram histogram(DefaultLatencyBuckets());
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&histogram] {
      for (int i = 0; i < kPerThread; ++i) {
        histogram.Observe(1e-4 * static_cast<double>(i % 100));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(histogram.TakeSnapshot().count,
            static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(HistogramTest, PercentilesInterpolateWithinBuckets) {
  Histogram histogram({10.0, 20.0, 30.0});
  for (int i = 0; i < 100; ++i) histogram.Observe(5.0);   // le=10
  for (int i = 0; i < 100; ++i) histogram.Observe(15.0);  // le=20
  const Histogram::Snapshot snap = histogram.TakeSnapshot();
  // p50 sits exactly at the boundary of the first bucket.
  EXPECT_NEAR(snap.Percentile(0.50), 10.0, 1e-9);
  // p75 is halfway through the second bucket (10..20).
  EXPECT_NEAR(snap.Percentile(0.75), 15.0, 1e-9);
  EXPECT_GE(snap.Percentile(0.99), snap.Percentile(0.50));
}

TEST(HistogramTest, InfBucketClampsToLastFiniteBound) {
  Histogram histogram({1.0, 2.0});
  histogram.Observe(50.0);
  histogram.Observe(60.0);
  const Histogram::Snapshot snap = histogram.TakeSnapshot();
  EXPECT_DOUBLE_EQ(snap.Percentile(0.99), 2.0);
}

TEST(HistogramTest, EmptyPercentileIsZero) {
  Histogram histogram({1.0});
  EXPECT_EQ(histogram.TakeSnapshot().Percentile(0.5), 0.0);
}

TEST(RegistryTest, GetReturnsStablePointers) {
  Registry registry;
  Counter* a = registry.GetCounter("stable_total", "help text");
  Counter* b = registry.GetCounter("stable_total");
  EXPECT_EQ(a, b);
  Histogram* h1 = registry.GetHistogram("stable_seconds");
  Histogram* h2 = registry.GetHistogram("stable_seconds");
  EXPECT_EQ(h1, h2);
}

TEST(RegistryTest, PrometheusTextRendersAllKinds) {
  Registry registry;
  registry.GetCounter("demo_events_total", "Things that happened.")
      ->Increment(3);
  registry.GetGauge("demo_depth", "Current depth.")->Set(7);
  registry.GetHistogram("demo_latency_seconds", "Latency.", {0.1, 1.0})
      ->Observe(0.05);
  const std::string text = registry.PrometheusText();
  EXPECT_NE(text.find("# HELP demo_events_total Things that happened."),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE demo_events_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("demo_events_total 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE demo_depth gauge"), std::string::npos);
  EXPECT_NE(text.find("demo_depth 7"), std::string::npos);
  EXPECT_NE(text.find("# TYPE demo_latency_seconds histogram"),
            std::string::npos);
  EXPECT_NE(text.find("demo_latency_seconds_bucket{le=\"0.1\"} 1"),
            std::string::npos);
  // Cumulative: the le="1" bucket includes the le="0.1" one.
  EXPECT_NE(text.find("demo_latency_seconds_bucket{le=\"1\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("demo_latency_seconds_bucket{le=\"+Inf\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("demo_latency_seconds_count 1"), std::string::npos);
}

TEST(RegistryTest, LabeledSeriesShareOneHelpBlock) {
  Registry registry;
  registry.GetGauge("model_info{model_version=\"1\"}", "Live model.")
      ->Set(1);
  registry.GetGauge("model_info{model_version=\"2\"}")->Set(0);
  const std::string text = registry.PrometheusText();
  // One HELP/TYPE header for the base name, two samples.
  size_t first = text.find("# TYPE model_info gauge");
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(text.find("# TYPE model_info gauge", first + 1),
            std::string::npos);
  EXPECT_NE(text.find("model_info{model_version=\"1\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("model_info{model_version=\"2\"} 0"),
            std::string::npos);
}

TEST(RegistryTest, HistogramLabelsFoldIntoBucketLabels) {
  Registry registry;
  registry.GetHistogram("stage_seconds{stage=\"wait\"}", "", {1.0})
      ->Observe(0.5);
  const std::string text = registry.PrometheusText();
  EXPECT_NE(text.find("stage_seconds_bucket{stage=\"wait\",le=\"1\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("stage_seconds_sum{stage=\"wait\"}"),
            std::string::npos);
  EXPECT_NE(text.find("stage_seconds_count{stage=\"wait\"} 1"),
            std::string::npos);
}

TEST(RegistryTest, CollectorsRunAtRenderAndCanBeRemoved) {
  Registry registry;
  std::atomic<int> runs{0};
  const uint64_t id = registry.AddCollector([&registry, &runs] {
    runs.fetch_add(1);
    registry.GetCounter("collected_total")->BridgeTo(99);
  });
  const std::string text = registry.PrometheusText();
  EXPECT_EQ(runs.load(), 1);
  EXPECT_NE(text.find("collected_total 99"), std::string::npos);
  (void)registry.JsonText();
  EXPECT_EQ(runs.load(), 2);
  registry.RemoveCollector(id);
  (void)registry.PrometheusText();
  EXPECT_EQ(runs.load(), 2);  // removed: not run again
}

TEST(RegistryTest, JsonTextIsWellFormedAndComplete) {
  Registry registry;
  registry.GetCounter("a_total")->Increment(2);
  registry.GetGauge("b_gauge")->Set(-5);
  registry.GetHistogram("c_seconds", "", {1.0})->Observe(0.5);
  const std::string json = registry.JsonText();
  EXPECT_NE(json.find("\"a_total\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"b_gauge\": -5"), std::string::npos);
  EXPECT_NE(json.find("\"c_seconds\""), std::string::npos);
  EXPECT_NE(json.find("\"p50\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
  // Balanced braces — cheap structural sanity without a JSON parser.
  int depth = 0;
  bool in_string = false;
  for (size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{') ++depth;
    if (c == '}') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

TEST(RegistryTest, DefaultLatencyBucketsAreStrictlyIncreasing) {
  const std::vector<double>& bounds = DefaultLatencyBuckets();
  ASSERT_GE(bounds.size(), 2u);
  for (size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_LT(bounds[i - 1], bounds[i]);
  }
  EXPECT_GE(bounds.front(), 1e-6);  // sub-µs noise has no bucket
  EXPECT_GE(bounds.back(), 1.0);    // seconds-scale tail is covered
}

TEST(RegistryTest, DefaultLatencyBucketsResolveTenMicroseconds) {
  // A 10 µs stage must read as at most 10 µs at p99. That needs a bucket
  // bound at or just above it: interpolation inside a wider first bucket
  // reports 0.99 of that bucket's bound instead.
  Histogram histogram(DefaultLatencyBuckets());
  for (int i = 0; i < 1000; ++i) histogram.Observe(10e-6);
  EXPECT_LE(histogram.TakeSnapshot().Percentile(0.99), 10e-6);
}

TEST(ScopedTimerTest, ObservesOnDestructionAndToleratesNull) {
  Histogram histogram(DefaultLatencyBuckets());
  {
    ScopedTimer timer(&histogram);
  }
  EXPECT_EQ(histogram.TakeSnapshot().count, 1u);
  {
    ScopedTimer no_op(nullptr);  // must not crash
  }
}

TEST(JsonEscapeTest, EscapesQuotesBackslashesAndControls) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonEscape("a\nb"), "a\\nb");
  EXPECT_EQ(JsonEscape(std::string("a\x01"
                                   "b")),
            "a\\u0001b");
}

TEST(ProcessUptimeTest, NeverRunsBackwards) {
  Registry registry;  // anchors the clock if nothing has yet
  EXPECT_GE(ProcessUptimeSeconds(), 0.0);
  const double first = ProcessUptimeSeconds();
  EXPECT_GE(ProcessUptimeSeconds(), first);
}

}  // namespace
}  // namespace hypermine::metrics
