#ifndef HYPERMINE_UTIL_METRICS_H_
#define HYPERMINE_UTIL_METRICS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace hypermine::metrics {

/// Observability primitives (docs/observability.md): named
/// counters, gauges, and fixed-bucket latency histograms collected in a
/// Registry and rendered as Prometheus text (/metrics) or JSON (/statusz,
/// `!stats`). Hot-path updates are single relaxed atomic operations — no
/// locks, no allocation — so instrumenting the serving path costs almost
/// nothing; all aggregation happens at scrape time (snapshot-on-scrape).
///
/// Naming convention: `hypermine_<subsystem>_<what>[_total|_seconds]`,
/// optionally with a Prometheus label suffix baked into the name, e.g.
/// `GetCounter("hypermine_model_swaps_total{to_version=\"7\"}")`. The
/// registry treats the full string as the metric identity; the renderer
/// groups series sharing a base name under one HELP/TYPE block.

/// Monotonic event count. Increment is the hot-path operation; BridgeTo
/// overwrites the value wholesale and exists ONLY for scrape-time bridging
/// of counters another owner keeps (api::Engine's cache and swap counts)
/// into the registry — never mix Increment and BridgeTo on one counter.
class Counter {
 public:
  void Increment(uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  void BridgeTo(uint64_t value) {
    value_.store(value, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// A value that can go up and down (queue depth, open connections,
/// model version). UpdateMax keeps a high-water mark.
class Gauge {
 public:
  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }
  /// Returns the value after the add, so a gauge can be the count that
  /// admission control checks against its cap.
  int64_t Add(int64_t delta) {
    return value_.fetch_add(delta, std::memory_order_relaxed) + delta;
  }
  /// Raises the gauge to `value` if it is below it (lock-free CAS loop).
  void UpdateMax(int64_t value);
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Fixed-bucket histogram: `bounds` are strictly increasing inclusive
/// upper bounds (Prometheus `le` semantics); an implicit +Inf bucket
/// catches everything above the last bound. Observe is two relaxed atomic
/// adds (bucket count + sum); p50/p90/p99 are derived from the buckets at
/// scrape time by linear interpolation, never tracked online.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Observe(double value);

  /// Point-in-time copy of the bucket state: later Observe calls do not
  /// alter a snapshot already taken.
  struct Snapshot {
    /// Finite upper bounds; counts has one extra trailing +Inf slot.
    std::vector<double> bounds;
    /// Per-bucket (non-cumulative) observation counts.
    std::vector<uint64_t> counts;
    uint64_t count = 0;
    double sum = 0.0;

    /// Bucket-derived quantile (p in [0,1]): linear interpolation inside
    /// the bucket holding the p-th observation. Observations in the +Inf
    /// bucket clamp to the last finite bound; 0 when empty.
    double Percentile(double p) const;
  };
  Snapshot TakeSnapshot() const;

  const std::vector<double>& bounds() const { return bounds_; }

 private:
  std::vector<double> bounds_;
  /// bounds_.size() + 1 slots; the last is the +Inf bucket.
  std::unique_ptr<std::atomic<uint64_t>[]> counts_;
  std::atomic<double> sum_{0.0};
};

/// Default latency bucket layout, in SECONDS (Prometheus convention for
/// *_seconds histograms): 19 exponential-ish bounds from 1 µs to 2.5 s.
/// Chosen so loopback-serving stage latencies (single µs to tens of ms)
/// land mid-range with resolution on both sides.
const std::vector<double>& DefaultLatencyBuckets();

/// Observes the construction-to-destruction wall time (seconds, steady
/// clock) into a histogram. A null histogram makes it a no-op, so call
/// sites can keep one unconditional timer.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram* histogram) : histogram_(histogram) {}
  ~ScopedTimer();

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Histogram* histogram_;
  std::chrono::steady_clock::time_point start_ =
      std::chrono::steady_clock::now();
};

/// Owns every metric and renders them. Get* registers on first use and
/// returns the same stable pointer forever after (metrics are never
/// removed); the returned objects are safe to update from any thread.
/// Re-registering a name with a different kind (or a histogram with
/// different bounds) aborts — one name, one meaning.
///
/// Collectors are callbacks run (serialized, under a lock) at the start of
/// every render: the place to bridge externally-owned stats (engine cache
/// counters, the live model version) into registry metrics right before
/// they are read. AddCollector returns an id for RemoveCollector — an
/// embedder with a shorter lifetime than the registry (e.g. net::Server
/// on an injected registry) must deregister before dying.
class Registry {
 public:
  /// Also anchors ProcessUptimeSeconds(), so a serving process's uptime
  /// counts from no later than its first registry.
  Registry();
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter* GetCounter(std::string_view name, std::string_view help = "");
  Gauge* GetGauge(std::string_view name, std::string_view help = "");
  Histogram* GetHistogram(std::string_view name, std::string_view help = "",
                          const std::vector<double>& bounds =
                              DefaultLatencyBuckets());

  uint64_t AddCollector(std::function<void()> collector);
  void RemoveCollector(uint64_t id);

  /// Prometheus text exposition format 0.0.4 (the /metrics payload).
  std::string PrometheusText() const;
  /// The same metrics as a JSON object: {"counters": {...}, "gauges":
  /// {...}, "histograms": {name: {count, sum, p50, p90, p99}}}. Histogram
  /// sums/percentiles are reported in milliseconds-friendly raw units —
  /// whatever unit was observed.
  std::string JsonText() const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Entry {
    Kind kind;
    std::string help;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  /// Finds or inserts the entry for `name`, checking kind consistency.
  /// Returns a pointer that stays valid forever (map nodes are stable and
  /// entries are never removed), which is what lets Get* hand out raw
  /// metric pointers that outlive the lock.
  Entry* FindOrCreateLocked(std::string_view name, std::string_view help,
                            Kind kind) HM_REQUIRES(mutex_);
  void RunCollectors() const HM_EXCLUDES(mutex_);

  mutable Mutex mutex_;
  /// Ordered so same-base-name label variants render adjacently.
  std::map<std::string, Entry, std::less<>> entries_ HM_GUARDED_BY(mutex_);
  /// Serializes collector registration AND execution; always acquired
  /// before mutex_ (collectors call Get* themselves).
  mutable Mutex collector_mutex_ HM_ACQUIRED_BEFORE(mutex_);
  std::map<uint64_t, std::function<void()>> collectors_
      HM_GUARDED_BY(collector_mutex_);
  uint64_t next_collector_id_ HM_GUARDED_BY(collector_mutex_) = 1;
};

/// Seconds since this process first touched the metrics layer (steady
/// clock; effectively process start for any binary that serves).
double ProcessUptimeSeconds();

/// Minimal JSON string escaping (quotes, backslashes, control bytes) for
/// embedding metric names and model metadata into /statusz documents.
std::string JsonEscape(std::string_view text);

}  // namespace hypermine::metrics

#endif  // HYPERMINE_UTIL_METRICS_H_
