#include "util/metrics.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"
#include "util/string_util.h"

namespace hypermine::metrics {
namespace {

/// Splits "name{label=\"x\"}" into its base name; the full string stays
/// the sample identity, the base carries the HELP/TYPE block.
std::string_view BaseName(std::string_view full) {
  size_t brace = full.find('{');
  return brace == std::string_view::npos ? full : full.substr(0, brace);
}

/// Merges an extra label ("le=\"0.005\"") into a possibly-labeled metric
/// name: name -> name{extra}, name{a="b"} -> name{a="b",extra}.
std::string WithLabel(std::string_view full, const std::string& extra) {
  size_t brace = full.find('{');
  if (brace == std::string_view::npos) {
    return std::string(full) + "{" + extra + "}";
  }
  std::string merged(full.substr(0, full.size() - 1));  // drop '}'
  merged += "," + extra + "}";
  return merged;
}

/// Prometheus renders +Inf and exact values; printf %g keeps bounds like
/// 0.00025 readable without trailing zero noise.
std::string FormatBound(double bound) { return StrFormat("%g", bound); }

std::string FormatValue(double value) {
  // Counters and bucket counts are integers; sums are not.
  if (value == std::floor(value) && std::abs(value) < 1e15) {
    return StrFormat("%.0f", value);
  }
  return StrFormat("%.9g", value);
}

void AddDouble(std::atomic<double>* target, double delta) {
  double current = target->load(std::memory_order_relaxed);
  while (!target->compare_exchange_weak(current, current + delta,
                                        std::memory_order_relaxed)) {
  }
}

}  // namespace

void Gauge::UpdateMax(int64_t value) {
  int64_t current = value_.load(std::memory_order_relaxed);
  while (current < value &&
         !value_.compare_exchange_weak(current, value,
                                       std::memory_order_relaxed)) {
  }
}

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  HM_CHECK(!bounds_.empty());
  for (size_t i = 1; i < bounds_.size(); ++i) {
    HM_CHECK_LT(bounds_[i - 1], bounds_[i]);
  }
  counts_ = std::make_unique<std::atomic<uint64_t>[]>(bounds_.size() + 1);
  for (size_t i = 0; i <= bounds_.size(); ++i) counts_[i] = 0;
}

void Histogram::Observe(double value) {
  // First bucket whose upper bound is >= value (le is inclusive); past the
  // last finite bound, the +Inf slot.
  size_t bucket =
      std::lower_bound(bounds_.begin(), bounds_.end(), value) -
      bounds_.begin();
  counts_[bucket].fetch_add(1, std::memory_order_relaxed);
  AddDouble(&sum_, value);
}

Histogram::Snapshot Histogram::TakeSnapshot() const {
  Snapshot snapshot;
  snapshot.bounds = bounds_;
  snapshot.counts.resize(bounds_.size() + 1);
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    snapshot.counts[i] = counts_[i].load(std::memory_order_relaxed);
    snapshot.count += snapshot.counts[i];
  }
  snapshot.sum = sum_.load(std::memory_order_relaxed);
  return snapshot;
}

double Histogram::Snapshot::Percentile(double p) const {
  if (count == 0) return 0.0;
  const double rank = p * static_cast<double>(count);
  uint64_t cumulative = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    cumulative += counts[i];
    if (static_cast<double>(cumulative) < rank) continue;
    if (i >= bounds.size()) return bounds.back();  // +Inf bucket clamps
    const double upper = bounds[i];
    const double lower = i == 0 ? 0.0 : bounds[i - 1];
    if (counts[i] == 0) return upper;
    const double into =
        (rank - static_cast<double>(cumulative - counts[i])) /
        static_cast<double>(counts[i]);
    return lower + (upper - lower) * std::clamp(into, 0.0, 1.0);
  }
  return bounds.back();
}

const std::vector<double>& DefaultLatencyBuckets() {
  static const std::vector<double> kBuckets = {
      0.000001, 0.0000025, 0.000005, 0.00001, 0.000025,
      0.00005,  0.0001,    0.00025,  0.0005,  0.001,
      0.0025,   0.005,     0.01,     0.025,   0.05,
      0.1,      0.25,      1.0,      2.5};
  return kBuckets;
}

ScopedTimer::~ScopedTimer() {
  if (histogram_ == nullptr) return;
  histogram_->Observe(std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start_)
                          .count());
}

Registry::Registry() { ProcessUptimeSeconds(); }

Registry::Entry* Registry::FindOrCreateLocked(std::string_view name,
                                              std::string_view help,
                                              Kind kind) {
  auto it = entries_.find(name);
  if (it != entries_.end()) {
    if (it->second.kind != kind) {
      HM_LOG_FATAL << "metric " << std::string(name)
                   << " re-registered as a different kind";
    }
    return &it->second;
  }
  Entry entry;
  entry.kind = kind;
  entry.help = std::string(help);
  it = entries_.emplace(std::string(name), std::move(entry)).first;
  return &it->second;
}

// The metric objects are created under mutex_ too: two threads racing the
// first GetCounter of one name must not both observe a null pointer and
// double-create (the old code mutated Entry outside the lock — exactly the
// class of bug the thread-safety annotations now reject at compile time).
// The returned pointer is stable and lock-free to use afterwards.

Counter* Registry::GetCounter(std::string_view name, std::string_view help) {
  MutexLock lock(mutex_);
  Entry* entry = FindOrCreateLocked(name, help, Kind::kCounter);
  if (entry->counter == nullptr) entry->counter = std::make_unique<Counter>();
  return entry->counter.get();
}

Gauge* Registry::GetGauge(std::string_view name, std::string_view help) {
  MutexLock lock(mutex_);
  Entry* entry = FindOrCreateLocked(name, help, Kind::kGauge);
  if (entry->gauge == nullptr) entry->gauge = std::make_unique<Gauge>();
  return entry->gauge.get();
}

Histogram* Registry::GetHistogram(std::string_view name,
                                  std::string_view help,
                                  const std::vector<double>& bounds) {
  MutexLock lock(mutex_);
  Entry* entry = FindOrCreateLocked(name, help, Kind::kHistogram);
  if (entry->histogram == nullptr) {
    entry->histogram = std::make_unique<Histogram>(bounds);
  } else if (entry->histogram->bounds() != bounds) {
    HM_LOG_FATAL << "histogram " << std::string(name)
                 << " re-registered with different buckets";
  }
  return entry->histogram.get();
}

uint64_t Registry::AddCollector(std::function<void()> collector) {
  MutexLock lock(collector_mutex_);
  uint64_t id = next_collector_id_++;
  collectors_.emplace(id, std::move(collector));
  return id;
}

void Registry::RemoveCollector(uint64_t id) {
  MutexLock lock(collector_mutex_);
  collectors_.erase(id);
}

void Registry::RunCollectors() const {
  // Serialized: collectors may keep per-closure state (e.g. the previous
  // model-info gauge to zero out) and concurrent scrapes must not race it.
  // Lock order: collector_mutex_ before mutex_ — collectors call Get*.
  MutexLock lock(collector_mutex_);
  for (const auto& [id, collector] : collectors_) collector();
}

std::string Registry::PrometheusText() const {
  RunCollectors();
  std::string out;
  MutexLock lock(mutex_);
  std::string_view previous_base;
  for (const auto& [name, entry] : entries_) {
    const std::string_view base = BaseName(name);
    if (base != previous_base) {
      previous_base = base;
      if (!entry.help.empty()) {
        out += "# HELP " + std::string(base) + " " + entry.help + "\n";
      }
      const char* type = entry.kind == Kind::kCounter    ? "counter"
                         : entry.kind == Kind::kGauge    ? "gauge"
                                                         : "histogram";
      out += "# TYPE " + std::string(base) + " " + type + "\n";
    }
    switch (entry.kind) {
      case Kind::kCounter:
        out += name + " " +
               StrFormat("%llu",
                         static_cast<unsigned long long>(
                             entry.counter->value())) +
               "\n";
        break;
      case Kind::kGauge:
        out += name + " " +
               StrFormat("%lld",
                         static_cast<long long>(entry.gauge->value())) +
               "\n";
        break;
      case Kind::kHistogram: {
        const Histogram::Snapshot snapshot =
            entry.histogram->TakeSnapshot();
        uint64_t cumulative = 0;
        for (size_t i = 0; i < snapshot.counts.size(); ++i) {
          cumulative += snapshot.counts[i];
          const std::string le =
              i < snapshot.bounds.size()
                  ? "le=\"" + FormatBound(snapshot.bounds[i]) + "\""
                  : std::string("le=\"+Inf\"");
          out += WithLabel(std::string(base) + "_bucket" +
                               std::string(name.substr(base.size())),
                           le) +
                 " " +
                 StrFormat("%llu",
                           static_cast<unsigned long long>(cumulative)) +
                 "\n";
        }
        out += std::string(base) + "_sum" +
               std::string(name.substr(base.size())) + " " +
               FormatValue(snapshot.sum) + "\n";
        out += std::string(base) + "_count" +
               std::string(name.substr(base.size())) + " " +
               StrFormat("%llu",
                         static_cast<unsigned long long>(snapshot.count)) +
               "\n";
        break;
      }
    }
  }
  return out;
}

std::string Registry::JsonText() const {
  RunCollectors();
  MutexLock lock(mutex_);
  std::string counters, gauges, histograms;
  for (const auto& [name, entry] : entries_) {
    switch (entry.kind) {
      case Kind::kCounter:
        if (!counters.empty()) counters += ", ";
        counters += "\"" + JsonEscape(name) + "\": " +
                    StrFormat("%llu", static_cast<unsigned long long>(
                                          entry.counter->value()));
        break;
      case Kind::kGauge:
        if (!gauges.empty()) gauges += ", ";
        gauges += "\"" + JsonEscape(name) + "\": " +
                  StrFormat("%lld",
                            static_cast<long long>(entry.gauge->value()));
        break;
      case Kind::kHistogram: {
        const Histogram::Snapshot snapshot =
            entry.histogram->TakeSnapshot();
        if (!histograms.empty()) histograms += ", ";
        histograms += StrFormat(
            "\"%s\": {\"count\": %llu, \"sum\": %.9g, \"p50\": %.9g, "
            "\"p90\": %.9g, \"p99\": %.9g}",
            JsonEscape(name).c_str(),
            static_cast<unsigned long long>(snapshot.count), snapshot.sum,
            snapshot.Percentile(0.50), snapshot.Percentile(0.90),
            snapshot.Percentile(0.99));
        break;
      }
    }
  }
  return "{\"counters\": {" + counters + "}, \"gauges\": {" + gauges +
         "}, \"histograms\": {" + histograms + "}}";
}

double ProcessUptimeSeconds() {
  static const std::chrono::steady_clock::time_point start =
      std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

std::string JsonEscape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += StrFormat("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace hypermine::metrics
