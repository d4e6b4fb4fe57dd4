// Closed-loop load over the wire, shaped like hypermine_client: each client
// thread owns one connection and keeps exactly one query in flight.
#include <algorithm>
#include <chrono>
#include <thread>

#include "net/client.h"
#include "perfbench.h"

namespace hypermine::perfbench {

namespace {

struct ClientState {
  uint64_t attempted = 0;
  uint64_t transport_errors = 0;
  uint64_t shed = 0;
  uint64_t rejected = 0;
  uint64_t other_errors = 0;
  std::string first_error;
  std::vector<double> latency_ms;
  std::vector<double> done_s;

  /// Counts one answered (or failed) query; true when it was answered OK.
  bool Record(const StatusOr<net::WireResponse>& response) {
    ++attempted;
    Status status = response.ok() ? response->ToStatus() : response.status();
    if (status.ok()) return true;
    if (!response.ok()) {
      ++transport_errors;
    } else if (status.code() == StatusCode::kUnavailable) {
      ++shed;
    } else if (status.code() == StatusCode::kResourceExhausted) {
      ++rejected;
    } else {
      ++other_errors;
    }
    if (first_error.empty()) first_error = status.ToString();
    return false;
  }
};

}  // namespace

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t rank =
      static_cast<size_t>(p * static_cast<double>(values.size()));
  return values[std::min(rank, values.size() - 1)];
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

LoadResult RunClosedLoop(uint16_t port, std::vector<QueryStream> streams,
                         size_t warmup_per_client,
                         const std::function<void()>& window,
                         std::vector<std::vector<api::QueryRequest>>* sent) {
  const size_t n = streams.size();
  std::vector<ClientState> states(n);
  if (sent != nullptr) sent->assign(n, {});
  std::atomic<size_t> ready{0};
  std::atomic<bool> go{false};
  std::atomic<int64_t> start_ns{0};
  std::atomic<int64_t> stop_ns{INT64_MAX};

  std::vector<std::thread> clients;
  clients.reserve(n);
  for (size_t c = 0; c < n; ++c) {
    clients.emplace_back([&, c] {
      ClientState& state = states[c];
      auto client = net::Client::Connect("127.0.0.1", port, 2000);
      if (!client.ok()) {
        state.Record(client.status());
        ready.fetch_add(1);
        return;
      }
      for (size_t i = 0; i < warmup_per_client; ++i) {
        state.Record(client->Query(streams[c].Next()));
      }
      ready.fetch_add(1);
      while (!go.load()) std::this_thread::yield();
      const int64_t start = start_ns.load();
      state.latency_ms.reserve(1 << 18);
      state.done_s.reserve(1 << 18);
      for (;;) {
        const api::QueryRequest query = streams[c].Next();
        const int64_t sent_ns = Tracer::NowNs();
        if (sent_ns >= stop_ns.load(std::memory_order_relaxed)) break;
        const auto response = client->Query(query);
        const int64_t done = Tracer::NowNs();
        // Only queries answered inside the window count toward it.
        if (done > stop_ns.load()) break;
        if (state.Record(response)) {
          state.latency_ms.push_back(static_cast<double>(done - sent_ns) *
                                     1e-6);
          state.done_s.push_back(static_cast<double>(done - start) * 1e-9);
        }
        if (sent != nullptr) (*sent)[c].push_back(query);
      }
    });
  }
  while (ready.load() < n) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  LoadResult result;
  ResetPeakRss();
  const CpuTicks ticks_before = ReadCpuTicks();
  const double cpu_before = ProcessCpuSeconds();
  const int64_t start = Tracer::NowNs();
  start_ns.store(start);
  go.store(true);
  window();
  const int64_t end = Tracer::NowNs();
  stop_ns.store(end);
  for (std::thread& client : clients) client.join();
  result.seconds = static_cast<double>(end - start) * 1e-9;
  result.cpu_s = ProcessCpuSeconds() - cpu_before;
  result.steal_pct = StealPct(ticks_before, ReadCpuTicks());
  result.peak_rss_mb = PeakRssMb();

  for (ClientState& state : states) {
    result.attempted += state.attempted;
    result.transport_errors += state.transport_errors;
    result.shed += state.shed;
    result.rejected += state.rejected;
    result.other_errors += state.other_errors;
    if (result.first_error.empty()) result.first_error = state.first_error;
    result.latency_ms.insert(result.latency_ms.end(), state.latency_ms.begin(),
                             state.latency_ms.end());
    result.done_s.insert(result.done_s.end(), state.done_s.begin(),
                         state.done_s.end());
  }
  return result;
}

SliceStats MedianSlice(const LoadResult& load, size_t answers_per_slice) {
  std::vector<size_t> order(load.done_s.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&load](size_t a, size_t b) {
    return load.done_s[a] < load.done_s[b];
  });
  // A short window (the quick mode) is one partial slice; otherwise the
  // trailing partial slice is left out.
  const size_t n = std::max<size_t>(
      1, std::min(answers_per_slice, order.size()));
  std::vector<double> qps, p50;
  double slice_start = 0.0;
  for (size_t begin = 0; begin + n <= order.size(); begin += n) {
    std::vector<double> latency;
    for (size_t i = begin; i < begin + n; ++i) {
      latency.push_back(load.latency_ms[order[i]]);
    }
    const double slice_end = load.done_s[order[begin + n - 1]];
    qps.push_back(static_cast<double>(n) / (slice_end - slice_start));
    slice_start = slice_end;
    p50.push_back(Percentile(std::move(latency), 0.50));
  }
  SliceStats stats;
  stats.slices = qps.size();
  stats.qps = Median(qps);
  stats.p50_ms = Median(p50);
  return stats;
}

}  // namespace hypermine::perfbench
