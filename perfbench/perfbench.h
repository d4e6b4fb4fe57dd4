// Shared declarations of the repository benchmark (README.md in this
// directory describes the workloads, metrics and how to run it).
#ifndef HYPERMINE_PERFBENCH_PERFBENCH_H_
#define HYPERMINE_PERFBENCH_PERFBENCH_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "api/engine.h"
#include "api/model.h"
#include "core/builder.h"
#include "core/database.h"
#include "net/server.h"
#include "util/metrics.h"
#include "util/mutex.h"
#include "util/rng.h"
#include "util/status.h"

namespace hypermine::perfbench {

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// Everything that differs between workloads. The numbers are fixed here,
/// not read from flags, so every run of a workload measures the same
/// shape; only --seed changes the generated inputs.
struct WorkloadSpec {
  std::string name;
  /// Market generator scale (src/market), mined under configuration C1.
  size_t series = 0;
  size_t years = 0;
  /// Closed-loop clients, each owning one connection.
  size_t connections = 0;
  /// What the clients send: the topk mix or the reach mix.
  api::QueryRequest::Kind query_kind = api::QueryRequest::Kind::kTopK;
  /// Queries each client sends before the measured window starts.
  size_t warmup_per_client = 0;
  /// Fixed sample of the workload's queries checked before measuring.
  size_t check_queries = 0;
  /// Complete set-ups per run; setup_s is their median.
  size_t setup_reps = 0;
  /// Publish cycles run beside the reads (publish workload only).
  bool publish = false;
};

/// Threads Model::Build uses, in set-up and in every publish cycle.
inline constexpr size_t kBuildThreads = 2;

StatusOr<WorkloadSpec> SpecFor(const std::string& name, bool quick);

// ---------------------------------------------------------------------------
// Query generation (seeded; the program only ever sees the results)
// ---------------------------------------------------------------------------

/// The run seed's high 32 bits pick the market generator's seed: every seed
/// below 2^32 mines the same paper-scale database (the generator's default
/// seed), k * 2^32 + s mines the k-th other one. Models of different market
/// seeds differ by up to 12% in hyperedges and 40% in reach cost, more than
/// any bound could absorb, so run-to-run spread is measured on one model.
uint64_t MarketSeed(uint64_t seed);

/// Derives independent query-stream seeds from the run seed.
uint64_t StreamSeed(uint64_t seed, uint64_t stream);

/// Infinite, seeded query sequence over a model's vertex names.
///   topk:  k=10, 1-3 distinct vertices drawn uniformly.
///   reach: 2-3 distinct seeds drawn uniformly, min_acv in {0.6, 0.7, 0.8}.
class QueryStream {
 public:
  QueryStream(const std::vector<std::string>* names,
              api::QueryRequest::Kind kind, uint64_t seed);

  api::QueryRequest Next();

 private:
  const std::vector<std::string>* names_;
  api::QueryRequest::Kind kind_;
  Rng rng_;
};

/// Stream ids: client c's sequence is stream c; the rest sit above.
inline constexpr uint64_t kCheckStream = 1000;
inline constexpr uint64_t kOtherKindStream = 2000;

// ---------------------------------------------------------------------------
// Deployment: the server under test and how it was set up
// ---------------------------------------------------------------------------

struct SetupTimes {
  double total_s = 0.0;
  double generate_s = 0.0;
  double build_s = 0.0;
  /// SaveSnapshot start until ReloadEngineFromFile returned OK.
  double publish_s = 0.0;
  double server_s = 0.0;
};

/// One complete set-up: database, first build, engine serving the model
/// loaded back from its snapshot, and a started server. Member order is
/// destruction order in reverse: the server stops before the engine it
/// borrows and the registry it publishes into go away.
struct Deployment {
  std::optional<core::Database> db;
  api::ModelSpec spec;
  core::BuildStats first_stats;
  size_t num_vertices = 0;
  size_t num_edges = 0;
  std::string snapshot_path;
  metrics::Registry registry;
  std::unique_ptr<api::Engine> engine;
  std::unique_ptr<net::Server> server;
};

/// Generates the workload's database from `seed`, builds, publishes it into
/// a fresh engine and starts the server with hypermine_serve --listen's
/// defaults; returns once the server answered its first query.
StatusOr<std::unique_ptr<Deployment>> SetUp(const WorkloadSpec& spec,
                                            uint64_t seed,
                                            const std::string& work_dir,
                                            SetupTimes* times);

/// The engine configuration of hypermine_serve --listen: --threads=1 and the
/// default 4096-entry result cache.
api::EngineOptions ServingEngineOptions();

/// True when two builds of one database agree on every BuildStats count
/// and mean (elapsed time excluded).
bool SameBuild(const core::BuildStats& a, const core::BuildStats& b);

struct CycleResult {
  bool ok = false;
  std::string error;
  double build_s = 0.0;
  double publish_s = 0.0;
};

/// One publish cycle: Model::Build with kBuildThreads, SaveSnapshot,
/// ReloadEngineFromFile; then checks the live model against the first
/// build (vertex and edge counts, BuildStats of the new build).
CycleResult PublishCycle(Deployment* deployment);

// ---------------------------------------------------------------------------
// Answer check
// ---------------------------------------------------------------------------

struct CheckResult {
  size_t attempted = 0;
  size_t failed = 0;
  std::string first_error;
};

/// Sends the workload's fixed check sample (its own query stream) over the
/// wire and compares each answer with the one serve::RuleIndex gives on the
/// live graph, and that answer with a full scan of the graph's edges by the
/// definitions (best ACV per head over tails inside the item set; B-closure
/// as a fixpoint). Prints the outcome.
CheckResult CheckAnswers(const WorkloadSpec& spec, uint64_t seed,
                         uint16_t port, const api::Model& live);

// ---------------------------------------------------------------------------
// Host and process readings (Linux /proc)
// ---------------------------------------------------------------------------

struct CpuTicks {
  uint64_t steal = 0;
  uint64_t total = 0;
};
CpuTicks ReadCpuTicks();
/// Stolen share of all CPU time between two readings, in percent.
double StealPct(const CpuTicks& before, const CpuTicks& after);
/// Process user+sys CPU seconds so far.
double ProcessCpuSeconds();
/// Returns freed heap to the OS and resets the peak-RSS mark.
void ResetPeakRss();
/// VmHWM in MiB.
double PeakRssMb();
size_t Nproc();

// ---------------------------------------------------------------------------
// Closed-loop load over the wire
// ---------------------------------------------------------------------------

struct LoadResult {
  uint64_t attempted = 0;
  uint64_t transport_errors = 0;
  /// Answered with a non-kOk code, by kind.
  uint64_t shed = 0;      // kUnavailable
  uint64_t rejected = 0;  // kResourceExhausted
  uint64_t other_errors = 0;
  std::string first_error;
  /// Client-observed latency of every OK query completed in the window, and
  /// when it completed, in seconds since the window started.
  std::vector<double> latency_ms;
  std::vector<double> done_s;
  double seconds = 0.0;
  double steal_pct = 0.0;
  double cpu_s = 0.0;
  double peak_rss_mb = 0.0;
  uint64_t failed() const {
    return transport_errors + shed + rejected + other_errors;
  }
};

/// Runs `connections` client threads against `port`. Each sends its warm-up
/// queries, then all start together and keep one query in flight until
/// `window` returns and the stop flag is set. `window` runs on the calling
/// thread while the clients measure (a sleep, or publish cycles). When
/// `sent` is set it receives, per client, the queries counted in the window,
/// so the traced run can replay exactly them.
LoadResult RunClosedLoop(
    uint16_t port, std::vector<QueryStream> streams, size_t warmup_per_client,
    const std::function<void()>& window,
    std::vector<std::vector<api::QueryRequest>>* sent = nullptr);

/// Throughput and median latency per slice of a window, each the median over
/// the slices. A slice is `answers_per_slice` consecutive answers in
/// completion order, so every slice rests on the same sample count whatever
/// the workload's rate. A stall that covers less than half of the slices
/// does not move the medians; steal spread over the whole window does.
struct SliceStats {
  size_t slices = 0;
  double qps = 0.0;
  double p50_ms = 0.0;
};
SliceStats MedianSlice(const LoadResult& load, size_t answers_per_slice);

/// Answers per slice: a slice's median has 55 answers on each side, and a
/// slice lasts well under the bursts of host contention seen on shared
/// virtual machines (a few ms on topk, about 0.3 s on reach).
inline constexpr size_t kSliceAnswers = 110;

// ---------------------------------------------------------------------------
// Spans (traced run only)
// ---------------------------------------------------------------------------

/// One timed call into a layer. Spans of the same query share `request`
/// across the wire, engine and index replays; `parent` is the enclosing
/// span's id (0 for a root).
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  double seconds() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
};

/// In-memory span store: each recording thread appends to a buffer of its
/// own, so recording takes no lock; Collect merges them when the run ends.
class Tracer {
 public:
  using Buffer = std::vector<Span>;

  /// A buffer for the calling thread, owned by the tracer.
  Buffer* NewBuffer();
  uint64_t NextId() { return next_id_.fetch_add(1) + 1; }
  static int64_t NowNs();

  /// All spans recorded so far, in id order.
  std::vector<Span> Collect() const;

 private:
  std::atomic<uint64_t> next_id_{0};
  mutable Mutex mutex_;
  std::vector<std::unique_ptr<Buffer>> buffers_ HM_GUARDED_BY(mutex_);
};

/// Records [construction, destruction) as a span into `buffer`. A null
/// buffer records nothing, so untraced and traced paths share code.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, Tracer::Buffer* buffer, const char* name,
             uint64_t parent = 0, uint64_t request = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return span_.id; }

 private:
  Tracer::Buffer* buffer_;
  Span span_;
};

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  /// Optional human note printed beside the value (sample counts, bases).
  std::string note;
};

/// What a run reports on its last line.
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
};

/// The traced run: every per-layer metric of one workload.
StatusOr<RunResult> RunTraced(const WorkloadSpec& spec, uint64_t seed,
                              double seconds, const std::string& work_dir);

/// Sorted-sample percentile (p in [0,1]), nearest rank.
double Percentile(std::vector<double> values, double p);
double Median(std::vector<double> values);

}  // namespace hypermine::perfbench

#endif  // HYPERMINE_PERFBENCH_PERFBENCH_H_
