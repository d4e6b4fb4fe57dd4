#ifndef HYPERMINE_API_ENGINE_H_
#define HYPERMINE_API_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "api/model.h"
#include "serve/rule_index.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace hypermine::api {

/// Largest item set a single query may name. TopKWithin scans the items'
/// owned tail-set ranges, so it reads at most the tail-set groups the
/// items own, and its merge heap holds one slice per group whose whole
/// tail is among the items; the cap bounds both and keeps a hostile
/// request from pinning a serving reactor.
inline constexpr size_t kMaxQueryItems = 64;

/// One association query: "given these items, what follows?". Items may be
/// given by vertex name (resolved against the live model at answer time —
/// the robust form across hot swaps, since vertex ids are per-model) or by
/// id (`items`, used only when `names` is empty).
struct QueryRequest {
  std::vector<std::string> names;
  std::vector<core::VertexId> items;
  size_t k = 10;
  /// kTopK ranks consequents of tail subsets of the item set by ACV;
  /// kReachable computes the forward closure under min_acv
  /// (B-reachability).
  enum class Kind { kTopK, kReachable } kind = Kind::kTopK;
  /// Only used by kReachable.
  double min_acv = 0.0;
};

/// A successful answer. `model_version` is the version() of the model that
/// produced it — across a Swap, callers can tell old answers from new.
struct QueryResponse {
  /// kTopK answers (best ACV first).
  std::vector<serve::RankedConsequent> ranked;
  /// kReachable answer (sorted vertex ids, includes the seeds).
  std::vector<core::VertexId> closure;
  uint64_t model_version = 0;
  /// True when served from the engine's result cache.
  bool from_cache = false;
};

/// Tuning knobs for an Engine; the defaults serve correctly out of the
/// box. All fields are read once at construction.
struct EngineOptions {
  /// Threads that answer one QueryBatch, the calling thread included;
  /// 0 = hardware concurrency (at least 1). At 1 the engine starts no
  /// thread and answers every batch on its caller; at N > 1 it owns N - 1
  /// helper threads.
  size_t num_threads = 0;
  /// LRU result-cache capacity in entries; 0 disables caching.
  size_t cache_capacity = 4096;
};

/// Lifetime counters of the engine's result cache (monotonic; a Swap
/// purges entries but never resets the counters).
struct CacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
};

/// The serving half of the API: answers association queries against a hot-
/// swappable, immutable Model. One Engine owns the helper threads a batch
/// fans out on (none at num_threads = 1), an exact LRU result cache under
/// one lock (a query holds it for one map lookup and a copy of its
/// answer), and a shared_ptr<const Model> slot.
///
/// Hot swap: Swap(new_model) atomically replaces the slot. Queries acquire
/// the model pointer once per batch, so in-flight batches finish against
/// the model they started with (kept alive by their shared_ptr) while
/// every batch submitted after Swap returns sees only the new model — no
/// drain, no downtime. The cache key leads with the model version, so a
/// swap coherently invalidates: entries computed against an old model can
/// never answer for the new one (Swap also purges them eagerly).
class Engine {
 public:
  /// `model` must be non-null.
  explicit Engine(std::shared_ptr<const Model> model,
                  EngineOptions options = {});

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Atomically replaces the served model (non-null). In-flight batches
  /// complete against the previous model; subsequent queries see only
  /// `model`.
  void Swap(std::shared_ptr<const Model> model);

  /// The currently served model.
  std::shared_ptr<const Model> model() const;

  /// Answers a batch; result i corresponds to requests[i], each with its
  /// own StatusOr (one malformed query does not fail the batch). The
  /// calling thread answers, joined by the engine's helpers when it has
  /// any. Thread-safe — concurrent batches share the helpers. All
  /// answers within one batch come from the same model; when `model_out`
  /// is non-null it receives exactly that model, so a caller that must
  /// post-process answers (e.g. resolve vertex ids to names for the wire)
  /// can do so against the right graph even while Swap races the batch —
  /// re-reading model() after the call could observe a newer model.
  std::vector<StatusOr<QueryResponse>> QueryBatch(
      const std::vector<QueryRequest>& requests,
      std::shared_ptr<const Model>* model_out = nullptr);

  /// Answers one query on the calling thread.
  /// `model_out` has QueryBatch semantics: the model that answered.
  StatusOr<QueryResponse> Query(
      const QueryRequest& request,
      std::shared_ptr<const Model>* model_out = nullptr);

  /// Threads that answer one batch, the caller included.
  size_t num_threads() const {
    return pool_ == nullptr ? 1 : pool_->num_threads() + 1;
  }
  /// Snapshot of the result-cache counters. Thread-safe.
  CacheStats cache_stats() const;
  /// Entries currently cached. Thread-safe.
  size_t cache_entries() const;
  /// Lifetime count of Swap() calls (monotonic, thread-safe) — the
  /// observability layer bridges it into `hypermine_model_swaps_total`.
  uint64_t swap_count() const {
    return swap_count_.load(std::memory_order_relaxed);
  }

 private:
  struct CacheEntry {
    std::string key;
    uint64_t model_version = 0;
    QueryResponse response;
  };

  StatusOr<QueryResponse> Process(const Model& model,
                                  const QueryRequest& request);
  /// Canonical cache key (leads with the model version). Only called on
  /// validated queries — `items` is the resolved, non-empty item set.
  static std::string CacheKey(uint64_t model_version,
                              const QueryRequest& request,
                              const std::vector<core::VertexId>& items);

  mutable Mutex model_mutex_;
  std::shared_ptr<const Model> model_ HM_GUARDED_BY(model_mutex_);
  std::atomic<uint64_t> swap_count_{0};

  /// Immutable after construction, so the cache-enabled check on the query
  /// hot path needs no lock.
  const size_t cache_capacity_;
  /// The result cache: LRU list (front = most recent), a map from key into
  /// it, and the counters, all under one lock.
  mutable Mutex cache_mutex_;
  std::list<CacheEntry> lru_ HM_GUARDED_BY(cache_mutex_);
  std::unordered_map<std::string, std::list<CacheEntry>::iterator> cache_
      HM_GUARDED_BY(cache_mutex_);
  CacheStats cache_stats_ HM_GUARDED_BY(cache_mutex_);

  /// The helpers that join a batch's caller; null at one thread.
  std::unique_ptr<ThreadPool> pool_;
};

/// What ReloadEngineFromFile did, for logging and counters.
struct ReloadReport {
  /// OK iff the engine is now serving the new model. A non-OK status with
  /// rolled_back=false means the new model never went live (load or
  /// pre-swap verification failed); with rolled_back=true it went live,
  /// failed the post-swap probe, and the previous model was restored.
  Status status;
  uint64_t old_version = 0;
  /// 0 when the snapshot never produced a model.
  uint64_t new_version = 0;
  bool rolled_back = false;
};

/// Zero-downtime reload with verify-then-swap and automatic rollback:
/// loads `path`, verifies the model can actually serve (forces the lazy
/// index, probes a query) BEFORE swapping it in, swaps, then re-probes
/// through the engine and swaps the old model back if that fails. A
/// corrupt or truncated snapshot therefore never interrupts serving: the
/// worst case is a non-OK report while the old model keeps answering.
///
/// Blocking (snapshot IO + index build) — call it from a worker, never
/// from a reactor or UI thread. Concurrent reloads of one engine must be
/// serialized by the caller (a lost race could roll back the wrong
/// model); hypermine_serve uses a single-threaded reload pool.
ReloadReport ReloadEngineFromFile(Engine* engine, const std::string& path);

}  // namespace hypermine::api

#endif  // HYPERMINE_API_ENGINE_H_
