#include "api/engine.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <utility>

#include "serve/wire.h"
#include "util/fault.h"
#include "util/logging.h"

namespace hypermine::api {

Engine::Engine(std::shared_ptr<const Model> model, EngineOptions options)
    : model_(std::move(model)), cache_capacity_(options.cache_capacity) {
  HM_CHECK(model_ != nullptr);
  // The caller answers too, so N threads need N - 1 helpers.
  const size_t threads = options.num_threads == 0
                             ? ThreadPool::HardwareThreads()
                             : options.num_threads;
  if (threads > 1) pool_ = std::make_unique<ThreadPool>(threads - 1);
}

void Engine::Swap(std::shared_ptr<const Model> model) {
  HM_CHECK(model != nullptr);
  const uint64_t live_version = model->version();
  {
    MutexLock lock(model_mutex_);
    model_.swap(model);
  }
  swap_count_.fetch_add(1, std::memory_order_relaxed);
  // Eagerly purge entries of other versions. Keying alone already makes
  // them unreachable (the key leads with the model version); the purge
  // stops a dead model's answers from occupying capacity until LRU
  // pressure pushes them out.
  MutexLock lock(cache_mutex_);
  for (auto it = lru_.begin(); it != lru_.end();) {
    if (it->model_version != live_version) {
      cache_.erase(it->key);
      it = lru_.erase(it);
    } else {
      ++it;
    }
  }
}

std::shared_ptr<const Model> Engine::model() const {
  MutexLock lock(model_mutex_);
  return model_;
}

std::string Engine::CacheKey(uint64_t model_version,
                             const QueryRequest& request,
                             const std::vector<core::VertexId>& items) {
  // TopKWithin and Reachable are both insensitive to item order and
  // duplicates, so the canonical form is the sorted unique item set.
  std::vector<core::VertexId> canonical = items;
  std::sort(canonical.begin(), canonical.end());
  canonical.erase(std::unique(canonical.begin(), canonical.end()),
                  canonical.end());
  std::string key;
  key.reserve(32 + 4 * canonical.size());
  serve::AppendPod<uint64_t>(&key, model_version);
  serve::AppendPod<uint8_t>(
      &key, request.kind == QueryRequest::Kind::kTopK ? 0 : 1);
  serve::AppendPod<uint64_t>(
      &key, request.kind == QueryRequest::Kind::kTopK ? request.k : 0);
  double min_acv =
      request.kind == QueryRequest::Kind::kReachable ? request.min_acv : 0;
  serve::AppendPod<double>(&key, min_acv);
  for (core::VertexId v : canonical) serve::AppendPod<uint32_t>(&key, v);
  return key;
}

StatusOr<QueryResponse> Engine::Process(const Model& model,
                                        const QueryRequest& request) {
  // Names win over ids: they are the form that stays meaningful across hot
  // swaps (ids are per-model). The size is checked before any name is
  // resolved, so an oversized set is refused whatever names it holds.
  const size_t num_items = request.names.empty() ? request.items.size()
                                                 : request.names.size();
  if (num_items == 0) {
    return Status::InvalidArgument("query: empty item set");
  }
  if (num_items > kMaxQueryItems) {
    return Status::InvalidArgument(
        "query: item set larger than kMaxQueryItems");
  }
  std::vector<core::VertexId> items;
  if (!request.names.empty()) {
    items.reserve(num_items);
    for (const std::string& name : request.names) {
      auto v = model.FindVertex(name);
      if (!v.has_value()) {
        return Status::NotFound("query: unknown vertex \"" + name + "\"");
      }
      items.push_back(*v);
    }
  } else {
    items = request.items;
  }
  // A NaN threshold compares false against every ACV, so it would fire
  // every rule.
  if (request.kind == QueryRequest::Kind::kReachable &&
      std::isnan(request.min_acv)) {
    return Status::InvalidArgument("query: min_acv is NaN");
  }

  // Only pay for key canonicalization when a cache exists.
  std::string key;
  if (cache_capacity_ > 0) {
    key = CacheKey(model.version(), request, items);
    MutexLock lock(cache_mutex_);
    auto it = cache_.find(key);
    if (it != cache_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      ++cache_stats_.hits;
      QueryResponse hit = it->second->response;
      hit.from_cache = true;
      return hit;
    }
    ++cache_stats_.misses;
  }

  QueryResponse response;
  response.model_version = model.version();
  switch (request.kind) {
    case QueryRequest::Kind::kTopK:
      response.ranked = model.index().TopKWithin(items, request.k);
      break;
    case QueryRequest::Kind::kReachable:
      response.closure = model.index().Reachable(items, request.min_acv);
      break;
  }

  if (cache_capacity_ > 0) {
    MutexLock lock(cache_mutex_);
    // A concurrent query for the same key may have inserted while this
    // one computed; its entry stands.
    auto [it, inserted] = cache_.try_emplace(std::move(key));
    if (inserted) {
      lru_.push_front(CacheEntry{it->first, model.version(), response});
      it->second = lru_.begin();
      if (lru_.size() > cache_capacity_) {
        cache_.erase(lru_.back().key);
        lru_.pop_back();
        ++cache_stats_.evictions;
      }
    }
  }
  return response;
}

std::vector<StatusOr<QueryResponse>> Engine::QueryBatch(
    const std::vector<QueryRequest>& requests,
    std::shared_ptr<const Model>* model_out) {
  // Chaos-only stall: lets tests hold the calling thread (a server's
  // reactor) inside a batch long enough to pile up queue wait and trip the
  // server's load shedder.
  fault::MaybeDelay("engine.batch");
  // One model acquisition per batch: every answer in the batch comes from
  // the same model, and a concurrent Swap cannot tear the batch.
  std::shared_ptr<const Model> model = this->model();
  if (model_out != nullptr) *model_out = model;
  // Every index is answered below; the placeholder never escapes.
  std::vector<StatusOr<QueryResponse>> results(requests.size(),
                                               Status::Internal("unanswered"));
  auto answer = [this, &model, &requests, &results](size_t i) {
    results[i] = Process(*model, requests[i]);
  };
  if (pool_ == nullptr) {
    for (size_t i = 0; i < requests.size(); ++i) answer(i);
  } else {
    pool_->ParallelFor(requests.size(), answer);
  }
  return results;
}

StatusOr<QueryResponse> Engine::Query(
    const QueryRequest& request, std::shared_ptr<const Model>* model_out) {
  std::shared_ptr<const Model> model = this->model();
  if (model_out != nullptr) *model_out = model;
  return Process(*model, request);
}

CacheStats Engine::cache_stats() const {
  MutexLock lock(cache_mutex_);
  return cache_stats_;
}

size_t Engine::cache_entries() const {
  MutexLock lock(cache_mutex_);
  return lru_.size();
}

namespace {

/// A query any servable model should answer cleanly: the first vertex by
/// name. Empty models (no vertices) skip the probe — there is nothing to
/// ask them.
std::optional<QueryRequest> ProbeRequest(const Model& model) {
  if (model.num_vertices() == 0) return std::nullopt;
  QueryRequest probe;
  probe.names.push_back(model.graph().vertex_name(0));
  probe.k = 1;
  return probe;
}

}  // namespace

ReloadReport ReloadEngineFromFile(Engine* engine, const std::string& path) {
  HM_CHECK(engine != nullptr);
  ReloadReport report;
  const std::shared_ptr<const Model> previous = engine->model();
  report.old_version = previous->version();

  auto loaded = Model::FromFile(path);
  if (!loaded.ok()) {
    report.status = loaded.status();
    return report;
  }
  std::shared_ptr<const Model> fresh = std::move(loaded).value();
  report.new_version = fresh->version();

  // Pre-swap verification: force the lazy index and answer a probe against
  // the model directly. A snapshot that parses but cannot serve must never
  // reach the engine slot.
  const std::optional<QueryRequest> probe = ProbeRequest(*fresh);
  if (probe.has_value()) {
    const core::VertexId probe_items[] = {0};
    (void)fresh->index().TopKWithin(probe_items, 1);
  }

  engine->Swap(fresh);

  // Post-swap probe through the engine itself (resolve, cache, batch
  // plumbing). On failure the previous model comes back — serving never
  // sees the bad one again.
  Status live = Status::OK();
  if (probe.has_value()) {
    auto answered = engine->Query(*probe);
    live = answered.status();
  }
  if (fault::ShouldFail("reload.verify")) {
    live = Status::Internal("injected fault: reload.verify");
  }
  if (!live.ok()) {
    engine->Swap(previous);
    report.rolled_back = true;
    report.status = Status(
        StatusCode::kFailedPrecondition,
        "post-swap probe failed, previous model restored: " +
            live.ToString());
    return report;
  }
  report.status = Status::OK();
  return report;
}

}  // namespace hypermine::api
