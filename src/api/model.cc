#include "api/model.h"

#include <atomic>
#include <ctime>
#include <utility>

#include "core/export.h"
#include "serve/snapshot.h"
#include "util/build_info.h"
#include "util/string_util.h"

namespace hypermine::api {

namespace {

/// Process-unique model versions. Starts at 1 so 0 can mean "no model yet"
/// in caller-side bookkeeping.
uint64_t NextVersion() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

Model::Model(core::DirectedHypergraph graph, ModelSpec spec,
             core::BuildStats stats)
    : graph_(std::move(graph)),
      stats_(stats),
      spec_(std::move(spec)),
      version_(NextVersion()) {}

StatusOr<std::shared_ptr<const Model>> Model::Build(const core::Database& db,
                                                    ModelSpec spec,
                                                    ThreadPool* pool) {
  if (spec.provenance.git_sha.empty()) {
    spec.provenance.git_sha = GitSha();
  }
  if (spec.provenance.created_unix == 0) {
    spec.provenance.created_unix =
        static_cast<uint64_t>(std::time(nullptr));
  }
  core::BuildStats stats;
  HM_ASSIGN_OR_RETURN(
      core::DirectedHypergraph graph,
      core::BuildAssociationHypergraph(db, spec.config, &stats, pool));
  return FromGraph(std::move(graph), std::move(spec), stats);
}

StatusOr<std::shared_ptr<const Model>> Model::FromFile(
    const std::string& path) {
  HM_ASSIGN_OR_RETURN(serve::LoadedSnapshot loaded,
                      serve::LoadModelFile(path));
  return FromGraph(std::move(loaded.graph), std::move(loaded.spec));
}

std::shared_ptr<const Model> Model::FromGraph(core::DirectedHypergraph graph,
                                              ModelSpec spec,
                                              core::BuildStats stats) {
  return std::shared_ptr<const Model>(
      new Model(std::move(graph), std::move(spec), stats));
}

Status Model::SaveSnapshot(const std::string& path) const {
  return serve::WriteSnapshot(graph_, spec_, path);
}

Status Model::ExportCsv(const std::string& path) const {
  return core::WriteHypergraphCsv(graph_, path);
}

const serve::RuleIndex& Model::index() const {
  std::call_once(index_once_,
                 [this] { index_ = serve::RuleIndex::Build(graph_); });
  return *index_;
}

std::optional<core::VertexId> Model::FindVertex(std::string_view name) const {
  std::call_once(names_once_, [this] {
    name_index_.reserve(graph_.num_vertices());
    for (core::VertexId v = 0;
         v < static_cast<core::VertexId>(graph_.num_vertices()); ++v) {
      name_index_.emplace(graph_.vertex_name(v), v);
    }
  });
  auto it = name_index_.find(name);
  if (it == name_index_.end()) return std::nullopt;
  return it->second;
}

std::string Model::ToString() const {
  std::string out = StrFormat("model v%llu: %zu vertices, %zu edges",
                              static_cast<unsigned long long>(version_),
                              num_vertices(), num_edges());
  if (!spec_.provenance.git_sha.empty()) {
    out += StrFormat(", git_sha=%s", spec_.provenance.git_sha.c_str());
  }
  if (!spec_.provenance.source.empty()) {
    out += StrFormat(", source=\"%s\"", spec_.provenance.source.c_str());
  }
  return out;
}

}  // namespace hypermine::api
