#ifndef HYPERMINE_API_MODEL_H_
#define HYPERMINE_API_MODEL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "api/model_spec.h"
#include "core/builder.h"
#include "core/database.h"
#include "core/hypergraph.h"
#include "serve/rule_index.h"
#include "util/status.h"

namespace hypermine {
class ThreadPool;
}

namespace hypermine::api {

/// An immutable, servable association model: the γ-significant directed
/// hypergraph (Definition 3.6), the stats of its construction, the
/// ModelSpec that produced it, and a lazily built serve::RuleIndex for
/// answering queries. Models are created built (Build), loaded (FromFile)
/// or wrapped (FromGraph) and handed around as shared_ptr<const Model>,
/// which is what makes api::Engine's hot swap safe: in-flight queries keep
/// the old model alive while new callers already see the new one.
///
/// Every Model gets a process-unique, monotonically increasing version();
/// Engine keys its result cache on it so a swap can never serve answers
/// computed against a different model.
class Model {
 public:
  /// Builds a model from a discretized database. Stamps the provenance:
  /// an empty git_sha becomes the compiled-in revision (util/build_info.h)
  /// and a zero created_unix becomes the current time. `pool` is an
  /// optional shared builder pool (see BuildAssociationHypergraph); the
  /// spec's config.k must equal db.num_values().
  static StatusOr<std::shared_ptr<const Model>> Build(
      const core::Database& db, ModelSpec spec, ThreadPool* pool = nullptr);

  /// Loads a model from either a binary snapshot (serve/snapshot.h) or a
  /// WriteHypergraphCsv file, sniffing the format from the leading bytes.
  /// Version >= 2 snapshots restore the full ModelSpec; version-1
  /// snapshots and CSV files load with a default spec. kIoError when the
  /// file cannot be read.
  static StatusOr<std::shared_ptr<const Model>> FromFile(
      const std::string& path);

  /// Wraps an already-built graph (e.g. a filtered or transformed copy of
  /// another model's graph) without re-mining.
  static std::shared_ptr<const Model> FromGraph(core::DirectedHypergraph graph,
                                                ModelSpec spec = {},
                                                core::BuildStats stats = {});

  /// Persists the model as a binary snapshot, spec trailer included, so a
  /// FromFile round trip restores both graph and spec.
  Status SaveSnapshot(const std::string& path) const;

  /// Exports the graph as WriteHypergraphCsv text (the spec does not fit
  /// the CSV schema and is dropped; snapshots are the lossless format).
  Status ExportCsv(const std::string& path) const;

  const core::DirectedHypergraph& graph() const { return graph_; }
  const core::BuildStats& stats() const { return stats_; }
  const ModelSpec& spec() const { return spec_; }
  uint64_t version() const { return version_; }

  /// The read-optimized query index, built on first use (thread-safe) and
  /// shared by every Engine serving this model.
  const serve::RuleIndex& index() const;

  /// Resolves a vertex name against this model's graph (lazily built name
  /// index); nullopt for unknown names.
  std::optional<core::VertexId> FindVertex(std::string_view name) const;

  size_t num_vertices() const { return graph_.num_vertices(); }
  size_t num_edges() const { return graph_.num_edges(); }

  /// One-line human summary: version, sizes, provenance when present.
  std::string ToString() const;

  Model(const Model&) = delete;
  Model& operator=(const Model&) = delete;

 private:
  Model(core::DirectedHypergraph graph, ModelSpec spec,
        core::BuildStats stats);

  core::DirectedHypergraph graph_;
  core::BuildStats stats_;
  ModelSpec spec_;
  uint64_t version_ = 0;

  // The two lazy members below are std::call_once-guarded, not
  // mutex-guarded: written exactly once (under their once_flag) and
  // immutable afterwards, a discipline Clang's thread safety analysis
  // cannot express — the flags stay std::once_flag on purpose, and this
  // class is the repo's one sanctioned <mutex> include outside util/.
  mutable std::once_flag index_once_;
  mutable std::optional<serve::RuleIndex> index_;
  /// Heterogeneous lookup so FindVertex(string_view) — the per-item hot
  /// path of every named query — probes without allocating a std::string.
  struct NameHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };
  mutable std::once_flag names_once_;
  mutable std::unordered_map<std::string, core::VertexId, NameHash,
                             std::equal_to<>>
      name_index_;
};

}  // namespace hypermine::api

#endif  // HYPERMINE_API_MODEL_H_
