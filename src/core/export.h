#ifndef HYPERMINE_CORE_EXPORT_H_
#define HYPERMINE_CORE_EXPORT_H_

#include <string>
#include <vector>

#include "approx/gonzalez.h"
#include "core/hypergraph.h"
#include "core/similarity.h"
#include "util/status.h"

namespace hypermine::core {

/// Serializes a hypergraph to CSV: a leading "vertices" record listing all
/// vertex names ('|'-separated), then one record per hyperedge with the
/// tail ('|'-separated names), head name, and weight. Round-trips through
/// ReadHypergraphCsv, including isolated vertices. For the serving path,
/// serve/snapshot.h provides an equivalent (and interconvertible) binary
/// format that loads without parsing; serve::LoadModelFile accepts both.
Status WriteHypergraphCsv(const DirectedHypergraph& graph,
                          const std::string& path);

/// Reads a hypergraph written by WriteHypergraphCsv.
StatusOr<DirectedHypergraph> ReadHypergraphCsv(const std::string& path);

/// Parses WriteHypergraphCsv output from an in-memory buffer (the
/// file-reading half of ReadHypergraphCsv split out, so callers that
/// already hold the bytes — e.g. serve::LoadModelFile's format sniffing —
/// do not re-read the file).
StatusOr<DirectedHypergraph> ParseHypergraphCsv(const std::string& text);

/// One display node of a Figure 5.3-style cluster drawing.
struct ClusterNode {
  std::string label;
  /// Display group (the paper colors by sector); same group = same color.
  std::string group;
};

/// Writes a Graphviz DOT rendering of a clustering over a similarity graph
/// in the layout of Figure 5.3: cluster centers as boxed nodes, members
/// attached to their center, centers interconnected. `nodes` must be
/// index-aligned with the similarity graph's members; clusters smaller
/// than `min_cluster_size` are omitted (the paper shows size > 6).
Status WriteClustersDot(const SimilarityGraph& graph,
                        const approx::Clustering& clustering,
                        const std::vector<ClusterNode>& nodes,
                        size_t min_cluster_size, const std::string& path);

}  // namespace hypermine::core

#endif  // HYPERMINE_CORE_EXPORT_H_
