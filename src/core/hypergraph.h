#ifndef HYPERMINE_CORE_HYPERGRAPH_H_
#define HYPERMINE_CORE_HYPERGRAPH_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "util/status.h"

namespace hypermine::core {

/// Vertex identifier within a hypergraph.
using VertexId = uint32_t;
/// Hyperedge identifier (index into edges()).
using EdgeId = uint32_t;

/// Sentinel for absent tail slots.
inline constexpr VertexId kNoVertex = 0xFFFFFFFFu;
/// Maximum tail size supported by the structure. Association hypergraphs
/// (Definition 3.6) restrict |T| <= 2; the structure itself allows 3 so the
/// general notions of Chapter 3 (e.g. Example 3.12) are expressible.
inline constexpr size_t kMaxTailSize = 3;
/// Maximum supported vertex count. Lookup keys pack four 32-bit ids into a
/// 128-bit key, so any id below the kNoVertex sentinel is addressable —
/// the 10⁵–10⁶-vertex regime of mined hypergraphs fits with room to spare.
inline constexpr size_t kMaxVertices = 0xFFFFFFFE;

/// A directed hyperedge (T, H) with 1 <= |T| <= 3 and |H| = 1. `tail` is
/// sorted ascending with kNoVertex padding. `weight` carries ACV(T, H).
struct Hyperedge {
  VertexId tail[kMaxTailSize] = {kNoVertex, kNoVertex, kNoVertex};
  VertexId head = kNoVertex;
  double weight = 0.0;

  size_t tail_size() const {
    if (tail[1] == kNoVertex) return 1;
    return tail[2] == kNoVertex ? 2 : 3;
  }
  bool is_pair() const { return tail_size() == 2; }
  bool TailContains(VertexId v) const {
    return tail[0] == v || tail[1] == v || tail[2] == v;
  }
  std::span<const VertexId> TailSpan() const {
    return {tail, tail_size()};
  }
};

/// A directed hypergraph over named vertices with small tail sets and
/// singleton heads — the association hypergraph of Definition 3.6.
/// Maintains in/out incidence lists and an exact-edge lookup table, used by
/// AddEdge's duplicate check and by FindEdge (the similarity measures of
/// Definition 3.11).
///
/// The exact-edge table is open-addressed with linear probing: a
/// power-of-two array of 4-byte edge ids, kept at most half full. Slots
/// store no keys; a slot's (T, H) is read back from the edge it names.
/// It doubles as edges are added; ReserveEdges sizes it (and the edge
/// array) once for a load whose edge count is known up front.
class DirectedHypergraph {
 public:
  /// Creates a hypergraph with `names.size()` vertices. Fails when names is
  /// empty or larger than kMaxVertices.
  static StatusOr<DirectedHypergraph> Create(std::vector<std::string> names);

  /// Convenience with synthetic vertex names "v0", "v1", ...
  static StatusOr<DirectedHypergraph> CreateAnonymous(size_t num_vertices);

  size_t num_vertices() const { return names_.size(); }
  size_t num_edges() const { return edges_.size(); }
  const std::string& vertex_name(VertexId v) const;
  const std::vector<std::string>& vertex_names() const { return names_; }

  /// Adds a hyperedge; tail must hold 1..3 distinct in-range vertices, none
  /// equal to head; weight in [0, 1]. Duplicate (T, H) combinations are
  /// rejected with kAlreadyExists.
  StatusOr<EdgeId> AddEdge(std::vector<VertexId> tail, VertexId head,
                           double weight);

  /// Makes room for `n` edges in total, so that adding up to `n` edges
  /// neither regrows the exact-edge table nor reallocates the edge array.
  void ReserveEdges(size_t n);

  const Hyperedge& edge(EdgeId id) const;
  const std::vector<Hyperedge>& edges() const { return edges_; }

  /// Edge ids whose head is v (in_H(v), Notation 3.9(2)).
  const std::vector<EdgeId>& InEdgeIds(VertexId v) const;
  /// Edge ids whose tail contains v (out_H(v), Notation 3.9(1)).
  const std::vector<EdgeId>& OutEdgeIds(VertexId v) const;

  /// Exact lookup of a (T, H) combination; tail order does not matter.
  std::optional<EdgeId> FindEdge(std::span<const VertexId> tail,
                                 VertexId head) const;

  /// Weighted in-degree of Section 5.2: sum of w(e) over e with head v.
  double WeightedInDegree(VertexId v) const;
  /// Weighted out-degree of Section 5.2: sum of w(e)/|T(e)| over e with v
  /// in the tail.
  double WeightedOutDegree(VertexId v) const;

  /// Counts of |T|=1 directed edges and |T|=2 directed hyperedges.
  size_t NumDirectedEdges() const { return num_by_tail_size_[0]; }
  size_t NumPairEdges() const { return num_by_tail_size_[1]; }

  /// Mean weight of directed edges / 2-to-1 hyperedges (0 when none).
  double MeanDirectedEdgeWeight() const;
  double MeanPairEdgeWeight() const;

  /// Copy containing only edges with weight >= threshold (the
  /// ACV-threshold pruning of Section 5.4).
  DirectedHypergraph FilteredByWeight(double threshold) const;

  /// Weight value such that the top `fraction` of edges (by weight) are
  /// >= the returned threshold; fraction in (0, 1]. Mirrors the paper's
  /// "top 40/30/20% directed hyperedges w.r.t. ACVs" thresholds.
  StatusOr<double> WeightQuantileThreshold(double fraction) const;

  /// Human-readable rendering of one edge, e.g. "HES, SLB -> XOM (0.58)".
  std::string EdgeToString(EdgeId id, int precision = 2) const;

 private:
  /// Exact-lookup key of a (T, H) combination: four 32-bit vertex ids
  /// (sorted tail, kNoVertex padding, head) packed into 128 bits, so the
  /// full VertexId range below the sentinel is addressable without
  /// truncation.
  struct EdgeKey {
    uint64_t hi = 0;  ///< tail[0] << 32 | tail[1]
    uint64_t lo = 0;  ///< tail[2] << 32 | head
    bool operator==(const EdgeKey&) const = default;
  };
  /// Marks an empty slot of the exact-edge table.
  static constexpr EdgeId kEmptySlot = 0xFFFFFFFFu;

  explicit DirectedHypergraph(std::vector<std::string> names);

  static EdgeKey MakeEdgeKey(const VertexId tail[kMaxTailSize],
                             VertexId head);

  /// Index of the slot that holds the edge with `key`, or of the empty
  /// slot where it would be inserted. Requires a non-empty table.
  size_t FindSlot(const EdgeKey& key) const;
  /// Rebuilds the exact-edge table with `capacity` slots (a power of two
  /// at least twice num_edges()).
  void RehashSlots(size_t capacity);

  std::vector<std::string> names_;
  std::vector<Hyperedge> edges_;
  std::vector<std::vector<EdgeId>> in_edges_;
  std::vector<std::vector<EdgeId>> out_edges_;
  std::vector<EdgeId> slots_;  ///< exact-edge table; kEmptySlot = free
  size_t num_by_tail_size_[kMaxTailSize] = {0, 0, 0};
};

}  // namespace hypermine::core

#endif  // HYPERMINE_CORE_HYPERGRAPH_H_
