#ifndef HYPERMINE_SERVE_RULE_INDEX_H_
#define HYPERMINE_SERVE_RULE_INDEX_H_

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "core/hypergraph.h"

namespace hypermine::serve {

/// One ranked answer to "given these items, what follows?": a consequent
/// vertex with the ACV of the hyperedge that produced it.
struct RankedConsequent {
  core::VertexId head = core::kNoVertex;
  double acv = 0.0;
  core::EdgeId edge = 0;

  friend bool operator==(const RankedConsequent&,
                         const RankedConsequent&) = default;
};

/// Read-optimized index over a built association hypergraph. It stores
/// one 16-byte record per hyperedge (ACV, head, edge id), grouped by tail
/// set with each group's consequents pre-sorted by descending ACV (ties:
/// smaller head first). The groups are numbered in tail order, so the
/// groups whose smallest tail vertex is v (the groups v owns) form one
/// range, and v's singleton tail, when it has rules, is that range's last
/// group. No query sorts or hashes: TopK binary-searches one owner range,
/// TopKWithin scans the items' owner ranges and merges the groups whose
/// whole tail is among the items best first, and a closure keeps one
/// counter per tail set, not per hyperedge. The index copies what it needs
/// and does not retain a reference to the source graph.
class RuleIndex {
 public:
  /// Builds the index in O(E log E): one counting pass buckets the edges
  /// by smallest tail vertex, then each bucket is sorted on its own.
  static RuleIndex Build(const core::DirectedHypergraph& graph);

  /// Consequents of the *exact* tail set (order-insensitive), best ACV
  /// first, at most k entries. Unknown or invalid tails yield an empty
  /// result — absence of rules is not an error on the serving path.
  /// Costs a binary search over the groups the tail's smallest vertex owns.
  std::vector<RankedConsequent> TopK(std::span<const core::VertexId> tail,
                                     size_t k) const;

  /// Consequents of every hyperedge whose tail is a subset of `items`
  /// (the paper's association query: "given items {A, B}, what are the
  /// top-k consequents?"), best ACV first (ties: smaller head first), at
  /// most k heads. A head reachable through several tails is reported
  /// once with its best ACV; when several edges give it that ACV, the
  /// witness is the one with the smallest edge id.
  /// Scans the items' owned tail-set ranges: for each item, the groups it
  /// owns whose second tail vertex is at most the largest item, then its
  /// singleton. Then one heap pop per entry read until k distinct heads
  /// are out (a best-first merge of the fired groups' ACV-sorted slices).
  /// Scratch is one bit per vertex; no per-query map.
  std::vector<RankedConsequent> TopKWithin(
      std::span<const core::VertexId> items, size_t k) const;

  /// Forward closure under B-reachability: starting from `seeds`, a
  /// hyperedge fires when its whole tail is already reachable and its ACV
  /// is >= min_acv, making its head reachable. Returns the closure
  /// (including the seeds), sorted ascending. Mirrors SCC/reachability
  /// notions on directed hypergraphs (Allamigeon, arXiv:1112.1444).
  /// Costs one byte of scratch per tail set and per vertex: a tail set's
  /// consequents are read once its last tail vertex is reached, best ACV
  /// first, stopping at the first below min_acv. The walk ends as soon as
  /// the closure holds every vertex.
  std::vector<core::VertexId> Reachable(std::span<const core::VertexId> seeds,
                                        double min_acv) const;

  size_t num_tail_sets() const { return group_tail_.size(); }
  size_t num_entries() const { return entries_.size(); }
  size_t num_vertices() const { return num_vertices_; }

 private:
  /// One stored consequent. RankedConsequent's field order pads it to 24
  /// bytes; this order packs the same fields into 16, 8 bytes less per
  /// edge (14.4 MiB at paper scale). Only answers are converted.
  struct Entry {
    double acv;
    core::VertexId head;
    core::EdgeId edge;

    RankedConsequent Ranked() const { return {head, acv, edge}; }
  };
  static_assert(sizeof(Entry) == 16, "index records must stay 16 bytes");

  /// Consequents of one tail-set group, best ACV first.
  std::span<const Entry> GroupEntries(uint32_t group) const {
    return {entries_.data() + group_begin_[group],
            entries_.data() + group_begin_[group + 1]};
  }

  /// A tail set, sorted ascending. An empty slot holds num_vertices_: it
  /// sorts after every vertex, so tail order puts a vertex's singleton
  /// after its pairs and triples, and scratch indexed by vertex keeps one
  /// extra bit for it.
  using Tail = std::array<core::VertexId, core::kMaxTailSize>;

  size_t num_vertices_ = 0;
  /// Consequents, grouped by tail set in tail order, each group sorted by
  /// ACV desc (ties: smaller head first); group g's are
  /// entries_[group_begin_[g], group_begin_[g + 1]).
  std::vector<Entry> entries_;
  std::vector<uint32_t> group_begin_;
  /// Per group, its tail set, ascending.
  std::vector<Tail> group_tail_;
  /// Vertex v owns groups [owner_begin_[v], owner_begin_[v + 1]): those
  /// whose smallest tail vertex is v.
  std::vector<uint32_t> owner_begin_;
  /// Per group, its tail size: the starting value of Reachable()'s
  /// "tail vertices still missing" counters.
  std::vector<uint8_t> group_tail_size_;
  /// Per vertex, the groups whose tail contains it.
  std::vector<std::vector<uint32_t>> tail_groups_;
};

}  // namespace hypermine::serve

#endif  // HYPERMINE_SERVE_RULE_INDEX_H_
