#ifndef HYPERMINE_SERVE_RULE_INDEX_H_
#define HYPERMINE_SERVE_RULE_INDEX_H_

#include <cstdint>
#include <span>
#include <unordered_map>
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
/// one 16-byte record per hyperedge (ACV, head, edge id), grouped by
/// canonicalized tail set with each group's consequents pre-sorted by
/// descending ACV (ties: smaller head first); a hash map from tail set to
/// group; and, per vertex, the groups whose tail contains it. No query
/// sorts: TopK copies a prefix of one group, TopKWithin merges the
/// groups of the item set's tail subsets best first, and a closure keeps
/// one counter per tail set, not per hyperedge. The index copies what it
/// needs and does not retain a reference to the source graph.
class RuleIndex {
 public:
  /// Builds the index in O(E log E).
  static RuleIndex Build(const core::DirectedHypergraph& graph);

  /// Consequents of the *exact* tail set (order-insensitive), best ACV
  /// first, at most k entries. Unknown or invalid tails yield an empty
  /// result — absence of rules is not an error on the serving path.
  std::vector<RankedConsequent> TopK(std::span<const core::VertexId> tail,
                                     size_t k) const;

  /// Consequents of every hyperedge whose tail is a subset of `items`
  /// (the paper's association query: "given items {A, B}, what are the
  /// top-k consequents?"), best ACV first (ties: smaller head first), at
  /// most k heads. A head reachable through several tails is reported
  /// once with its best ACV; when several edges give it that ACV, the
  /// witness is the one with the smallest edge id.
  /// Costs one group lookup per tail subset of size 1..3, then one heap
  /// pop per entry read until k distinct heads are out (a best-first
  /// merge of the groups' ACV-sorted slices), plus one bit of scratch
  /// per vertex; no per-query map.
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

  size_t num_tail_sets() const { return groups_.size(); }
  size_t num_entries() const { return entries_.size(); }
  size_t num_vertices() const { return num_vertices_; }

  /// Canonical key of a tail set: three full-width 32-bit ids (sorted,
  /// kNoVertex-padded) packed into 128 bits, so no two distinct tails can
  /// collide — same scheme as DirectedHypergraph's edge index key.
  struct Key {
    uint64_t hi = 0;
    uint64_t lo = 0;
    friend bool operator==(const Key&, const Key&) = default;
  };
  struct KeyHasher {
    size_t operator()(const Key& key) const noexcept {
      return core::HashIdKey(key.hi, key.lo);
    }
  };

  /// Canonical key of a tail set; kInvalidTailKey for tails that no
  /// hyperedge can have (empty, too large, out of range, duplicates).
  static Key TailKey(std::span<const core::VertexId> tail);
  /// Unreachable by real tails: the low half of a real key always has its
  /// bottom 32 bits clear (no head field), never all-ones.
  static constexpr Key kInvalidTailKey{~0ull, ~0ull};

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
  /// Consequents of the exact tail set; empty when no rule has that tail.
  std::span<const Entry> Consequents(
      std::span<const core::VertexId> tail) const;

  size_t num_vertices_ = 0;
  /// Consequents, grouped by tail key, each group sorted by ACV desc
  /// (ties: smaller head first).
  std::vector<Entry> entries_;
  /// Tail key -> group id; group g owns
  /// entries_[group_begin_[g], group_begin_[g + 1]).
  std::unordered_map<Key, uint32_t, KeyHasher> groups_;
  std::vector<uint32_t> group_begin_;
  /// Per group, its tail size: the starting value of Reachable()'s
  /// "tail vertices still missing" counters.
  std::vector<uint8_t> group_tail_size_;
  /// Per vertex, the groups whose tail contains it.
  std::vector<std::vector<uint32_t>> tail_groups_;
};

}  // namespace hypermine::serve

#endif  // HYPERMINE_SERVE_RULE_INDEX_H_
