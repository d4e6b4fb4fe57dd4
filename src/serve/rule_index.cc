#include "serve/rule_index.h"

#include <algorithm>
#include <tuple>

namespace hypermine::serve {

RuleIndex::Key RuleIndex::TailKey(std::span<const core::VertexId> tail) {
  if (tail.empty() || tail.size() > core::kMaxTailSize) {
    return kInvalidTailKey;
  }
  core::VertexId sorted[core::kMaxTailSize] = {core::kNoVertex,
                                               core::kNoVertex,
                                               core::kNoVertex};
  for (size_t i = 0; i < tail.size(); ++i) {
    if (tail[i] >= core::kMaxVertices) return kInvalidTailKey;
    sorted[i] = tail[i];
  }
  std::sort(sorted, sorted + tail.size());
  if (tail.size() > 1 &&
      std::adjacent_find(sorted, sorted + tail.size()) !=
          sorted + tail.size()) {
    return kInvalidTailKey;
  }
  // Three full-width 32-bit fields, same packing as
  // DirectedHypergraph::EdgeKey minus the head; kNoVertex pads the unused
  // slots and the low 32 bits of `lo` stay clear, which is what keeps
  // kInvalidTailKey out of reach.
  Key key;
  key.hi = (static_cast<uint64_t>(sorted[0]) << 32) |
           static_cast<uint64_t>(sorted[1]);
  key.lo = static_cast<uint64_t>(sorted[2]) << 32;
  return key;
}

RuleIndex RuleIndex::Build(const core::DirectedHypergraph& graph) {
  RuleIndex index;
  index.num_vertices_ = graph.num_vertices();
  index.tail_groups_.resize(graph.num_vertices());

  // Bucket edge ids by tail key; within a group order by ACV desc (ties:
  // smaller head id first, for deterministic serving).
  const std::vector<core::Hyperedge>& edges = graph.edges();
  std::vector<std::pair<Key, core::EdgeId>> keyed;
  keyed.reserve(edges.size());
  for (core::EdgeId id = 0; id < edges.size(); ++id) {
    keyed.emplace_back(TailKey(edges[id].TailSpan()), id);
  }
  std::sort(keyed.begin(), keyed.end(),
            [&edges](const auto& a, const auto& b) {
              if (a.first != b.first) {
                return std::tie(a.first.hi, a.first.lo) <
                       std::tie(b.first.hi, b.first.lo);
              }
              const core::Hyperedge& ea = edges[a.second];
              const core::Hyperedge& eb = edges[b.second];
              if (ea.weight != eb.weight) return ea.weight > eb.weight;
              return ea.head < eb.head;
            });
  index.entries_.reserve(edges.size());
  for (size_t i = 0; i < keyed.size();) {
    const Key key = keyed[i].first;
    const auto group = static_cast<uint32_t>(index.group_begin_.size());
    const core::Hyperedge& first = edges[keyed[i].second];
    index.groups_.emplace(key, group);
    index.group_begin_.push_back(static_cast<uint32_t>(index.entries_.size()));
    index.group_tail_size_.push_back(static_cast<uint8_t>(first.tail_size()));
    for (core::VertexId v : first.TailSpan()) {
      index.tail_groups_[v].push_back(group);
    }
    for (; i < keyed.size() && keyed[i].first == key; ++i) {
      const core::Hyperedge& e = edges[keyed[i].second];
      index.entries_.push_back({e.weight, e.head, keyed[i].second});
    }
  }
  index.group_begin_.push_back(static_cast<uint32_t>(index.entries_.size()));
  return index;
}

std::span<const RuleIndex::Entry> RuleIndex::Consequents(
    std::span<const core::VertexId> tail) const {
  auto it = groups_.find(TailKey(tail));
  if (it == groups_.end()) return {};
  return GroupEntries(it->second);
}

std::vector<RankedConsequent> RuleIndex::TopK(
    std::span<const core::VertexId> tail, size_t k) const {
  std::span<const Entry> group = Consequents(tail);
  group = group.first(std::min(k, group.size()));
  std::vector<RankedConsequent> out;
  out.reserve(group.size());
  for (const Entry& entry : group) out.push_back(entry.Ranked());
  return out;
}

std::vector<RankedConsequent> RuleIndex::TopKWithin(
    std::span<const core::VertexId> items, size_t k) const {
  std::vector<RankedConsequent> out;
  if (k == 0 || items.empty()) return out;

  // Deduplicated, in-range item set.
  std::vector<core::VertexId> set(items.begin(), items.end());
  std::sort(set.begin(), set.end());
  set.erase(std::unique(set.begin(), set.end()), set.end());
  while (!set.empty() && set.back() >= num_vertices_) set.pop_back();

  // One cursor per non-empty group of a tail subset of size 1..3.
  struct Cursor {
    const Entry* next;
    const Entry* end;
  };
  std::vector<Cursor> heap;
  size_t entries = 0;
  auto consider = [this, &heap, &entries](
                      std::span<const core::VertexId> tail) {
    std::span<const Entry> group = Consequents(tail);
    if (group.empty()) return;
    heap.push_back({group.data(), group.data() + group.size()});
    entries += group.size();
  };
  const size_t n = set.size();
  for (size_t a = 0; a < n; ++a) {
    consider({&set[a], 1});
    for (size_t b = a + 1; b < n; ++b) {
      core::VertexId pair[2] = {set[a], set[b]};
      consider(pair);
      for (size_t c = b + 1; c < n; ++c) {
        core::VertexId triple[3] = {set[a], set[b], set[c]};
        consider(triple);
      }
    }
  }

  // Best-first merge: the heap's top is the best unread entry, by (ACV
  // desc, head asc, edge id asc). Each group is sorted by (ACV desc, head
  // asc) with one entry per head, so entries pop in that order overall: a
  // head's first pop carries its best ACV and, on a tie, the smallest
  // edge id, and heads come out in answer order.
  auto worse = [](const Cursor& x, const Cursor& y) {
    const Entry& a = *x.next;
    const Entry& b = *y.next;
    if (a.acv != b.acv) return a.acv < b.acv;
    if (a.head != b.head) return a.head > b.head;
    return a.edge > b.edge;
  };
  std::make_heap(heap.begin(), heap.end(), worse);
  std::vector<bool> emitted(num_vertices_, false);
  out.reserve(std::min({k, entries, num_vertices_}));
  while (!heap.empty() && out.size() < k) {
    std::pop_heap(heap.begin(), heap.end(), worse);
    Cursor& top = heap.back();
    const Entry& entry = *top.next;
    if (!emitted[entry.head]) {
      emitted[entry.head] = true;
      out.push_back(entry.Ranked());
    }
    if (++top.next == top.end) {
      heap.pop_back();
    } else {
      std::push_heap(heap.begin(), heap.end(), worse);
    }
  }
  return out;
}

std::vector<core::VertexId> RuleIndex::Reachable(
    std::span<const core::VertexId> seeds, double min_acv) const {
  std::vector<char> in_closure(num_vertices_, 0);
  // Tail vertices still missing before each tail set's rules can fire.
  std::vector<uint8_t> missing(group_tail_size_);
  // The closure doubles as the work list: every vertex is expanded once.
  std::vector<core::VertexId> closure;
  auto reach = [&in_closure, &closure](core::VertexId v) {
    if (in_closure[v]) return;
    in_closure[v] = 1;
    closure.push_back(v);
  };
  for (core::VertexId v : seeds) {
    if (v < num_vertices_) reach(v);
  }
  // Once every vertex is in, nothing can grow the closure: stop there
  // rather than read the rest of the fired groups.
  for (size_t i = 0; i < closure.size() && closure.size() < num_vertices_;
       ++i) {
    for (uint32_t group : tail_groups_[closure[i]]) {
      if (--missing[group] != 0) continue;
      // Whole tail reached: its rules fire best ACV first, down to
      // min_acv.
      for (const Entry& entry : GroupEntries(group)) {
        if (entry.acv < min_acv) break;
        reach(entry.head);
      }
      if (closure.size() == num_vertices_) break;
    }
  }
  std::sort(closure.begin(), closure.end());
  return closure;
}

}  // namespace hypermine::serve
