#include "serve/rule_index.h"

#include <algorithm>
#include <tuple>

namespace hypermine::serve {

RuleIndex RuleIndex::Build(const core::DirectedHypergraph& graph) {
  RuleIndex index;
  const size_t n = graph.num_vertices();
  const auto pad = static_cast<core::VertexId>(n);
  index.num_vertices_ = n;
  index.tail_groups_.resize(n);
  index.owner_begin_.resize(n + 1);

  // Bucket the edges by smallest tail vertex in one counting pass, as
  // records that carry everything the sort and the index read.
  struct Record {
    std::array<core::VertexId, core::kMaxTailSize - 1> rest;  // tail[1..]
    double acv;
    core::VertexId head;
    core::EdgeId edge;
  };
  const std::vector<core::Hyperedge>& edges = graph.edges();
  std::vector<size_t> bucket_begin(n + 1, 0);
  for (const core::Hyperedge& e : edges) ++bucket_begin[e.tail[0] + 1];
  for (size_t v = 0; v < n; ++v) bucket_begin[v + 1] += bucket_begin[v];
  std::vector<size_t> bucket_fill(bucket_begin.begin(), bucket_begin.end());
  auto padded = [pad](core::VertexId t) {
    return t == core::kNoVertex ? pad : t;
  };
  std::vector<Record> records(edges.size());
  for (core::EdgeId id = 0; id < edges.size(); ++id) {
    const core::Hyperedge& e = edges[id];
    records[bucket_fill[e.tail[0]]++] = {
        {padded(e.tail[1]), padded(e.tail[2])}, e.weight, e.head, id};
  }

  // Within a bucket, order by the rest of the tail, then ACV desc (ties:
  // smaller head first, for deterministic serving). A tail's heads are
  // distinct, so this is a total order.
  index.entries_.reserve(records.size());
  for (core::VertexId v = 0; v < n; ++v) {
    const auto first = records.begin() + bucket_begin[v];
    const auto last = records.begin() + bucket_begin[v + 1];
    std::sort(first, last, [](const Record& a, const Record& b) {
      return std::tie(a.rest, b.acv, a.head) < std::tie(b.rest, a.acv, b.head);
    });
    index.owner_begin_[v] = static_cast<uint32_t>(index.group_tail_.size());
    for (auto r = first; r != last; ++r) {
      if (r == first || r->rest != r[-1].rest) {
        const auto group = static_cast<uint32_t>(index.group_tail_.size());
        const Tail tail = {v, r->rest[0], r->rest[1]};
        index.group_tail_.push_back(tail);
        index.group_begin_.push_back(
            static_cast<uint32_t>(index.entries_.size()));
        uint8_t size = 0;
        for (core::VertexId t : tail) {
          if (t == pad) continue;
          index.tail_groups_[t].push_back(group);
          ++size;
        }
        index.group_tail_size_.push_back(size);
      }
      index.entries_.push_back({r->acv, r->head, r->edge});
    }
  }
  index.owner_begin_[n] = static_cast<uint32_t>(index.group_tail_.size());
  index.group_begin_.push_back(static_cast<uint32_t>(index.entries_.size()));
  return index;
}

std::vector<RankedConsequent> RuleIndex::TopK(
    std::span<const core::VertexId> tail, size_t k) const {
  std::vector<RankedConsequent> out;
  if (tail.empty() || tail.size() > core::kMaxTailSize) return out;
  const auto pad = static_cast<core::VertexId>(num_vertices_);
  Tail key = {pad, pad, pad};
  for (size_t i = 0; i < tail.size(); ++i) {
    if (tail[i] >= num_vertices_) return out;
    key[i] = tail[i];
  }
  // A repeated vertex leaves two equal slots, which no stored tail has.
  std::sort(key.begin(), key.end());
  const auto first = group_tail_.begin() + owner_begin_[key[0]];
  const auto last = group_tail_.begin() + owner_begin_[key[0] + 1];
  const auto found = std::lower_bound(first, last, key);
  if (found == last || *found != key) return out;
  std::span<const Entry> group =
      GroupEntries(static_cast<uint32_t>(found - group_tail_.begin()));
  group = group.first(std::min(k, group.size()));
  out.reserve(group.size());
  for (const Entry& entry : group) out.push_back(entry.Ranked());
  return out;
}

std::vector<RankedConsequent> RuleIndex::TopKWithin(
    std::span<const core::VertexId> items, size_t k) const {
  std::vector<RankedConsequent> out;
  if (k == 0 || items.empty()) return out;

  // One bit per vertex, plus one that stands for an empty tail slot,
  // which every item set covers. The scan reads the bits as the item set;
  // the merge then reuses them for the heads it has emitted, so a query's
  // scratch stays one bit per vertex.
  std::vector<bool> marked(num_vertices_ + 1, false);
  marked[num_vertices_] = true;
  std::vector<core::VertexId> owners;
  core::VertexId largest = 0;
  for (core::VertexId v : items) {
    if (v >= num_vertices_ || marked[v]) continue;
    marked[v] = true;
    owners.push_back(v);
    largest = std::max(largest, v);
  }

  // One cursor per group whose whole tail is among the items. Such a
  // group is owned by an item, and its second tail vertex is an item too,
  // or empty for the singleton that ends the owner's range.
  struct Cursor {
    const Entry* next;
    const Entry* end;
  };
  std::vector<Cursor> heap;
  size_t entries = 0;
  auto consider = [this, &marked, &heap, &entries](uint32_t group) {
    const Tail& tail = group_tail_[group];
    if (!marked[tail[1]] || !marked[tail[2]]) return;
    std::span<const Entry> slice = GroupEntries(group);
    heap.push_back({slice.data(), slice.data() + slice.size()});
    entries += slice.size();
  };
  for (core::VertexId v : owners) {
    uint32_t group = owner_begin_[v];
    const uint32_t end = owner_begin_[v + 1];
    for (; group < end && group_tail_[group][1] <= largest; ++group) {
      consider(group);
    }
    if (group < end) consider(end - 1);
  }
  for (core::VertexId v : owners) marked[v] = false;
  std::vector<bool>& emitted = marked;

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
