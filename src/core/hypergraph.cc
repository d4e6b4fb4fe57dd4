#include "core/hypergraph.h"

#include <algorithm>
#include <bit>

#include "util/logging.h"
#include "util/string_util.h"

namespace hypermine::core {
namespace {

/// Hash of an exact-edge key, four 32-bit vertex ids packed into 128
/// bits: a splitmix64-style mix of each half, combined with an odd
/// multiplier — cheap, and spreads the low-entropy packed ids across the
/// whole hash range, which linear probing needs to keep its runs short.
size_t HashIdKey(uint64_t hi, uint64_t lo) {
  auto mix = [](uint64_t x) {
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
  };
  return static_cast<size_t>(mix(hi) * 0x9ddfea08eb382d69ull + mix(lo));
}

}  // namespace

DirectedHypergraph::DirectedHypergraph(std::vector<std::string> names)
    : names_(std::move(names)),
      in_edges_(names_.size()),
      out_edges_(names_.size()) {}

StatusOr<DirectedHypergraph> DirectedHypergraph::Create(
    std::vector<std::string> names) {
  if (names.empty()) {
    return Status::InvalidArgument("hypergraph: need at least one vertex");
  }
  if (names.size() > kMaxVertices) {
    return Status::InvalidArgument("hypergraph: too many vertices");
  }
  return DirectedHypergraph(std::move(names));
}

StatusOr<DirectedHypergraph> DirectedHypergraph::CreateAnonymous(
    size_t num_vertices) {
  std::vector<std::string> names;
  names.reserve(num_vertices);
  for (size_t v = 0; v < num_vertices; ++v) {
    names.push_back(StrFormat("v%zu", v));
  }
  return Create(std::move(names));
}

const std::string& DirectedHypergraph::vertex_name(VertexId v) const {
  HM_CHECK_LT(v, names_.size());
  return names_[v];
}

DirectedHypergraph::EdgeKey DirectedHypergraph::MakeEdgeKey(
    const VertexId tail[kMaxTailSize], VertexId head) {
  // Four full-width 32-bit fields — no truncation, so no id below the
  // kNoVertex sentinel can alias another (the old 16-bit packing capped
  // the universe at 0xFFFE vertices).
  EdgeKey key;
  key.hi = (static_cast<uint64_t>(tail[0]) << 32) |
           static_cast<uint64_t>(tail[1]);
  key.lo = (static_cast<uint64_t>(tail[2]) << 32) |
           static_cast<uint64_t>(head);
  return key;
}

size_t DirectedHypergraph::FindSlot(const EdgeKey& key) const {
  // The table is at most half full, so every probe ends at an empty slot.
  const size_t mask = slots_.size() - 1;
  for (size_t i = HashIdKey(key.hi, key.lo) & mask;; i = (i + 1) & mask) {
    const EdgeId id = slots_[i];
    if (id == kEmptySlot) return i;
    const Hyperedge& e = edges_[id];
    if (MakeEdgeKey(e.tail, e.head) == key) return i;
  }
}

void DirectedHypergraph::RehashSlots(size_t capacity) {
  // Stored edges are distinct, so each goes into the first empty slot of
  // its probe, with no key comparison (and no read of another edge).
  slots_.assign(capacity, kEmptySlot);
  const size_t mask = capacity - 1;
  for (EdgeId id = 0; id < edges_.size(); ++id) {
    const Hyperedge& e = edges_[id];
    const EdgeKey key = MakeEdgeKey(e.tail, e.head);
    size_t i = HashIdKey(key.hi, key.lo) & mask;
    while (slots_[i] != kEmptySlot) i = (i + 1) & mask;
    slots_[i] = id;
  }
}

void DirectedHypergraph::ReserveEdges(size_t n) {
  edges_.reserve(n);
  if (2 * n > slots_.size()) RehashSlots(std::bit_ceil(2 * n));
}

StatusOr<EdgeId> DirectedHypergraph::AddEdge(std::vector<VertexId> tail,
                                             VertexId head, double weight) {
  if (tail.empty() || tail.size() > kMaxTailSize) {
    return Status::InvalidArgument(
        StrFormat("hypergraph: |T| must be in [1, %zu]", kMaxTailSize));
  }
  if (head >= names_.size()) {
    return Status::OutOfRange("hypergraph: head vertex out of range");
  }
  for (VertexId v : tail) {
    if (v >= names_.size()) {
      return Status::OutOfRange("hypergraph: tail vertex out of range");
    }
    if (v == head) {
      return Status::InvalidArgument(
          "hypergraph: T and H must be disjoint (Definition 2.9)");
    }
  }
  std::sort(tail.begin(), tail.end());
  if (std::adjacent_find(tail.begin(), tail.end()) != tail.end()) {
    return Status::InvalidArgument("hypergraph: repeated tail vertex");
  }
  // Written so that NaN fails too: a NaN weight would break the strict
  // weak ordering every ACV sort relies on.
  if (!(weight >= 0.0 && weight <= 1.0)) {
    return Status::InvalidArgument("hypergraph: weight outside [0, 1]");
  }

  Hyperedge edge;
  for (size_t i = 0; i < tail.size(); ++i) edge.tail[i] = tail[i];
  edge.head = head;
  edge.weight = weight;

  // Grow before probing, so the one probe below finds both a duplicate
  // and the slot the new edge goes into.
  if (2 * (edges_.size() + 1) > slots_.size()) {
    RehashSlots(std::max<size_t>(16, 2 * slots_.size()));
  }
  const size_t slot = FindSlot(MakeEdgeKey(edge.tail, head));
  if (slots_[slot] != kEmptySlot) {
    return Status::AlreadyExists("hypergraph: duplicate (T, H) combination");
  }
  EdgeId id = static_cast<EdgeId>(edges_.size());
  slots_[slot] = id;
  edges_.push_back(edge);
  in_edges_[head].push_back(id);
  for (VertexId v : tail) out_edges_[v].push_back(id);
  ++num_by_tail_size_[tail.size() - 1];
  return id;
}

const Hyperedge& DirectedHypergraph::edge(EdgeId id) const {
  HM_CHECK_LT(id, edges_.size());
  return edges_[id];
}

const std::vector<EdgeId>& DirectedHypergraph::InEdgeIds(VertexId v) const {
  HM_CHECK_LT(v, names_.size());
  return in_edges_[v];
}

const std::vector<EdgeId>& DirectedHypergraph::OutEdgeIds(VertexId v) const {
  HM_CHECK_LT(v, names_.size());
  return out_edges_[v];
}

std::optional<EdgeId> DirectedHypergraph::FindEdge(
    std::span<const VertexId> tail, VertexId head) const {
  if (tail.empty() || tail.size() > kMaxTailSize) return std::nullopt;
  // Out-of-range ids miss immediately: keys are full-width so they could
  // never alias a real vertex, but probing the table for ids no edge can
  // contain would be wasted work.
  if (slots_.empty() || head >= names_.size()) return std::nullopt;
  VertexId sorted[kMaxTailSize] = {kNoVertex, kNoVertex, kNoVertex};
  for (size_t i = 0; i < tail.size(); ++i) {
    if (tail[i] >= names_.size()) return std::nullopt;
    sorted[i] = tail[i];
  }
  std::sort(sorted, sorted + tail.size());
  const EdgeId id = slots_[FindSlot(MakeEdgeKey(sorted, head))];
  if (id == kEmptySlot) return std::nullopt;
  return id;
}

double DirectedHypergraph::WeightedInDegree(VertexId v) const {
  double acc = 0.0;
  for (EdgeId id : InEdgeIds(v)) acc += edges_[id].weight;
  return acc;
}

double DirectedHypergraph::WeightedOutDegree(VertexId v) const {
  double acc = 0.0;
  for (EdgeId id : OutEdgeIds(v)) {
    acc += edges_[id].weight / static_cast<double>(edges_[id].tail_size());
  }
  return acc;
}

double DirectedHypergraph::MeanDirectedEdgeWeight() const {
  if (NumDirectedEdges() == 0) return 0.0;
  double acc = 0.0;
  for (const Hyperedge& e : edges_) {
    if (e.tail_size() == 1) acc += e.weight;
  }
  return acc / static_cast<double>(NumDirectedEdges());
}

double DirectedHypergraph::MeanPairEdgeWeight() const {
  if (NumPairEdges() == 0) return 0.0;
  double acc = 0.0;
  for (const Hyperedge& e : edges_) {
    if (e.tail_size() == 2) acc += e.weight;
  }
  return acc / static_cast<double>(NumPairEdges());
}

DirectedHypergraph DirectedHypergraph::FilteredByWeight(
    double threshold) const {
  DirectedHypergraph out(names_);
  for (const Hyperedge& e : edges_) {
    if (e.weight < threshold) continue;
    std::vector<VertexId> tail(e.TailSpan().begin(), e.TailSpan().end());
    HM_CHECK_OK(out.AddEdge(std::move(tail), e.head, e.weight).status());
  }
  return out;
}

StatusOr<double> DirectedHypergraph::WeightQuantileThreshold(
    double fraction) const {
  if (fraction <= 0.0 || fraction > 1.0) {
    return Status::InvalidArgument("fraction must be in (0, 1]");
  }
  if (edges_.empty()) {
    return Status::FailedPrecondition("hypergraph has no edges");
  }
  std::vector<double> weights;
  weights.reserve(edges_.size());
  for (const Hyperedge& e : edges_) weights.push_back(e.weight);
  std::sort(weights.begin(), weights.end(), std::greater<double>());
  size_t keep = std::max<size_t>(
      1, static_cast<size_t>(fraction * static_cast<double>(weights.size())));
  return weights[keep - 1];
}

std::string DirectedHypergraph::EdgeToString(EdgeId id, int precision) const {
  const Hyperedge& e = edge(id);
  std::string out;
  for (size_t i = 0; i < e.tail_size(); ++i) {
    if (i > 0) out += ", ";
    out += names_[e.tail[i]];
  }
  out += " -> " + names_[e.head];
  out += " (" + FormatDouble(e.weight, precision) + ")";
  return out;
}

}  // namespace hypermine::core
