#ifndef HYPERMINE_TESTS_TESTING_SCAN_ORACLE_H_
#define HYPERMINE_TESTS_TESTING_SCAN_ORACLE_H_

// Answers to the serving queries computed straight from the paper's
// definitions over DirectedHypergraph::edges(), with no index: a full edge
// scan for the association query and a fixpoint B-closure for
// reachability. Tests hold serve::RuleIndex and everything built on it to
// these.

#include <algorithm>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "core/hypergraph.h"

namespace hypermine::testing {

/// Best ACV per head over every edge whose tail lies inside `items`,
/// best first (ties by head id), cut to k. The edge id is left out: when
/// two tails give a head the same best ACV, either edge is a correct
/// witness.
inline std::vector<std::pair<core::VertexId, double>> ScanTopKWithin(
    const core::DirectedHypergraph& graph,
    const std::vector<core::VertexId>& items, size_t k) {
  const std::set<core::VertexId> have(items.begin(), items.end());
  std::map<core::VertexId, double> best;
  for (const core::Hyperedge& e : graph.edges()) {
    bool inside = true;
    for (core::VertexId v : e.TailSpan()) inside = inside && have.count(v) > 0;
    if (!inside) continue;
    auto [slot, inserted] = best.emplace(e.head, e.weight);
    if (!inserted) slot->second = std::max(slot->second, e.weight);
  }
  std::vector<std::pair<core::VertexId, double>> out(best.begin(),
                                                     best.end());
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  if (out.size() > k) out.resize(k);
  return out;
}

/// B-closure by fixpoint: an edge fires once its whole tail is in the
/// closure and weight >= min_acv; repeat until nothing fires. Seeds past
/// the graph are dropped. Sorted ascending.
inline std::vector<core::VertexId> FixpointClosure(
    const core::DirectedHypergraph& graph,
    const std::vector<core::VertexId>& seeds, double min_acv) {
  std::set<core::VertexId> closure;
  for (core::VertexId v : seeds) {
    if (v < graph.num_vertices()) closure.insert(v);
  }
  for (bool grew = true; grew;) {
    grew = false;
    for (const core::Hyperedge& e : graph.edges()) {
      if (!(e.weight >= min_acv) || closure.count(e.head) > 0) continue;
      bool fires = true;
      for (core::VertexId v : e.TailSpan()) {
        fires = fires && closure.count(v) > 0;
      }
      if (fires) {
        closure.insert(e.head);
        grew = true;
      }
    }
  }
  return {closure.begin(), closure.end()};
}

}  // namespace hypermine::testing

#endif  // HYPERMINE_TESTS_TESTING_SCAN_ORACLE_H_
