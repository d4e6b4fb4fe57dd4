#include "serve/rule_index.h"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "util/logging.h"

namespace hypermine::serve {
namespace {

using core::VertexId;

/// 0:A 1:B 2:C 3:D 4:E with a mix of single and pair tails into D/E.
core::DirectedHypergraph TestGraph() {
  auto graph = core::DirectedHypergraph::Create({"A", "B", "C", "D", "E"});
  HM_CHECK_OK(graph.status());
  HM_CHECK_OK(graph->AddEdge({0}, 3, 0.50).status());      // A -> D
  HM_CHECK_OK(graph->AddEdge({0}, 4, 0.30).status());      // A -> E
  HM_CHECK_OK(graph->AddEdge({1}, 3, 0.20).status());      // B -> D
  HM_CHECK_OK(graph->AddEdge({0, 1}, 4, 0.80).status());   // A,B -> E
  HM_CHECK_OK(graph->AddEdge({0, 1}, 2, 0.60).status());   // A,B -> C
  HM_CHECK_OK(graph->AddEdge({2}, 4, 0.90).status());      // C -> E
  return std::move(graph).value();
}

TEST(RuleIndexTest, BuildCounts) {
  RuleIndex index = RuleIndex::Build(TestGraph());
  EXPECT_EQ(index.num_entries(), 6u);
  // Tail sets: {A}, {B}, {A,B}, {C}.
  EXPECT_EQ(index.num_tail_sets(), 4u);
  EXPECT_EQ(index.num_vertices(), 5u);
}

TEST(RuleIndexTest, TopKExactTailSortedByAcv) {
  RuleIndex index = RuleIndex::Build(TestGraph());
  VertexId tail_a[] = {0};
  auto ranked = index.TopK(tail_a, 10);
  ASSERT_EQ(ranked.size(), 2u);
  EXPECT_EQ(ranked[0].head, 3u);  // A -> D at 0.50 beats A -> E at 0.30
  EXPECT_EQ(ranked[0].acv, 0.50);
  EXPECT_EQ(ranked[1].head, 4u);

  // k truncates.
  EXPECT_EQ(index.TopK(tail_a, 1).size(), 1u);
  EXPECT_TRUE(index.TopK(tail_a, 0).empty());

  // Tail order does not matter for pair tails.
  VertexId ab[] = {0, 1};
  VertexId ba[] = {1, 0};
  EXPECT_EQ(index.TopK(ab, 10), index.TopK(ba, 10));
  ASSERT_EQ(index.TopK(ab, 10).size(), 2u);
  EXPECT_EQ(index.TopK(ab, 10)[0].head, 4u);  // 0.80 beats 0.60
}

TEST(RuleIndexTest, TopKUnknownOrInvalidTailIsEmpty) {
  RuleIndex index = RuleIndex::Build(TestGraph());
  VertexId unknown[] = {3};
  EXPECT_TRUE(index.TopK(unknown, 5).empty());
  VertexId out_of_range[] = {4242};
  EXPECT_TRUE(index.TopK(out_of_range, 5).empty());
  VertexId duplicate[] = {0, 0};
  EXPECT_TRUE(index.TopK(duplicate, 5).empty());
  VertexId repeated_rest[] = {1, 1};
  EXPECT_TRUE(index.TopK(repeated_rest, 5).empty());
  EXPECT_TRUE(index.TopK({}, 5).empty());
  VertexId too_long[] = {0, 1, 2, 3};
  EXPECT_TRUE(index.TopK(too_long, 5).empty());
  VertexId past_the_cap[] = {static_cast<VertexId>(core::kMaxVertices)};
  EXPECT_TRUE(index.TopK(past_the_cap, 5).empty());
  VertexId sentinel[] = {core::kNoVertex};
  EXPECT_TRUE(index.TopK(sentinel, 5).empty());
}

TEST(RuleIndexTest, TopKKeepsFullWidthIds) {
  // Ids congruent mod 2^16 must not alias, and 0xFFFF is an ordinary id.
  auto graph = core::DirectedHypergraph::CreateAnonymous(0x10002);
  HM_CHECK_OK(graph.status());
  HM_CHECK_OK(graph->AddEdge({0}, 1, 0.5).status());
  HM_CHECK_OK(graph->AddEdge({0x10000}, 2, 0.6).status());
  HM_CHECK_OK(graph->AddEdge({0xFFFF}, 3, 0.7).status());
  RuleIndex index = RuleIndex::Build(*graph);
  VertexId low[] = {0};
  VertexId wide[] = {0x10000};
  VertexId formerly_big[] = {0xFFFF};
  EXPECT_EQ(index.TopK(low, 5), (std::vector<RankedConsequent>{{1, 0.5, 0}}));
  EXPECT_EQ(index.TopK(wide, 5),
            (std::vector<RankedConsequent>{{2, 0.6, 1}}));
  EXPECT_EQ(index.TopK(formerly_big, 5),
            (std::vector<RankedConsequent>{{3, 0.7, 2}}));
}

TEST(RuleIndexTest, TopKWithinUnionsSubsetsAndDedupesHeads) {
  RuleIndex index = RuleIndex::Build(TestGraph());
  // Items {A, B} activate tails {A}, {B}, {A,B}:
  //   E best via (A,B)->E 0.80; C via (A,B)->C 0.60; D via A->D 0.50.
  VertexId items[] = {0, 1};
  auto ranked = index.TopKWithin(items, 10);
  ASSERT_EQ(ranked.size(), 3u);
  EXPECT_EQ(ranked[0].head, 4u);
  EXPECT_EQ(ranked[0].acv, 0.80);
  EXPECT_EQ(ranked[1].head, 2u);
  EXPECT_EQ(ranked[1].acv, 0.60);
  EXPECT_EQ(ranked[2].head, 3u);
  EXPECT_EQ(ranked[2].acv, 0.50);

  // k truncates after the union.
  EXPECT_EQ(index.TopKWithin(items, 2).size(), 2u);

  // Duplicates and out-of-range items are tolerated.
  VertexId messy[] = {1, 0, 0, 9999};
  EXPECT_EQ(index.TopKWithin(messy, 10), ranked);
}

TEST(RuleIndexTest, TopKWithinReturnsEachHeadOnceWhenKExceedsHeads) {
  RuleIndex index = RuleIndex::Build(TestGraph());
  // Items {A, B, C} read six entries for three heads: E via C->E 0.90,
  // (A,B)->E 0.80 and A->E 0.30; C via (A,B)->C 0.60; D via A->D 0.50
  // and B->D 0.20.
  VertexId items[] = {0, 1, 2};
  const std::vector<RankedConsequent> want = {
      {4, 0.90, 5}, {2, 0.60, 4}, {3, 0.50, 0}};
  for (size_t k : {size_t{3}, size_t{4}, size_t{6}, size_t{1000},
                   std::numeric_limits<size_t>::max()}) {
    EXPECT_EQ(index.TopKWithin(items, k), want) << "k=" << k;
  }
}

/// 0:A 1:B 2:C 3:D 4:E where D follows from four tails at one ACV, and E
/// ties it through one more.
core::DirectedHypergraph TieGraph() {
  auto graph = core::DirectedHypergraph::Create({"A", "B", "C", "D", "E"});
  HM_CHECK_OK(graph.status());
  HM_CHECK_OK(graph->AddEdge({0, 1}, 3, 0.75).status());     // 0: A,B -> D
  HM_CHECK_OK(graph->AddEdge({0}, 3, 0.75).status());        // 1: A -> D
  HM_CHECK_OK(graph->AddEdge({0, 1, 2}, 3, 0.75).status());  // 2: A,B,C -> D
  HM_CHECK_OK(graph->AddEdge({1}, 3, 0.75).status());        // 3: B -> D
  HM_CHECK_OK(graph->AddEdge({2}, 4, 0.75).status());        // 4: C -> E
  HM_CHECK_OK(graph->AddEdge({0}, 4, 0.50).status());        // 5: A -> E
  return std::move(graph).value();
}

TEST(RuleIndexTest, TopKWithinTieWitnessIsTheSmallestEdgeId) {
  RuleIndex index = RuleIndex::Build(TieGraph());
  // D and E tie at 0.75, so D (the smaller head) leads; of D's four
  // edges at 0.75, edge 0 is the witness.
  VertexId abc[] = {0, 1, 2};
  const std::vector<RankedConsequent> want = {{3, 0.75, 0}, {4, 0.75, 4}};
  EXPECT_EQ(index.TopKWithin(abc, 2), want);
  EXPECT_EQ(index.TopKWithin(abc, 10), want);
  EXPECT_EQ(index.TopKWithin(abc, 1),
            std::vector<RankedConsequent>{want[0]});
  // D's smallest witness depends on the items: {B, C} reach only edge 3
  // of its four, {A, B} reach edges 0, 1 and 3.
  VertexId bc[] = {1, 2};
  EXPECT_EQ(index.TopKWithin(bc, 10),
            (std::vector<RankedConsequent>{{3, 0.75, 3}, {4, 0.75, 4}}));
  VertexId ab[] = {1, 0};
  EXPECT_EQ(index.TopKWithin(ab, 10),
            (std::vector<RankedConsequent>{{3, 0.75, 0}, {4, 0.50, 5}}));
}

/// 0:A 1:B 2:C 3:D 4:E 5:F. A owns pairs and a triple but no singleton, so
/// A's owner range ends with the pair {A, C}, not a singleton.
core::DirectedHypergraph OwnerGraph() {
  auto graph =
      core::DirectedHypergraph::Create({"A", "B", "C", "D", "E", "F"});
  HM_CHECK_OK(graph.status());
  HM_CHECK_OK(graph->AddEdge({0, 1}, 4, 0.6).status());     // 0: A,B -> E
  HM_CHECK_OK(graph->AddEdge({0, 2}, 5, 0.7).status());     // 1: A,C -> F
  HM_CHECK_OK(graph->AddEdge({0, 1, 3}, 5, 0.9).status());  // 2: A,B,D -> F
  HM_CHECK_OK(graph->AddEdge({1}, 2, 0.4).status());        // 3: B -> C
  return std::move(graph).value();
}

TEST(RuleIndexTest, TopKWithinFiresOnlyGroupsInsideTheItems) {
  RuleIndex index = RuleIndex::Build(OwnerGraph());
  // A owns no singleton: its range's last group, {A, C}, needs C too.
  VertexId a[] = {0};
  EXPECT_TRUE(index.TopKWithin(a, 10).empty());
  // {A, B} fires the pair {A, B}, which the scan reaches at the largest
  // item, and B's singleton. The triple {A, B, D} needs D, above the
  // largest item, and {A, C} needs C.
  VertexId ab[] = {0, 1};
  EXPECT_EQ(index.TopKWithin(ab, 10),
            (std::vector<RankedConsequent>{{4, 0.6, 0}, {2, 0.4, 3}}));
  VertexId abd[] = {3, 1, 0};
  EXPECT_EQ(index.TopKWithin(abd, 10),
            (std::vector<RankedConsequent>{
                {5, 0.9, 2}, {4, 0.6, 0}, {2, 0.4, 3}}));
  // Items past the last vertex own nothing.
  VertexId out_of_range[] = {6, 4242, core::kNoVertex};
  EXPECT_TRUE(index.TopKWithin(out_of_range, 10).empty());
}

TEST(RuleIndexTest, ReachableFollowsPairTails) {
  RuleIndex index = RuleIndex::Build(TestGraph());
  // From {A}: A->D (0.5), A->E (0.3); (A,B)->* never fires without B.
  VertexId a[] = {0};
  EXPECT_EQ(index.Reachable(a, 0.0),
            (std::vector<VertexId>{0, 3, 4}));
  // From {A, B}: pair edges fire, C joins, then C->E is redundant.
  VertexId ab[] = {0, 1};
  EXPECT_EQ(index.Reachable(ab, 0.0),
            (std::vector<VertexId>{0, 1, 2, 3, 4}));
}

TEST(RuleIndexTest, ReachableRespectsMinAcv) {
  RuleIndex index = RuleIndex::Build(TestGraph());
  VertexId ab[] = {0, 1};
  // min_acv=0.55 disables A->D (0.5), A->E (0.3), B->D (0.2); the pair
  // edges (0.8, 0.6) still fire and C->E (0.9) follows.
  EXPECT_EQ(index.Reachable(ab, 0.55),
            (std::vector<VertexId>{0, 1, 2, 4}));
  // min_acv above every weight: closure is just the seeds.
  EXPECT_EQ(index.Reachable(ab, 0.95),
            (std::vector<VertexId>{0, 1}));
}

TEST(RuleIndexTest, ReachableIgnoresBadSeeds) {
  RuleIndex index = RuleIndex::Build(TestGraph());
  VertexId seeds[] = {2, 2, 7777};
  EXPECT_EQ(index.Reachable(seeds, 0.0), (std::vector<VertexId>{2, 4}));
  EXPECT_TRUE(index.Reachable({}, 0.0).empty());
}

TEST(RuleIndexTest, EmptyGraphServesNothing) {
  auto graph = core::DirectedHypergraph::CreateAnonymous(3);
  HM_CHECK_OK(graph.status());
  RuleIndex index = RuleIndex::Build(*graph);
  EXPECT_EQ(index.num_entries(), 0u);
  VertexId v[] = {0};
  EXPECT_TRUE(index.TopK(v, 5).empty());
  EXPECT_TRUE(index.TopKWithin(v, 5).empty());
  EXPECT_EQ(index.Reachable(v, 0.0), (std::vector<VertexId>{0}));
}

}  // namespace
}  // namespace hypermine::serve
