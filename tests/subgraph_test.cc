#include "graph/subgraph.h"

#include <vector>

#include <gtest/gtest.h>

#include "graph/graph_builder.h"

namespace ensemfdet {
namespace {

// 4 users × 4 merchants with a 2×2 dense corner plus some stragglers.
CsrGraph TestGraph() {
  GraphBuilder b(4, 4);
  b.AddEdge(0, 0);
  b.AddEdge(0, 1);
  b.AddEdge(1, 0);
  b.AddEdge(1, 1);
  b.AddEdge(2, 2);
  b.AddEdge(3, 3);
  b.AddEdge(2, 3);
  return b.Build().ValueOrDie();
}

TEST(SubgraphFromEdgesTest, ExactEdgeSet) {
  auto g = TestGraph();
  std::vector<EdgeId> pick = {0, 3};  // (0,0) and (1,1)
  SubgraphView view = SubgraphFromEdges(g, pick);
  EXPECT_EQ(view.graph.num_edges(), 2);
  EXPECT_EQ(view.graph.num_users(), 2);
  EXPECT_EQ(view.graph.num_merchants(), 2);
  // Mapping is ascending parent id.
  EXPECT_EQ(view.user_map, (std::vector<UserId>{0, 1}));
  EXPECT_EQ(view.merchant_map, (std::vector<MerchantId>{0, 1}));
  // Edge (0,0) and (1,1) in local ids; no (0,1)/(1,0) — not node-induced.
  EXPECT_TRUE(view.graph.HasEdge(0, 0));
  EXPECT_TRUE(view.graph.HasEdge(1, 1));
  EXPECT_FALSE(view.graph.HasEdge(0, 1));
  EXPECT_FALSE(view.graph.HasEdge(1, 0));
}

TEST(SubgraphFromEdgesTest, DuplicateEdgeIdsCollapse) {
  auto g = TestGraph();
  std::vector<EdgeId> pick = {2, 2, 2};
  SubgraphView view = SubgraphFromEdges(g, pick);
  EXPECT_EQ(view.graph.num_edges(), 1);
}

TEST(SubgraphFromEdgesTest, WeightScaleApplied) {
  auto g = TestGraph();
  std::vector<EdgeId> pick = {0};
  SubgraphView view = SubgraphFromEdges(g, pick, 10.0);
  ASSERT_EQ(view.graph.num_edges(), 1);
  EXPECT_DOUBLE_EQ(view.graph.edge_weight(0), 10.0);
}

TEST(SubgraphFromEdgesTest, UnitScaleKeepsUnweighted) {
  auto g = TestGraph();
  std::vector<EdgeId> pick = {0, 1};
  SubgraphView view = SubgraphFromEdges(g, pick, 1.0);
  EXPECT_FALSE(view.graph.has_weights());
}

TEST(SubgraphFromEdgesTest, EmptySelection) {
  auto g = TestGraph();
  SubgraphView view = SubgraphFromEdges(g, {});
  EXPECT_EQ(view.graph.num_edges(), 0);
  EXPECT_EQ(view.graph.num_users(), 0);
  EXPECT_EQ(view.graph.num_merchants(), 0);
}

TEST(SubgraphFromEdgesTest, IdMapsRoundTrip) {
  auto g = TestGraph();
  std::vector<EdgeId> pick = {4, 5, 6};  // edges among users {2,3}, merch {2,3}
  SubgraphView view = SubgraphFromEdges(g, pick);
  for (EdgeId e = 0; e < view.graph.num_edges(); ++e) {
    const Edge& local = view.graph.edge(e);
    UserId pu = view.ToParentUser(local.user);
    MerchantId pv = view.ToParentMerchant(local.merchant);
    EXPECT_TRUE(g.HasEdge(pu, pv))
        << "local edge maps to nonexistent parent edge";
  }
}

TEST(InducedSubgraphTest, KeepsAllCrossEdges) {
  auto g = TestGraph();
  std::vector<UserId> users = {0, 1};
  std::vector<MerchantId> merchants = {0, 1};
  SubgraphView view = InducedSubgraph(g, users, merchants);
  EXPECT_EQ(view.graph.num_users(), 2);
  EXPECT_EQ(view.graph.num_merchants(), 2);
  EXPECT_EQ(view.graph.num_edges(), 4);  // the 2×2 dense corner
}

TEST(InducedSubgraphTest, ExcludesEdgesLeavingSelection) {
  auto g = TestGraph();
  std::vector<UserId> users = {2};
  std::vector<MerchantId> merchants = {2};
  SubgraphView view = InducedSubgraph(g, users, merchants);
  EXPECT_EQ(view.graph.num_edges(), 1);  // (2,2); (2,3) leaves the selection
}

TEST(InducedSubgraphTest, DuplicatedInputIdsDeduplicated) {
  auto g = TestGraph();
  std::vector<UserId> users = {0, 0, 1, 1};
  std::vector<MerchantId> merchants = {1, 1, 0};
  SubgraphView view = InducedSubgraph(g, users, merchants);
  EXPECT_EQ(view.graph.num_users(), 2);
  EXPECT_EQ(view.graph.num_merchants(), 2);
}

TEST(InducedSubgraphTest, SelectionWithNoEdges) {
  auto g = TestGraph();
  std::vector<UserId> users = {3};
  std::vector<MerchantId> merchants = {0};
  SubgraphView view = InducedSubgraph(g, users, merchants);
  EXPECT_EQ(view.graph.num_edges(), 0);
  // Selected nodes are still present (isolated).
  EXPECT_EQ(view.graph.num_users(), 1);
  EXPECT_EQ(view.graph.num_merchants(), 1);
}

TEST(OneSideInducedTest, UserSideKeepsWholeRows) {
  auto g = TestGraph();
  std::vector<uint32_t> users = {0};
  SubgraphView view = OneSideInducedSubgraph(g, Side::kUser, users);
  EXPECT_EQ(view.graph.num_users(), 1);
  EXPECT_EQ(view.graph.num_merchants(), 2);  // merchants 0, 1
  EXPECT_EQ(view.graph.num_edges(), 2);
}

TEST(OneSideInducedTest, MerchantSideKeepsWholeColumns) {
  auto g = TestGraph();
  std::vector<uint32_t> merchants = {3};
  SubgraphView view = OneSideInducedSubgraph(g, Side::kMerchant, merchants);
  EXPECT_EQ(view.graph.num_merchants(), 1);
  EXPECT_EQ(view.graph.num_users(), 2);  // users 2 and 3
  EXPECT_EQ(view.graph.num_edges(), 2);
}

TEST(OneSideInducedTest, MultipleSeedsUnionRows) {
  auto g = TestGraph();
  std::vector<uint32_t> users = {0, 2};
  SubgraphView view = OneSideInducedSubgraph(g, Side::kUser, users);
  EXPECT_EQ(view.graph.num_edges(), 4);  // edges of user 0 (2) + user 2 (2)
  EXPECT_EQ(view.user_map, (std::vector<UserId>{0, 2}));
}

TEST(OneSideInducedTest, IsolatedSeedContributesNothing) {
  GraphBuilder b(2, 1);
  b.AddEdge(0, 0);
  auto g = b.Build().ValueOrDie();
  std::vector<uint32_t> users = {1};  // isolated user
  SubgraphView view = OneSideInducedSubgraph(g, Side::kUser, users);
  EXPECT_EQ(view.graph.num_edges(), 0);
  EXPECT_EQ(view.graph.num_users(), 0);
}

}  // namespace
}  // namespace ensemfdet
