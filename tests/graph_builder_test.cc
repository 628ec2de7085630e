#include "graph/graph_builder.h"

#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "graph/csr_graph.h"

namespace ensemfdet {
namespace {

TEST(GraphBuilderTest, EmptyGraph) {
  GraphBuilder b(0, 0);
  auto g = b.Build();
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_users(), 0);
  EXPECT_EQ(g->num_merchants(), 0);
  EXPECT_EQ(g->num_edges(), 0);
  EXPECT_TRUE(g->empty());
}

TEST(GraphBuilderTest, NodesWithoutEdges) {
  GraphBuilder b(3, 2);
  auto g = b.Build();
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_users(), 3);
  EXPECT_EQ(g->num_merchants(), 2);
  EXPECT_EQ(g->num_nodes(), 5);
  EXPECT_EQ(g->user_degree(0), 0);
  EXPECT_EQ(g->merchant_degree(1), 0);
}

TEST(GraphBuilderTest, SimpleEdges) {
  GraphBuilder b(2, 3);
  b.AddEdge(0, 0);
  b.AddEdge(0, 2);
  b.AddEdge(1, 1);
  auto g = b.Build();
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_edges(), 3);
  EXPECT_EQ(g->user_degree(0), 2);
  EXPECT_EQ(g->user_degree(1), 1);
  EXPECT_EQ(g->merchant_degree(0), 1);
  EXPECT_EQ(g->merchant_degree(1), 1);
  EXPECT_EQ(g->merchant_degree(2), 1);
  EXPECT_TRUE(g->HasEdge(0, 0));
  EXPECT_TRUE(g->HasEdge(0, 2));
  EXPECT_TRUE(g->HasEdge(1, 1));
  EXPECT_FALSE(g->HasEdge(0, 1));
  EXPECT_FALSE(g->HasEdge(1, 0));
}

TEST(GraphBuilderTest, HasEdgeOutOfRangeIsFalse) {
  GraphBuilder b(1, 1);
  b.AddEdge(0, 0);
  auto g = b.Build().ValueOrDie();
  EXPECT_FALSE(g.HasEdge(5, 0));
  EXPECT_FALSE(g.HasEdge(0, 5));
}

TEST(GraphBuilderTest, UserAdjSortedByMerchant) {
  GraphBuilder b(1, 5);
  b.AddEdge(0, 3);
  b.AddEdge(0, 1);
  b.AddEdge(0, 4);
  b.AddEdge(0, 0);
  auto g = b.Build().ValueOrDie();
  auto merchants = g.user_neighbors(0);
  ASSERT_EQ(merchants.size(), 4u);
  MerchantId prev = 0;
  for (size_t i = 0; i < merchants.size(); ++i) {
    MerchantId m = merchants[i];
    if (i > 0) {
      EXPECT_GT(m, prev);
    }
    prev = m;
  }
}

TEST(GraphBuilderTest, MerchantAdjSortedByUser) {
  GraphBuilder b(5, 1);
  b.AddEdge(4, 0);
  b.AddEdge(1, 0);
  b.AddEdge(3, 0);
  auto g = b.Build().ValueOrDie();
  auto edges = g.merchant_edge_ids(0);
  ASSERT_EQ(edges.size(), 3u);
  EXPECT_EQ(g.edge(edges[0]).user, 1u);
  EXPECT_EQ(g.edge(edges[1]).user, 3u);
  EXPECT_EQ(g.edge(edges[2]).user, 4u);
}

TEST(GraphBuilderTest, DuplicateKeepFirstCollapsesToUnitWeight) {
  GraphBuilder b(1, 1);
  b.AddEdge(0, 0);
  b.AddEdge(0, 0);
  b.AddEdge(0, 0);
  auto g = b.Build(DuplicatePolicy::kKeepFirst).ValueOrDie();
  EXPECT_EQ(g.num_edges(), 1);
  EXPECT_FALSE(g.has_weights());
  EXPECT_DOUBLE_EQ(g.edge_weight(0), 1.0);
}

TEST(GraphBuilderTest, DuplicateSumWeights) {
  GraphBuilder b(1, 1);
  b.AddEdge(0, 0, 1.0);
  b.AddEdge(0, 0, 2.5);
  auto g = b.Build(DuplicatePolicy::kSumWeights).ValueOrDie();
  EXPECT_EQ(g.num_edges(), 1);
  EXPECT_TRUE(g.has_weights());
  EXPECT_DOUBLE_EQ(g.edge_weight(0), 3.5);
}

// Sum of edge weights over a user's / merchant's row.
double UserRowWeight(const CsrGraph& g, UserId u) {
  double sum = 0.0;
  for (int64_t k = 0; k < g.user_degree(u); ++k) {
    sum += g.edge_weight(g.user_edge_begin(u) + k);
  }
  return sum;
}
double MerchantRowWeight(const CsrGraph& g, MerchantId v) {
  double sum = 0.0;
  for (EdgeId e : g.merchant_edge_ids(v)) sum += g.edge_weight(e);
  return sum;
}

TEST(GraphBuilderTest, WeightedDegrees) {
  GraphBuilder b(2, 2);
  b.AddEdge(0, 0, 2.0);
  b.AddEdge(0, 1, 3.0);
  b.AddEdge(1, 1, 4.0);
  auto g = b.Build(DuplicatePolicy::kSumWeights).ValueOrDie();
  EXPECT_DOUBLE_EQ(UserRowWeight(g, 0), 5.0);
  EXPECT_DOUBLE_EQ(UserRowWeight(g, 1), 4.0);
  EXPECT_DOUBLE_EQ(MerchantRowWeight(g, 1), 7.0);
  // Unweighted degree still counts edges.
  EXPECT_EQ(g.user_degree(0), 2);
}

TEST(GraphBuilderTest, UnweightedWeightedDegreeEqualsDegree) {
  GraphBuilder b(2, 2);
  b.AddEdge(0, 0);
  b.AddEdge(0, 1);
  auto g = b.Build().ValueOrDie();
  EXPECT_DOUBLE_EQ(UserRowWeight(g, 0), 2.0);
  EXPECT_DOUBLE_EQ(MerchantRowWeight(g, 0), 1.0);
}

TEST(GraphBuilderTest, RejectsOutOfRangeUser) {
  GraphBuilder b(2, 2);
  b.AddEdge(2, 0);
  auto g = b.Build();
  ASSERT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kInvalidArgument);
}

TEST(GraphBuilderTest, RejectsOutOfRangeMerchant) {
  GraphBuilder b(2, 2);
  b.AddEdge(0, 7);
  EXPECT_FALSE(b.Build().ok());
}

TEST(GraphBuilderTest, RejectsNodeCountsBeyond32BitIds) {
  // Validated by Build() as a Status (never an abort), before any
  // count-sized allocation.
  for (auto [users, merchants] :
       {std::pair<int64_t, int64_t>{-1, 2}, {2, -3},
        {int64_t{UINT32_MAX} + 1, 1}, {1, int64_t{UINT32_MAX} + 2}}) {
    GraphBuilder b(users, merchants);
    auto g = b.Build();
    ASSERT_FALSE(g.ok()) << users << " x " << merchants;
    EXPECT_EQ(g.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(GraphBuilderTest, RejectsNonPositiveWeight) {
  GraphBuilder b(1, 1);
  b.AddEdge(0, 0, 0.0);
  EXPECT_FALSE(b.Build().ok());
  GraphBuilder b2(1, 1);
  b2.AddEdge(0, 0, -1.0);
  EXPECT_FALSE(b2.Build().ok());
}

TEST(GraphBuilderTest, BuilderReusableAfterBuild) {
  GraphBuilder b(2, 2);
  b.AddEdge(0, 0);
  auto g1 = b.Build().ValueOrDie();
  EXPECT_EQ(g1.num_edges(), 1);
  EXPECT_EQ(b.num_pending_edges(), 0);
  b.AddEdge(1, 1);
  auto g2 = b.Build().ValueOrDie();
  EXPECT_EQ(g2.num_edges(), 1);
  EXPECT_TRUE(g2.HasEdge(1, 1));
  EXPECT_FALSE(g2.HasEdge(0, 0));
}

TEST(GraphBuilderTest, EdgeSpanMatchesCount) {
  GraphBuilder b(3, 3);
  for (UserId u = 0; u < 3; ++u) {
    for (MerchantId v = 0; v < 3; ++v) b.AddEdge(u, v);
  }
  auto g = b.Build().ValueOrDie();
  EXPECT_EQ(static_cast<int64_t>(g.user_neighbors_flat().size()),
            g.num_edges());
  EXPECT_EQ(g.num_edges(), 9);
}

TEST(GraphBuilderTest, CsrConsistency) {
  // Every edge id appears exactly once in each orientation.
  GraphBuilder b(4, 4);
  b.AddEdge(0, 1);
  b.AddEdge(2, 3);
  b.AddEdge(1, 1);
  b.AddEdge(3, 0);
  b.AddEdge(2, 0);
  auto g = b.Build().ValueOrDie();
  std::vector<int> seen_user(static_cast<size_t>(g.num_edges()), 0);
  for (int64_t u = 0; u < g.num_users(); ++u) {
    const UserId user = static_cast<UserId>(u);
    for (EdgeId e = g.user_edge_begin(user);
         e < g.user_edge_begin(user) + g.user_degree(user); ++e) {
      EXPECT_EQ(g.edge(e).user, user);
      ++seen_user[static_cast<size_t>(e)];
    }
  }
  std::vector<int> seen_merchant(static_cast<size_t>(g.num_edges()), 0);
  for (int64_t v = 0; v < g.num_merchants(); ++v) {
    for (EdgeId e : g.merchant_edge_ids(static_cast<MerchantId>(v))) {
      EXPECT_EQ(g.edge(e).merchant, static_cast<MerchantId>(v));
      ++seen_merchant[static_cast<size_t>(e)];
    }
  }
  for (int c : seen_user) EXPECT_EQ(c, 1);
  for (int c : seen_merchant) EXPECT_EQ(c, 1);
}

}  // namespace
}  // namespace ensemfdet
