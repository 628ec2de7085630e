#include "graph/graph_stats.h"

#include <gtest/gtest.h>

#include "graph/graph_builder.h"

namespace ensemfdet {
namespace {

CsrGraph StarGraph() {
  // User 0 connected to merchants 0..4; users 1, 2 isolated.
  GraphBuilder b(3, 5);
  for (MerchantId v = 0; v < 5; ++v) b.AddEdge(0, v);
  return b.Build().ValueOrDie();
}

TEST(DegreesTest, PerNodeDegrees) {
  auto g = StarGraph();
  auto user_deg = Degrees(g, Side::kUser);
  ASSERT_EQ(user_deg.size(), 3u);
  EXPECT_EQ(user_deg[0], 5);
  EXPECT_EQ(user_deg[1], 0);
  EXPECT_EQ(user_deg[2], 0);
  auto merch_deg = Degrees(g, Side::kMerchant);
  ASSERT_EQ(merch_deg.size(), 5u);
  for (int64_t d : merch_deg) EXPECT_EQ(d, 1);
}

TEST(DegreeStatsTest, StarGraphStats) {
  auto g = StarGraph();
  DegreeStats user_stats = ComputeDegreeStats(g, Side::kUser);
  EXPECT_EQ(user_stats.num_nodes, 3);
  EXPECT_EQ(user_stats.num_isolated, 2);
  EXPECT_EQ(user_stats.min_degree, 0);
  EXPECT_EQ(user_stats.max_degree, 5);
  EXPECT_NEAR(user_stats.avg_degree, 5.0 / 3.0, 1e-12);

  DegreeStats merch_stats = ComputeDegreeStats(g, Side::kMerchant);
  EXPECT_EQ(merch_stats.num_isolated, 0);
  EXPECT_EQ(merch_stats.min_degree, 1);
  EXPECT_EQ(merch_stats.max_degree, 1);
  EXPECT_DOUBLE_EQ(merch_stats.avg_degree, 1.0);
}

TEST(DegreeStatsTest, EmptySide) {
  GraphBuilder b(0, 3);
  auto g = b.Build().ValueOrDie();
  DegreeStats stats = ComputeDegreeStats(g, Side::kUser);
  EXPECT_EQ(stats.num_nodes, 0);
  EXPECT_EQ(stats.num_isolated, 0);
  EXPECT_DOUBLE_EQ(stats.avg_degree, 0.0);
}

TEST(DegreeHistogramTest, CountsPerDegree) {
  auto g = StarGraph();
  auto user_hist = DegreeHistogram(g, Side::kUser);
  // Degrees: {5, 0, 0} → hist[0]=2, hist[5]=1.
  ASSERT_EQ(user_hist.size(), 6u);
  EXPECT_EQ(user_hist[0], 2);
  EXPECT_EQ(user_hist[1], 0);
  EXPECT_EQ(user_hist[5], 1);
  auto merch_hist = DegreeHistogram(g, Side::kMerchant);
  ASSERT_EQ(merch_hist.size(), 2u);
  EXPECT_EQ(merch_hist[0], 0);
  EXPECT_EQ(merch_hist[1], 5);
}

TEST(DegreeHistogramTest, HistogramMassEqualsNodeCount) {
  GraphBuilder b(6, 4);
  b.AddEdge(0, 0);
  b.AddEdge(0, 1);
  b.AddEdge(1, 1);
  b.AddEdge(2, 2);
  b.AddEdge(3, 2);
  b.AddEdge(4, 2);
  auto g = b.Build().ValueOrDie();
  for (Side side : {Side::kUser, Side::kMerchant}) {
    auto hist = DegreeHistogram(g, side);
    int64_t total = 0;
    for (int64_t c : hist) total += c;
    EXPECT_EQ(total,
              side == Side::kUser ? g.num_users() : g.num_merchants());
  }
}

TEST(DegreeHistogramTest, AllIsolated) {
  GraphBuilder b(4, 4);
  auto g = b.Build().ValueOrDie();
  auto hist = DegreeHistogram(g, Side::kUser);
  ASSERT_EQ(hist.size(), 1u);
  EXPECT_EQ(hist[0], 4);
}

}  // namespace
}  // namespace ensemfdet
