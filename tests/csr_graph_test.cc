// CsrGraph layout invariants (DESIGN.md §"Graph memory layout"): canonical
// edge ids, slot == EdgeId, merchant rows cross-referencing the user side,
// O(1) endpoint lookups, degenerate shapes, value semantics, and a
// fingerprint that depends on content only.
#include "graph/csr_graph.h"

#include <map>
#include <set>
#include <utility>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "graph/fingerprint.h"
#include "graph/graph_builder.h"

namespace ensemfdet {
namespace {

using EdgeKey = std::pair<UserId, MerchantId>;

// A random multigraph; `expected` receives the deduplicated edge set in
// canonical order.
CsrGraph RandomGraph(int64_t users, int64_t merchants, int64_t edges,
                     uint64_t seed, bool weighted,
                     std::set<EdgeKey>* expected = nullptr) {
  GraphBuilder b(users, merchants);
  Rng rng(seed);
  for (int64_t i = 0; i < edges; ++i) {
    const UserId u = static_cast<UserId>(rng.NextBounded(
        static_cast<uint64_t>(users)));
    const MerchantId v = static_cast<MerchantId>(rng.NextBounded(
        static_cast<uint64_t>(merchants)));
    const double w = weighted ? 1.0 + rng.NextDouble() : 1.0;
    b.AddEdge(u, v, w);
    if (expected != nullptr) expected->insert({u, v});
  }
  return b.Build(DuplicatePolicy::kKeepFirst).ValueOrDie();
}

TEST(CsrGraphTest, EmptyGraph) {
  CsrGraph csr;
  EXPECT_EQ(csr.num_users(), 0);
  EXPECT_EQ(csr.num_merchants(), 0);
  EXPECT_EQ(csr.num_edges(), 0);
  EXPECT_TRUE(csr.empty());
  EXPECT_FALSE(csr.is_view());
}

TEST(CsrGraphTest, EdgelessNodes) {
  GraphBuilder b(7, 3);
  CsrGraph csr = b.Build().ValueOrDie();
  EXPECT_EQ(csr.num_users(), 7);
  EXPECT_EQ(csr.num_merchants(), 3);
  EXPECT_EQ(csr.num_edges(), 0);
  for (UserId u = 0; u < 7; ++u) {
    EXPECT_EQ(csr.user_degree(u), 0);
    EXPECT_TRUE(csr.user_neighbors(u).empty());
  }
  for (MerchantId v = 0; v < 3; ++v) {
    EXPECT_TRUE(csr.merchant_neighbors(v).empty());
  }
}

TEST(CsrGraphTest, SingleEdge) {
  GraphBuilder b(2, 2);
  b.AddEdge(1, 0);
  CsrGraph csr = b.Build().ValueOrDie();
  EXPECT_EQ(csr.num_edges(), 1);
  EXPECT_EQ(csr.edge_user(0), 1u);
  EXPECT_EQ(csr.edge_merchant(0), 0u);
  EXPECT_EQ(csr.edge(0), (Edge{1, 0}));
  EXPECT_EQ(csr.user_degree(0), 0);
  EXPECT_EQ(csr.user_degree(1), 1);
  EXPECT_EQ(csr.merchant_degree(0), 1);
  EXPECT_EQ(csr.merchant_degree(1), 0);
  EXPECT_EQ(csr.edge_weight(0), 1.0);
  EXPECT_FALSE(csr.has_weights());
  EXPECT_TRUE(csr.HasEdge(1, 0));
  EXPECT_FALSE(csr.HasEdge(0, 0));
  EXPECT_FALSE(csr.HasEdge(5, 0));  // out of range is simply absent
}

TEST(CsrGraphTest, UserSlotIsEdgeIdInCanonicalOrder) {
  std::set<EdgeKey> expected;
  CsrGraph csr = RandomGraph(40, 25, 300, 11, /*weighted=*/false, &expected);
  ASSERT_EQ(csr.num_edges(), static_cast<int64_t>(expected.size()));
  // Walking user rows in order enumerates EdgeIds 0,1,2,... and the
  // neighbor at each slot is that edge's merchant endpoint; the ids follow
  // ascending (user, merchant).
  auto it = expected.begin();
  EdgeId next = 0;
  for (UserId u = 0; u < csr.num_users(); ++u) {
    EXPECT_EQ(csr.user_edge_begin(u), next);
    for (MerchantId m : csr.user_neighbors(u)) {
      EXPECT_EQ(*it, (EdgeKey{u, m})) << "edge " << next;
      EXPECT_EQ(csr.edge_merchant(next), m);
      EXPECT_EQ(csr.edge_user(next), u);
      EXPECT_TRUE(csr.HasEdge(u, m));
      ++it;
      ++next;
    }
  }
  EXPECT_EQ(next, csr.num_edges());
}

TEST(CsrGraphTest, MerchantRowsCrossReferenceEdgeIds) {
  CsrGraph csr = RandomGraph(30, 20, 200, 5, /*weighted=*/true);
  int64_t slots = 0;
  for (MerchantId v = 0; v < csr.num_merchants(); ++v) {
    auto edge_ids = csr.merchant_edge_ids(v);
    auto neighbors = csr.merchant_neighbors(v);
    ASSERT_EQ(edge_ids.size(), neighbors.size());
    ASSERT_EQ(static_cast<int64_t>(neighbors.size()),
              csr.merchant_degree(v));
    for (size_t k = 0; k < edge_ids.size(); ++k) {
      EXPECT_EQ(csr.edge_merchant(edge_ids[k]), v);
      EXPECT_EQ(csr.edge_user(edge_ids[k]), neighbors[k]);
      // Ascending users == ascending edge ids within a merchant row.
      if (k > 0) {
        EXPECT_LT(edge_ids[k - 1], edge_ids[k]);
      }
    }
    slots += static_cast<int64_t>(edge_ids.size());
  }
  EXPECT_EQ(slots, csr.num_edges());
}

TEST(CsrGraphTest, WeightsFollowEdgeIds) {
  // Distinct edges added in descending order with distinct weights: the
  // build must sort them canonically and carry each weight along.
  std::map<EdgeKey, double> expected;
  GraphBuilder b(60, 35);
  Rng rng(4);
  for (int u = 59; u >= 0; --u) {
    for (int v = 34; v >= 0; --v) {
      if ((u * 7 + v * 3) % 5 != 0) continue;
      const double w = 1.0 + rng.NextDouble();
      b.AddEdge(static_cast<UserId>(u), static_cast<MerchantId>(v), w);
      expected[{static_cast<UserId>(u), static_cast<MerchantId>(v)}] = w;
    }
  }
  CsrGraph csr = b.Build().ValueOrDie();
  EXPECT_TRUE(csr.has_weights());
  ASSERT_EQ(static_cast<int64_t>(csr.weights().size()), csr.num_edges());
  EdgeId e = 0;
  for (const auto& [key, weight] : expected) {
    EXPECT_EQ(csr.edge(e), (Edge{key.first, key.second}));
    EXPECT_EQ(csr.edge_weight(e), weight) << "edge " << e;
    ++e;
  }
}

TEST(CsrGraphTest, CopyAndMoveKeepContent) {
  CsrGraph g = RandomGraph(50, 30, 400, 9, /*weighted=*/true);
  const uint64_t fp = FingerprintGraph(g);
  CsrGraph copy = g;
  EXPECT_EQ(FingerprintGraph(copy), fp);
  CsrGraph moved = std::move(copy);
  EXPECT_EQ(FingerprintGraph(moved), fp);
  EXPECT_TRUE(copy.empty());  // NOLINT: moved-from is a valid empty graph
  EXPECT_EQ(copy.num_users(), 0);
}

TEST(CsrGraphTest, FingerprintDependsOnContentOnly) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    for (bool weighted : {false, true}) {
      CsrGraph g = RandomGraph(50, 30, 400, seed, weighted);
      // The same arrays adopted by another owner hash identically.
      CsrGraph rebuilt = CsrGraph::FromRawArrays(
          g.num_users(), g.num_merchants(),
          {g.user_offsets().begin(), g.user_offsets().end()},
          {g.user_neighbors_flat().begin(), g.user_neighbors_flat().end()},
          {g.edge_users_flat().begin(), g.edge_users_flat().end()},
          {g.merchant_offsets().begin(), g.merchant_offsets().end()},
          {g.merchant_neighbors_flat().begin(),
           g.merchant_neighbors_flat().end()},
          {g.merchant_edge_ids_flat().begin(),
           g.merchant_edge_ids_flat().end()},
          {g.weights().begin(), g.weights().end()});
      EXPECT_EQ(FingerprintGraph(rebuilt), FingerprintGraph(g))
          << "seed=" << seed << " weighted=" << weighted;
    }
  }
  // Shape and weights are part of the content: edgeless graphs of
  // different sizes differ, and so do two weightings of one edge.
  GraphBuilder a(4, 6);
  GraphBuilder b(4, 7);
  EXPECT_NE(FingerprintGraph(a.Build().ValueOrDie()),
            FingerprintGraph(b.Build().ValueOrDie()));
  a.AddEdge(1, 2, 1.0);
  b = GraphBuilder(4, 6);
  b.AddEdge(1, 2, 2.0);
  EXPECT_NE(FingerprintGraph(a.Build().ValueOrDie()),
            FingerprintGraph(b.Build().ValueOrDie()));
}

}  // namespace
}  // namespace ensemfdet
