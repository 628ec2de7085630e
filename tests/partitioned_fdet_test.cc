// Tests for component-partitioned FDET.
#include "detect/partitioned_fdet.h"

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "graph/graph_builder.h"

namespace ensemfdet {
namespace {

// Two disconnected islands: a dense 8×3 block and a dense 5×3 block, plus
// a scattering of 2-edge debris components.
CsrGraph IslandsGraph() {
  GraphBuilder b(60, 30);
  for (UserId u = 0; u < 8; ++u) {
    for (MerchantId v = 0; v < 3; ++v) b.AddEdge(u, v);
  }
  for (UserId u = 8; u < 13; ++u) {
    for (MerchantId v = 3; v < 6; ++v) b.AddEdge(u, v);
  }
  // Debris: disjoint 2-edge paths.
  for (int i = 0; i < 10; ++i) {
    const UserId u = static_cast<UserId>(13 + 2 * i);
    const MerchantId v = static_cast<MerchantId>(6 + 2 * i);
    b.AddEdge(u, v);
    b.AddEdge(u + 1, v);
  }
  return b.Build().ValueOrDie();
}

TEST(PartitionedFdetTest, RejectsBadConfig) {
  auto g = IslandsGraph();
  PartitionedFdetConfig cfg;
  cfg.min_component_edges = 0;
  EXPECT_FALSE(RunPartitionedFdet(g, cfg).ok());
  cfg.min_component_edges = 1;
  cfg.fdet.max_blocks = 0;
  EXPECT_FALSE(RunPartitionedFdet(g, cfg).ok());
}

TEST(PartitionedFdetTest, FindsBlocksInBothIslands) {
  auto g = IslandsGraph();
  PartitionedFdetConfig cfg;
  cfg.fdet.policy = TruncationPolicy::kFixedK;
  cfg.fdet.fixed_k = 4;
  auto r = RunPartitionedFdet(g, cfg).ValueOrDie();
  ASSERT_GE(r.blocks.size(), 2u);
  // First two blocks are the islands, descending φ, in parent ids.
  std::set<UserId> first(r.blocks[0].users.begin(), r.blocks[0].users.end());
  std::set<UserId> second(r.blocks[1].users.begin(),
                          r.blocks[1].users.end());
  const bool big_first = first.count(0) > 0;
  const std::set<UserId>& big = big_first ? first : second;
  const std::set<UserId>& small = big_first ? second : first;
  for (UserId u = 0; u < 8; ++u) EXPECT_TRUE(big.count(u));
  for (UserId u = 8; u < 13; ++u) EXPECT_TRUE(small.count(u));
}

TEST(PartitionedFdetTest, ScoresDescendAcrossMergedBlocks) {
  auto g = IslandsGraph();
  PartitionedFdetConfig cfg;
  cfg.fdet.policy = TruncationPolicy::kFixedK;
  cfg.fdet.fixed_k = 10;
  auto r = RunPartitionedFdet(g, cfg).ValueOrDie();
  for (size_t i = 1; i < r.all_scores.size(); ++i) {
    EXPECT_LE(r.all_scores[i], r.all_scores[i - 1] + 1e-12);
  }
}

TEST(PartitionedFdetTest, MinComponentEdgesPrunesDebris) {
  auto g = IslandsGraph();
  PartitionedFdetConfig cfg;
  cfg.fdet.policy = TruncationPolicy::kFixedK;
  cfg.fdet.fixed_k = 40;
  cfg.min_component_edges = 5;  // debris paths have 2 edges
  auto r = RunPartitionedFdet(g, cfg).ValueOrDie();
  for (const DetectedBlock& blk : r.blocks) {
    for (UserId u : blk.users) {
      EXPECT_LT(u, 13u) << "debris user detected despite pruning";
    }
  }
}

TEST(PartitionedFdetTest, BlockEdgesValidInParentIdSpace) {
  auto g = IslandsGraph();
  PartitionedFdetConfig cfg;
  cfg.fdet.policy = TruncationPolicy::kFixedK;
  cfg.fdet.fixed_k = 6;
  auto r = RunPartitionedFdet(g, cfg).ValueOrDie();
  std::set<EdgeId> claimed;
  for (const DetectedBlock& blk : r.blocks) {
    EXPECT_FALSE(blk.edges.empty());
    std::set<UserId> users(blk.users.begin(), blk.users.end());
    std::set<MerchantId> merchants(blk.merchants.begin(),
                                   blk.merchants.end());
    for (EdgeId e : blk.edges) {
      ASSERT_GE(e, 0);
      ASSERT_LT(e, g.num_edges());
      EXPECT_TRUE(claimed.insert(e).second);
      EXPECT_TRUE(users.count(g.edge(e).user));
      EXPECT_TRUE(merchants.count(g.edge(e).merchant));
    }
  }
}

TEST(PartitionedFdetTest, ParallelMatchesSequential) {
  auto g = IslandsGraph();
  PartitionedFdetConfig cfg;
  cfg.fdet.policy = TruncationPolicy::kFixedK;
  cfg.fdet.fixed_k = 8;
  ThreadPool pool(4);
  auto seq = RunPartitionedFdet(g, cfg, nullptr).ValueOrDie();
  auto par = RunPartitionedFdet(g, cfg, &pool).ValueOrDie();
  ASSERT_EQ(seq.blocks.size(), par.blocks.size());
  for (size_t i = 0; i < seq.blocks.size(); ++i) {
    EXPECT_EQ(seq.blocks[i].users, par.blocks[i].users);
    EXPECT_DOUBLE_EQ(seq.blocks[i].score, par.blocks[i].score);
  }
}

TEST(PartitionedFdetTest, SeparatesIslandsThatGlobalGreedyMerges) {
  // The global greedy interleaves its peeling across components, so its
  // best prefix can be the UNION of two equal-ish-density islands; the
  // partitioned variant searches each island alone and must return them
  // as separate, individually denser blocks — a genuine quality advantage
  // of partitioning, not just a speedup.
  auto g = IslandsGraph();
  FdetConfig base_cfg;
  base_cfg.policy = TruncationPolicy::kFixedK;
  base_cfg.fixed_k = 2;
  auto global = RunFdet(g, base_cfg).ValueOrDie();

  PartitionedFdetConfig part_cfg;
  part_cfg.fdet = base_cfg;
  auto partitioned = RunPartitionedFdet(g, part_cfg).ValueOrDie();

  ASSERT_EQ(partitioned.blocks.size(), 2u);
  // Partitioned blocks are pure: each is exactly one island.
  EXPECT_EQ(partitioned.blocks[0].users,
            (std::vector<UserId>{0, 1, 2, 3, 4, 5, 6, 7}));
  EXPECT_EQ(partitioned.blocks[1].users,
            (std::vector<UserId>{8, 9, 10, 11, 12}));

  // Each partitioned block is at least as dense as any global block that
  // contains it (the union can only dilute φ).
  ASSERT_FALSE(global.blocks.empty());
  EXPECT_GE(partitioned.blocks[0].score, global.blocks[0].score - 1e-12);

  // Both searches flag the same island users overall.
  std::set<UserId> global_users, part_users;
  for (const auto& blk : global.blocks) {
    for (UserId u : blk.users) {
      if (u < 13) global_users.insert(u);
    }
  }
  for (const auto& blk : partitioned.blocks) {
    part_users.insert(blk.users.begin(), blk.users.end());
  }
  EXPECT_EQ(part_users.size(), 13u);
  EXPECT_TRUE(std::includes(part_users.begin(), part_users.end(),
                            global_users.begin(), global_users.end()));
}

TEST(PartitionedFdetTest, EmptyGraph) {
  GraphBuilder b(4, 4);
  auto g = b.Build().ValueOrDie();
  auto r = RunPartitionedFdet(g, {}).ValueOrDie();
  EXPECT_TRUE(r.blocks.empty());
  EXPECT_EQ(r.truncation_index, 0);
}

TEST(PartitionedFdetTest, AutoTruncationAppliesGlobally) {
  auto g = IslandsGraph();
  PartitionedFdetConfig cfg;  // auto elbow
  cfg.fdet.max_blocks = 10;
  auto r = RunPartitionedFdet(g, cfg).ValueOrDie();
  EXPECT_EQ(r.truncation_index, static_cast<int>(r.blocks.size()));
  EXPECT_LE(r.blocks.size(), r.all_scores.size());
  // The two dense islands must survive truncation.
  std::set<UserId> detected;
  for (const auto& blk : r.blocks) {
    detected.insert(blk.users.begin(), blk.users.end());
  }
  for (UserId u = 0; u < 13; ++u) EXPECT_TRUE(detected.count(u));
}

}  // namespace
}  // namespace ensemfdet
