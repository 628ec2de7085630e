#include "detect/fdet.h"

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "graph/graph_builder.h"

namespace ensemfdet {
namespace {

// Three complete blocks of comparable density plus much sparser noise —
// the plateau-then-cliff φ profile the Δ² truncation point expects.
CsrGraph ThreeBlockGraph() {
  GraphBuilder b(100, 60);
  // Block A: users 0-9 × merchants 0-4.
  for (UserId u = 0; u < 10; ++u) {
    for (MerchantId v = 0; v < 5; ++v) b.AddEdge(u, v);
  }
  // Block B: users 10-18 × merchants 5-9.
  for (UserId u = 10; u < 19; ++u) {
    for (MerchantId v = 5; v < 10; ++v) b.AddEdge(u, v);
  }
  // Block C: users 19-26 × merchants 10-13.
  for (UserId u = 19; u < 27; ++u) {
    for (MerchantId v = 10; v < 14; ++v) b.AddEdge(u, v);
  }
  // Sparse background noise.
  Rng rng(31);
  for (int i = 0; i < 60; ++i) {
    b.AddEdge(static_cast<UserId>(27 + rng.NextBounded(73)),
              static_cast<MerchantId>(14 + rng.NextBounded(46)));
  }
  return b.Build().ValueOrDie();
}

TEST(AutoTruncationTest, EmptySeries) {
  EXPECT_EQ(AutoTruncationIndex({}), 0);
}

TEST(AutoTruncationTest, ShortSeriesKeepEverything) {
  // No interior point to evaluate Δ² on: keep every block.
  EXPECT_EQ(AutoTruncationIndex({1.0}), 1);
  EXPECT_EQ(AutoTruncationIndex({1.0, 0.5}), 2);
}

TEST(AutoTruncationTest, SharpDropDetected) {
  // φ: 1.2, 1.15, 1.1, 0.5, 0.45, 0.44 — elbow after block 3.
  std::vector<double> scores{1.2, 1.15, 1.1, 0.5, 0.45, 0.44};
  EXPECT_EQ(AutoTruncationIndex(scores), 3);
}

TEST(AutoTruncationTest, CliffAfterFirstBlockIsBoundaryLimited) {
  // Definition 3 needs both neighbors, so a cliff between blocks 1 and 2
  // cannot register at i = 1; the flat tail's first point wins instead.
  // This mirrors the paper's definition verbatim — in FDET runs the cliff
  // sits between planted structure and explored noise, always interior.
  std::vector<double> scores{2.0, 0.3, 0.29, 0.28};
  EXPECT_EQ(AutoTruncationIndex(scores), 3);
}

TEST(AutoTruncationTest, LinearDecayKeepsFirstInterior) {
  // A linear series has Δ² = 0 at every interior point; ties resolve to
  // the earliest, truncating aggressively when there is no real elbow.
  // (Exact binary fractions so Δ² is exactly zero.)
  std::vector<double> scores{1.0, 0.875, 0.75, 0.625, 0.5};
  EXPECT_EQ(AutoTruncationIndex(scores), 2);
}

TEST(AutoTruncationTest, FlatThenCliffThenFlat) {
  std::vector<double> scores{1.0, 0.99, 0.98, 0.97, 0.40, 0.39, 0.38};
  EXPECT_EQ(AutoTruncationIndex(scores), 4);
}

TEST(FdetConfigTest, RejectsBadConfigs) {
  auto g = ThreeBlockGraph();
  FdetConfig bad;
  bad.max_blocks = 0;
  EXPECT_FALSE(RunFdet(g, bad).ok());

  FdetConfig bad_k;
  bad_k.policy = TruncationPolicy::kFixedK;
  bad_k.fixed_k = 0;
  EXPECT_FALSE(RunFdet(g, bad_k).ok());

  FdetConfig bad_c;
  bad_c.density.log_offset = 1.0;
  EXPECT_FALSE(RunFdet(g, bad_c).ok());
}

TEST(FdetTest, EmptyGraphNoBlocks) {
  GraphBuilder b(5, 5);
  auto g = b.Build().ValueOrDie();
  auto r = RunFdet(g, {}).ValueOrDie();
  EXPECT_TRUE(r.blocks.empty());
  EXPECT_EQ(r.truncation_index, 0);
}

TEST(FdetTest, RecoversAllThreePlantedGroups) {
  auto g = ThreeBlockGraph();
  FdetConfig cfg;
  cfg.max_blocks = 10;
  auto r = RunFdet(g, cfg).ValueOrDie();
  ASSERT_FALSE(r.blocks.empty());

  // Every planted user must survive auto-truncation (greedy may merge
  // equal-density groups into one detected block — FRAUDAR's greedy does
  // the same — but none of the planted structure may be truncated away).
  auto detected = r.DetectedUsers();
  std::set<UserId> detected_set(detected.begin(), detected.end());
  for (UserId u = 0; u < 27; ++u) {
    EXPECT_TRUE(detected_set.count(u)) << "planted user " << u << " lost";
  }

  // Synchronized groups stay together: each planted group lies entirely
  // inside a single detected block.
  auto group_in_one_block = [&](UserId lo, UserId hi) {
    for (const DetectedBlock& blk : r.blocks) {
      std::set<UserId> users(blk.users.begin(), blk.users.end());
      bool all = true;
      for (UserId u = lo; u < hi; ++u) all &= users.count(u) > 0;
      if (all) return true;
    }
    return false;
  };
  EXPECT_TRUE(group_in_one_block(0, 10));
  EXPECT_TRUE(group_in_one_block(10, 19));
  EXPECT_TRUE(group_in_one_block(19, 27));
}

TEST(FdetTest, DetectionOrderByDescendingScore) {
  auto g = ThreeBlockGraph();
  FdetConfig cfg;
  cfg.max_blocks = 10;
  auto r = RunFdet(g, cfg).ValueOrDie();
  // The all_scores series (pre-truncation) should be (weakly) decreasing —
  // each iteration removes the densest remaining block. Small wobbles can
  // occur because column weights are recomputed per residual graph, so
  // assert no large inversions.
  for (size_t i = 1; i < r.all_scores.size(); ++i) {
    EXPECT_LE(r.all_scores[i], r.all_scores[i - 1] * 1.10 + 1e-9)
        << "large score inversion at block " << i;
  }
}

TEST(FdetTest, BlockEdgeSetsDisjointNonemptyAndInsideBlock) {
  auto g = ThreeBlockGraph();
  FdetConfig cfg;
  cfg.max_blocks = 10;
  cfg.policy = TruncationPolicy::kFixedK;
  cfg.fixed_k = 10;
  auto r = RunFdet(g, cfg).ValueOrDie();
  ASSERT_FALSE(r.blocks.empty());
  // Algorithm 1 removes each detected block's residual edges: the per-block
  // edge sets must be nonempty, pairwise disjoint, and lie inside the
  // block's vertex set.
  std::set<EdgeId> claimed;
  for (const DetectedBlock& blk : r.blocks) {
    EXPECT_FALSE(blk.edges.empty());
    std::set<UserId> users(blk.users.begin(), blk.users.end());
    std::set<MerchantId> merchants(blk.merchants.begin(),
                                   blk.merchants.end());
    for (EdgeId e : blk.edges) {
      EXPECT_TRUE(claimed.insert(e).second) << "edge " << e << " in two "
                                            << "blocks";
      EXPECT_TRUE(users.count(g.edge(e).user));
      EXPECT_TRUE(merchants.count(g.edge(e).merchant));
    }
  }
}

TEST(FdetTest, TruncationIndexMatchesBlocksKept) {
  auto g = ThreeBlockGraph();
  auto r = RunFdet(g, {}).ValueOrDie();
  EXPECT_EQ(r.truncation_index, static_cast<int>(r.blocks.size()));
  EXPECT_LE(r.blocks.size(), r.all_scores.size());
}

TEST(FdetTest, AutoElbowTruncatesNoise) {
  // Auto truncation should keep close to the 3 planted blocks, not run to
  // max_blocks on background noise.
  auto g = ThreeBlockGraph();
  FdetConfig cfg;
  cfg.max_blocks = 20;
  auto r = RunFdet(g, cfg).ValueOrDie();
  EXPECT_GE(r.truncation_index, 1);
  EXPECT_LE(r.truncation_index, 8);
}

TEST(FdetTest, FixedKKeepsExactlyK) {
  auto g = ThreeBlockGraph();
  FdetConfig cfg;
  cfg.policy = TruncationPolicy::kFixedK;
  cfg.fixed_k = 2;
  auto r = RunFdet(g, cfg).ValueOrDie();
  EXPECT_EQ(r.blocks.size(), 2u);
  EXPECT_EQ(r.truncation_index, 2);
}

TEST(FdetTest, FixedKLargerThanAvailableKeepsAll) {
  GraphBuilder b(4, 2);
  for (UserId u = 0; u < 4; ++u) b.AddEdge(u, 0);
  auto g = b.Build().ValueOrDie();
  FdetConfig cfg;
  cfg.policy = TruncationPolicy::kFixedK;
  cfg.fixed_k = 30;
  auto r = RunFdet(g, cfg).ValueOrDie();
  EXPECT_LT(r.blocks.size(), 30u);
  EXPECT_EQ(r.truncation_index, static_cast<int>(r.blocks.size()));
}

TEST(FdetTest, DetectedUnionDeduplicated) {
  auto g = ThreeBlockGraph();
  FdetConfig cfg;
  cfg.policy = TruncationPolicy::kFixedK;
  cfg.fixed_k = 6;
  auto r = RunFdet(g, cfg).ValueOrDie();
  auto users = r.DetectedUsers();
  EXPECT_TRUE(std::is_sorted(users.begin(), users.end()));
  EXPECT_TRUE(std::adjacent_find(users.begin(), users.end()) == users.end());
  auto merchants = r.DetectedMerchants();
  EXPECT_TRUE(std::is_sorted(merchants.begin(), merchants.end()));
}

TEST(FdetTest, Deterministic) {
  auto g = ThreeBlockGraph();
  auto a = RunFdet(g, {}).ValueOrDie();
  auto b = RunFdet(g, {}).ValueOrDie();
  ASSERT_EQ(a.blocks.size(), b.blocks.size());
  for (size_t i = 0; i < a.blocks.size(); ++i) {
    EXPECT_EQ(a.blocks[i].users, b.blocks[i].users);
    EXPECT_DOUBLE_EQ(a.blocks[i].score, b.blocks[i].score);
  }
}

TEST(FdetTest, MaxBlocksRespected) {
  auto g = ThreeBlockGraph();
  FdetConfig cfg;
  cfg.max_blocks = 2;
  auto r = RunFdet(g, cfg).ValueOrDie();
  EXPECT_LE(r.all_scores.size(), 2u);
  EXPECT_LE(r.blocks.size(), 2u);
}

TEST(FdetTest, SingleBlockGraphTerminates) {
  GraphBuilder b(5, 3);
  for (UserId u = 0; u < 5; ++u) {
    for (MerchantId v = 0; v < 3; ++v) b.AddEdge(u, v);
  }
  auto g = b.Build().ValueOrDie();
  FdetConfig cfg;
  cfg.max_blocks = 40;
  auto r = RunFdet(g, cfg).ValueOrDie();
  EXPECT_GE(r.blocks.size(), 1u);
  // First block must be the whole planted block.
  EXPECT_EQ(r.blocks[0].users.size(), 5u);
  EXPECT_EQ(r.blocks[0].merchants.size(), 3u);
}

}  // namespace
}  // namespace ensemfdet
