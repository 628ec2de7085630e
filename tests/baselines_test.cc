// Tests for the FRAUDAR, SPOKEN, and FBOX baselines.
#include <algorithm>
#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "baselines/fbox.h"
#include "baselines/fraudar.h"
#include "baselines/spoken.h"
#include "common/rng.h"
#include "graph/graph_builder.h"

namespace ensemfdet {
namespace {

// Two planted blocks (10×4 and 6×3) in a 150×60 sparse background.
CsrGraph TwoBlockGraph() {
  GraphBuilder b(150, 60);
  for (UserId u = 0; u < 10; ++u) {
    for (MerchantId v = 0; v < 4; ++v) b.AddEdge(u, v);
  }
  for (UserId u = 10; u < 16; ++u) {
    for (MerchantId v = 4; v < 7; ++v) b.AddEdge(u, v);
  }
  Rng rng(51);
  for (int i = 0; i < 250; ++i) {
    b.AddEdge(static_cast<UserId>(16 + rng.NextBounded(134)),
              static_cast<MerchantId>(7 + rng.NextBounded(53)));
  }
  return b.Build().ValueOrDie();
}

// --- FRAUDAR ---------------------------------------------------------------

TEST(FraudarTest, FindsBothPlantedBlocks) {
  auto g = TwoBlockGraph();
  FraudarConfig cfg;
  cfg.num_blocks = 5;
  auto r = RunFraudar(g, cfg).ValueOrDie();
  ASSERT_GE(r.blocks.size(), 2u);
  std::set<UserId> first(r.blocks[0].users.begin(), r.blocks[0].users.end());
  for (UserId u = 0; u < 10; ++u) EXPECT_TRUE(first.count(u));
  std::set<UserId> second(r.blocks[1].users.begin(),
                          r.blocks[1].users.end());
  for (UserId u = 10; u < 16; ++u) EXPECT_TRUE(second.count(u));
}

TEST(FraudarTest, BlockCountBounded) {
  auto g = TwoBlockGraph();
  FraudarConfig cfg;
  cfg.num_blocks = 3;
  auto r = RunFraudar(g, cfg).ValueOrDie();
  EXPECT_LE(r.blocks.size(), 3u);
}

TEST(FraudarTest, UserBlocksMatchBlockList) {
  auto g = TwoBlockGraph();
  FraudarConfig cfg;
  cfg.num_blocks = 4;
  auto r = RunFraudar(g, cfg).ValueOrDie();
  auto ub = r.UserBlocks();
  ASSERT_EQ(ub.size(), r.blocks.size());
  for (size_t i = 0; i < ub.size(); ++i) {
    EXPECT_EQ(ub[i], r.blocks[i].users);
  }
}

TEST(FraudarTest, DetectedUsersIsSortedUnion) {
  auto g = TwoBlockGraph();
  FraudarConfig cfg;
  cfg.num_blocks = 4;
  auto r = RunFraudar(g, cfg).ValueOrDie();
  auto users = r.DetectedUsers();
  EXPECT_TRUE(std::is_sorted(users.begin(), users.end()));
  EXPECT_TRUE(std::adjacent_find(users.begin(), users.end()) == users.end());
  // Union covers at least both planted blocks.
  std::set<UserId> set(users.begin(), users.end());
  for (UserId u = 0; u < 16; ++u) EXPECT_TRUE(set.count(u));
}

TEST(FraudarTest, ScoresDescendAcrossBlocks) {
  auto g = TwoBlockGraph();
  FraudarConfig cfg;
  cfg.num_blocks = 5;
  auto r = RunFraudar(g, cfg).ValueOrDie();
  for (size_t i = 1; i < r.blocks.size(); ++i) {
    EXPECT_LE(r.blocks[i].score, r.blocks[i - 1].score * 1.10 + 1e-9);
  }
}

TEST(FraudarTest, EmptyGraphNoBlocks) {
  GraphBuilder b(3, 3);
  auto g = b.Build().ValueOrDie();
  auto r = RunFraudar(g, {}).ValueOrDie();
  EXPECT_TRUE(r.blocks.empty());
}

// --- SPOKEN ------------------------------------------------------------------

TEST(SpokenTest, RejectsBadConfig) {
  auto g = TwoBlockGraph();
  SpokenConfig cfg;
  cfg.num_components = 0;
  EXPECT_FALSE(RunSpoken(g, cfg).ok());
}

TEST(SpokenTest, RejectsEdgelessGraph) {
  GraphBuilder b(3, 3);
  auto g = b.Build().ValueOrDie();
  EXPECT_FALSE(RunSpoken(g, {}).ok());
}

TEST(SpokenTest, OutputShape) {
  auto g = TwoBlockGraph();
  SpokenConfig cfg;
  cfg.num_components = 5;
  auto r = RunSpoken(g, cfg).ValueOrDie();
  EXPECT_EQ(static_cast<int64_t>(r.user_scores.size()), g.num_users());
  EXPECT_EQ(static_cast<int64_t>(r.merchant_scores.size()),
            g.num_merchants());
  EXPECT_EQ(r.singular_values.size(), 5u);
  for (double s : r.user_scores) {
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, 1.0 + 1e-9);  // |entry| of a unit vector
  }
}

TEST(SpokenTest, BlockUsersScoreHigherThanBackground) {
  auto g = TwoBlockGraph();
  SpokenConfig cfg;
  cfg.num_components = 5;
  auto r = RunSpoken(g, cfg).ValueOrDie();
  double block_avg = 0.0, background_avg = 0.0;
  for (UserId u = 0; u < 16; ++u) block_avg += r.user_scores[u];
  for (int64_t u = 16; u < g.num_users(); ++u) {
    background_avg += r.user_scores[static_cast<size_t>(u)];
  }
  block_avg /= 16.0;
  background_avg /= static_cast<double>(g.num_users() - 16);
  EXPECT_GT(block_avg, 3.0 * background_avg);
}

TEST(SpokenTest, ComponentCapping) {
  // Requesting more components than min(m, n) silently caps.
  GraphBuilder b(4, 2);
  b.AddEdge(0, 0);
  b.AddEdge(1, 0);
  b.AddEdge(2, 1);
  b.AddEdge(3, 1);
  auto g = b.Build().ValueOrDie();
  SpokenConfig cfg;
  cfg.num_components = 25;
  auto r = RunSpoken(g, cfg).ValueOrDie();
  EXPECT_EQ(r.singular_values.size(), 2u);
}

// --- FBOX --------------------------------------------------------------------

TEST(FboxTest, RejectsBadConfig) {
  auto g = TwoBlockGraph();
  FboxConfig cfg;
  cfg.num_components = -1;
  EXPECT_FALSE(RunFbox(g, cfg).ok());
}

TEST(FboxTest, RejectsEdgelessGraph) {
  GraphBuilder b(2, 2);
  auto g = b.Build().ValueOrDie();
  EXPECT_FALSE(RunFbox(g, {}).ok());
}

TEST(FboxTest, OutputShapeAndNonNegativity) {
  auto g = TwoBlockGraph();
  FboxConfig cfg;
  cfg.num_components = 5;
  auto r = RunFbox(g, cfg).ValueOrDie();
  EXPECT_EQ(static_cast<int64_t>(r.user_scores.size()), g.num_users());
  EXPECT_EQ(static_cast<int64_t>(r.reconstruction_norms.size()),
            g.num_users());
  for (double s : r.user_scores) EXPECT_GE(s, 0.0);
  for (double n : r.reconstruction_norms) EXPECT_GE(n, 0.0);
}

TEST(FboxTest, IsolatedUsersScoreZero) {
  GraphBuilder b(3, 2);
  b.AddEdge(0, 0);
  b.AddEdge(1, 1);
  // user 2 isolated
  auto g = b.Build().ValueOrDie();
  FboxConfig cfg;
  cfg.num_components = 1;
  auto r = RunFbox(g, cfg).ValueOrDie();
  EXPECT_DOUBLE_EQ(r.user_scores[2], 0.0);
}

TEST(FboxTest, SmallAttackEvadingTopComponentsScoresHigh) {
  // Dominant legitimate structure: 40 users × 8 merchants dense community.
  // Small attack: 4 users × 2 private merchants. The attack is (nearly)
  // orthogonal to the top singular directions, so its users' adjacency
  // rows reconstruct poorly → high FBOX score.
  GraphBuilder b(60, 20);
  Rng rng(61);
  for (UserId u = 0; u < 40; ++u) {
    for (MerchantId v = 0; v < 8; ++v) {
      if (rng.NextBernoulli(0.7)) b.AddEdge(u, v);
    }
  }
  for (UserId u = 40; u < 44; ++u) {
    b.AddEdge(u, 18);
    b.AddEdge(u, 19);
  }
  auto g = b.Build().ValueOrDie();
  FboxConfig cfg;
  cfg.num_components = 2;
  auto r = RunFbox(g, cfg).ValueOrDie();
  double attack_min = 1e300, community_max = 0.0;
  for (UserId u = 40; u < 44; ++u) {
    attack_min = std::min(attack_min, r.user_scores[u]);
  }
  for (UserId u = 0; u < 40; ++u) {
    community_max = std::max(community_max, r.user_scores[u]);
  }
  EXPECT_GT(attack_min, community_max);
}

TEST(FboxTest, ReconstructionNormsBoundedByRowNorm) {
  // A projection cannot exceed the row's own norm: r_i ≤ ‖a_i‖ = √d_i for
  // 0/1 rows (allow slack for numerical error).
  auto g = TwoBlockGraph();
  FboxConfig cfg;
  cfg.num_components = 8;
  auto r = RunFbox(g, cfg).ValueOrDie();
  for (int64_t u = 0; u < g.num_users(); ++u) {
    const double row_norm =
        std::sqrt(static_cast<double>(g.user_degree(static_cast<UserId>(u))));
    EXPECT_LE(r.reconstruction_norms[static_cast<size_t>(u)],
              row_norm + 1e-6);
  }
}

}  // namespace
}  // namespace ensemfdet
