// Tests for the HITS extension baseline and the ROC-curve evaluation.
#include <cmath>

#include <gtest/gtest.h>

#include "baselines/hits.h"
#include "common/rng.h"
#include "eval/curves.h"
#include "graph/graph_builder.h"

namespace ensemfdet {
namespace {

CsrGraph LockstepGraph() {
  // Lockstep block users 0-7 × merchants 0-2 inside light noise.
  GraphBuilder b(60, 20);
  for (UserId u = 0; u < 8; ++u) {
    for (MerchantId v = 0; v < 3; ++v) b.AddEdge(u, v);
  }
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    b.AddEdge(static_cast<UserId>(8 + rng.NextBounded(52)),
              static_cast<MerchantId>(3 + rng.NextBounded(17)));
  }
  return b.Build().ValueOrDie();
}

TEST(HitsTest, RejectsBadInput) {
  GraphBuilder b(2, 2);
  auto empty = b.Build().ValueOrDie();
  EXPECT_FALSE(RunHits(empty).ok());

  auto g = LockstepGraph();
  HitsConfig cfg;
  cfg.iterations = 0;
  EXPECT_FALSE(RunHits(g, cfg).ok());
}

TEST(HitsTest, OutputShapeAndNormalization) {
  auto g = LockstepGraph();
  auto r = RunHits(g).ValueOrDie();
  EXPECT_EQ(static_cast<int64_t>(r.user_hub_scores.size()), g.num_users());
  EXPECT_EQ(static_cast<int64_t>(r.merchant_authority_scores.size()),
            g.num_merchants());
  double hub_norm = 0.0, auth_norm = 0.0;
  for (double s : r.user_hub_scores) hub_norm += s * s;
  for (double s : r.merchant_authority_scores) auth_norm += s * s;
  EXPECT_NEAR(std::sqrt(hub_norm), 1.0, 1e-9);
  EXPECT_NEAR(std::sqrt(auth_norm), 1.0, 1e-9);
  EXPECT_GE(r.iterations_run, 1);
}

TEST(HitsTest, LockstepBlockDominatesHubRanking) {
  auto g = LockstepGraph();
  auto r = RunHits(g).ValueOrDie();
  double block_min = 1e300, noise_max = 0.0;
  for (UserId u = 0; u < 8; ++u) {
    block_min = std::min(block_min, r.user_hub_scores[u]);
  }
  for (int64_t u = 8; u < g.num_users(); ++u) {
    noise_max =
        std::max(noise_max, r.user_hub_scores[static_cast<size_t>(u)]);
  }
  EXPECT_GT(block_min, noise_max);
}

TEST(HitsTest, ConvergesEarlyWithTightTolerance) {
  auto g = LockstepGraph();
  HitsConfig cfg;
  cfg.iterations = 500;
  cfg.tolerance = 1e-12;
  auto r = RunHits(g, cfg).ValueOrDie();
  EXPECT_LT(r.iterations_run, 500);
}

TEST(HitsTest, DeterministicAcrossRuns) {
  auto g = LockstepGraph();
  auto a = RunHits(g).ValueOrDie();
  auto b = RunHits(g).ValueOrDie();
  for (size_t u = 0; u < a.user_hub_scores.size(); ++u) {
    EXPECT_DOUBLE_EQ(a.user_hub_scores[u], b.user_hub_scores[u]);
  }
}

TEST(HitsTest, IsolatedUsersScoreZero) {
  GraphBuilder b(3, 1);
  b.AddEdge(0, 0);
  b.AddEdge(1, 0);
  auto g = b.Build().ValueOrDie();
  auto r = RunHits(g).ValueOrDie();
  EXPECT_DOUBLE_EQ(r.user_hub_scores[2], 0.0);
  EXPECT_GT(r.user_hub_scores[0], 0.0);
}

// --- ROC ------------------------------------------------------------------

TEST(RocTest, PerfectRankingAucOne) {
  // Fraud users 0,1 with the top scores → AUC 1.
  std::vector<double> scores{0.9, 0.8, 0.3, 0.2, 0.1};
  LabelSet labels(5, std::vector<UserId>{0, 1});
  auto roc = RocCurve(scores, labels);
  EXPECT_NEAR(RocAuc(roc), 1.0, 1e-12);
}

TEST(RocTest, InvertedRankingAucZero) {
  std::vector<double> scores{0.1, 0.2, 0.8, 0.9};
  LabelSet labels(4, std::vector<UserId>{0, 1});
  auto roc = RocCurve(scores, labels);
  EXPECT_NEAR(RocAuc(roc), 0.0, 1e-12);
}

TEST(RocTest, UniformScoresAucHalf) {
  // All scores tied → single step from (0,0) to (1,1) → AUC 0.5.
  std::vector<double> scores(10, 0.5);
  LabelSet labels(10, std::vector<UserId>{0, 3, 7});
  auto roc = RocCurve(scores, labels);
  EXPECT_NEAR(RocAuc(roc), 0.5, 1e-12);
  // Exactly 2 points: the origin and the all-in point.
  EXPECT_EQ(roc.size(), 2u);
}

TEST(RocTest, CurveEndsAtOneOne) {
  std::vector<double> scores{0.5, 0.4, 0.3, 0.9};
  LabelSet labels(4, std::vector<UserId>{2});
  auto roc = RocCurve(scores, labels);
  ASSERT_GE(roc.size(), 2u);
  EXPECT_DOUBLE_EQ(roc.front().true_positive_rate, 0.0);
  EXPECT_DOUBLE_EQ(roc.front().false_positive_rate, 0.0);
  EXPECT_DOUBLE_EQ(roc.back().true_positive_rate, 1.0);
  EXPECT_DOUBLE_EQ(roc.back().false_positive_rate, 1.0);
}

TEST(RocTest, RatesMonotone) {
  Rng rng(5);
  std::vector<double> scores(50);
  for (double& s : scores) s = rng.NextDouble();
  std::vector<UserId> fraud;
  for (UserId u = 0; u < 50; u += 7) fraud.push_back(u);
  LabelSet labels(50, fraud);
  auto roc = RocCurve(scores, labels);
  for (size_t i = 1; i < roc.size(); ++i) {
    EXPECT_GE(roc[i].true_positive_rate, roc[i - 1].true_positive_rate);
    EXPECT_GE(roc[i].false_positive_rate, roc[i - 1].false_positive_rate);
  }
}

TEST(RocTest, KnownAucHandComputed) {
  // Ranking: fraud, benign, fraud, benign → points after each distinct
  // score: (0, .5) (.5, .5) (.5, 1) (1, 1); AUC = 0.5*0.5 + 0.5*1 = 0.75.
  std::vector<double> scores{0.9, 0.7, 0.5, 0.3};
  LabelSet labels(4, std::vector<UserId>{0, 2});
  auto roc = RocCurve(scores, labels);
  EXPECT_NEAR(RocAuc(roc), 0.75, 1e-12);
}

TEST(RocTest, AucDegenerateCases) {
  EXPECT_DOUBLE_EQ(RocAuc({}), 0.0);
  std::vector<RocPoint> one(1);
  EXPECT_DOUBLE_EQ(RocAuc(one), 0.0);
}

TEST(RocTest, HitsRankingBeatsChanceOnLockstepGraph) {
  auto g = LockstepGraph();
  auto hits = RunHits(g).ValueOrDie();
  std::vector<UserId> fraud;
  for (UserId u = 0; u < 8; ++u) fraud.push_back(u);
  LabelSet labels(g.num_users(), fraud);
  auto roc = RocCurve(hits.user_hub_scores, labels);
  EXPECT_GT(RocAuc(roc), 0.9);
}

}  // namespace
}  // namespace ensemfdet
