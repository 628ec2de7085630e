// Tests for the Zipf sampler, the synthetic dataset generator, and the
// Table I presets.
#include <algorithm>
#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "datagen/generator.h"
#include "datagen/presets.h"
#include "datagen/zipf.h"
#include "graph/graph_stats.h"

namespace ensemfdet {
namespace {

TEST(ZipfSamplerTest, ProbabilitiesSumToOne) {
  ZipfSampler z(100, 1.1);
  double total = 0.0;
  for (int64_t r = 0; r < 100; ++r) total += z.Probability(r);
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(ZipfSamplerTest, ProbabilityDecreasingInRank) {
  ZipfSampler z(50, 0.8);
  for (int64_t r = 1; r < 50; ++r) {
    EXPECT_LE(z.Probability(r), z.Probability(r - 1) + 1e-15);
  }
}

TEST(ZipfSamplerTest, ExponentZeroIsUniform) {
  ZipfSampler z(10, 0.0);
  for (int64_t r = 0; r < 10; ++r) {
    EXPECT_NEAR(z.Probability(r), 0.1, 1e-12);
  }
}

TEST(ZipfSamplerTest, SamplesInRange) {
  ZipfSampler z(30, 1.0);
  Rng rng(1);
  for (int i = 0; i < 2000; ++i) {
    int64_t s = z.Sample(&rng);
    EXPECT_GE(s, 0);
    EXPECT_LT(s, 30);
  }
}

TEST(ZipfSamplerTest, EmpiricalMatchesTheoretical) {
  ZipfSampler z(20, 1.2);
  Rng rng(2);
  constexpr int kDraws = 200000;
  std::vector<int> counts(20, 0);
  for (int i = 0; i < kDraws; ++i) ++counts[static_cast<size_t>(z.Sample(&rng))];
  for (int64_t r = 0; r < 20; ++r) {
    const double expected = z.Probability(r);
    const double observed =
        static_cast<double>(counts[static_cast<size_t>(r)]) / kDraws;
    EXPECT_NEAR(observed, expected, 0.01 + expected * 0.1) << "rank " << r;
  }
}

TEST(ZipfSamplerTest, SingleElement) {
  ZipfSampler z(1, 2.0);
  Rng rng(3);
  EXPECT_EQ(z.Sample(&rng), 0);
  EXPECT_DOUBLE_EQ(z.Probability(0), 1.0);
}

DataGenConfig SmallConfig() {
  DataGenConfig config;
  config.name = "unit";
  config.num_users = 500;
  config.num_merchants = 200;
  config.num_edges = 2000;
  FraudGroupSpec group;
  group.num_users = 30;
  group.num_merchants = 5;
  group.edges_per_user = 4.0;
  group.camouflage_per_user = 1.0;
  config.fraud_groups.push_back(group);
  FraudGroupSpec group2;
  group2.num_users = 20;
  group2.num_merchants = 4;
  group2.edges_per_user = 3.0;
  config.fraud_groups.push_back(group2);
  config.seed = 1234;
  return config;
}

TEST(GeneratorTest, ValidatesConfig) {
  DataGenConfig config = SmallConfig();
  config.num_users = 0;
  EXPECT_FALSE(GenerateDataset(config).ok());

  config = SmallConfig();
  config.fraud_groups[0].num_users = 10000;  // exceeds user budget
  EXPECT_FALSE(GenerateDataset(config).ok());

  config = SmallConfig();
  config.blacklist_miss_rate = 1.5;
  EXPECT_FALSE(GenerateDataset(config).ok());

  config = SmallConfig();
  config.fraud_groups[0].edges_per_user = -1.0;
  EXPECT_FALSE(GenerateDataset(config).ok());
}

TEST(GeneratorTest, ShapeMatchesConfig) {
  auto data = GenerateDataset(SmallConfig()).ValueOrDie();
  EXPECT_EQ(data.name, "unit");
  EXPECT_EQ(data.graph.num_users(), 500);
  EXPECT_EQ(data.graph.num_merchants(), 200);
  // Dedup can only shrink the edge budget.
  EXPECT_LE(data.graph.num_edges(), 2000);
  EXPECT_GT(data.graph.num_edges(), 1500);
}

TEST(GeneratorTest, PlantedFraudCounts) {
  auto data = GenerateDataset(SmallConfig()).ValueOrDie();
  EXPECT_EQ(data.planted_fraud_users.size(), 50u);
  EXPECT_EQ(data.fraud_user_groups.size(), 2u);
  EXPECT_EQ(data.fraud_user_groups[0].size(), 30u);
  EXPECT_EQ(data.fraud_user_groups[1].size(), 20u);
  EXPECT_EQ(data.planted_fraud_merchants.size(), 9u);
  // Groups are disjoint.
  std::set<UserId> all(data.planted_fraud_users.begin(),
                       data.planted_fraud_users.end());
  EXPECT_EQ(all.size(), 50u);
}

TEST(GeneratorTest, FraudUsersConnectToGroupMerchants) {
  auto data = GenerateDataset(SmallConfig()).ValueOrDie();
  std::set<MerchantId> fraud_merchants(data.planted_fraud_merchants.begin(),
                                       data.planted_fraud_merchants.end());
  // Every planted fraud user must have at least one within-block edge.
  for (UserId u : data.planted_fraud_users) {
    bool has_block_edge = false;
    for (MerchantId v : data.graph.user_neighbors(u)) {
      has_block_edge |= fraud_merchants.count(v) > 0;
    }
    EXPECT_TRUE(has_block_edge) << "fraud user " << u;
  }
}

TEST(GeneratorTest, BlacklistMissRateApplied) {
  DataGenConfig config = SmallConfig();
  config.blacklist_miss_rate = 0.5;
  config.blacklist_noise_rate = 0.0;
  auto data = GenerateDataset(config).ValueOrDie();
  // ~50% of 50 planted users blacklisted; binomial bounds.
  EXPECT_GT(data.blacklist.num_fraud(), 10);
  EXPECT_LT(data.blacklist.num_fraud(), 40);
  // Every blacklisted user is planted (no noise).
  std::set<UserId> planted(data.planted_fraud_users.begin(),
                           data.planted_fraud_users.end());
  for (UserId u : data.blacklist.FraudUsers()) {
    EXPECT_TRUE(planted.count(u));
  }
}

TEST(GeneratorTest, BlacklistNoiseAddsBenignUsers) {
  DataGenConfig config = SmallConfig();
  config.blacklist_miss_rate = 0.0;
  config.blacklist_noise_rate = 0.2;  // 10 benign users
  auto data = GenerateDataset(config).ValueOrDie();
  std::set<UserId> planted(data.planted_fraud_users.begin(),
                           data.planted_fraud_users.end());
  int64_t noise = 0;
  for (UserId u : data.blacklist.FraudUsers()) noise += !planted.count(u);
  EXPECT_EQ(noise, 10);
  EXPECT_EQ(data.blacklist.num_fraud(), 60);  // 50 planted + 10 noise
}

TEST(GeneratorTest, ZeroRatesExactBlacklist) {
  DataGenConfig config = SmallConfig();
  config.blacklist_miss_rate = 0.0;
  config.blacklist_noise_rate = 0.0;
  auto data = GenerateDataset(config).ValueOrDie();
  EXPECT_EQ(data.blacklist.FraudUsers(), data.planted_fraud_users);
}

TEST(GeneratorTest, DeterministicInSeed) {
  auto a = GenerateDataset(SmallConfig()).ValueOrDie();
  auto b = GenerateDataset(SmallConfig()).ValueOrDie();
  EXPECT_EQ(a.graph.num_edges(), b.graph.num_edges());
  EXPECT_EQ(a.planted_fraud_users, b.planted_fraud_users);
  EXPECT_EQ(a.blacklist.FraudUsers(), b.blacklist.FraudUsers());
  for (EdgeId e = 0; e < a.graph.num_edges(); ++e) {
    EXPECT_EQ(a.graph.edge(e), b.graph.edge(e));
  }
}

TEST(GeneratorTest, DifferentSeedsDifferentGraphs) {
  DataGenConfig config = SmallConfig();
  config.seed = 99;
  auto a = GenerateDataset(SmallConfig()).ValueOrDie();
  auto b = GenerateDataset(config).ValueOrDie();
  EXPECT_NE(a.planted_fraud_users, b.planted_fraud_users);
}

TEST(GeneratorTest, CommunitiesDisjointFromFraudAndUnlabeled) {
  DataGenConfig config = SmallConfig();
  CommunitySpec community;
  community.num_users = 80;
  community.num_merchants = 10;
  community.edges_per_user = 2.0;
  config.communities.push_back(community);
  config.blacklist_noise_rate = 0.0;
  auto data = GenerateDataset(config).ValueOrDie();

  ASSERT_EQ(data.community_user_groups.size(), 1u);
  EXPECT_EQ(data.community_user_groups[0].size(), 80u);
  std::set<UserId> fraud(data.planted_fraud_users.begin(),
                         data.planted_fraud_users.end());
  for (UserId u : data.community_user_groups[0]) {
    EXPECT_FALSE(fraud.count(u)) << "community member is a fraud user";
    EXPECT_FALSE(data.blacklist.IsFraud(u))
        << "community member wrongly blacklisted";
    EXPECT_GT(data.graph.user_degree(u), 0);
  }
}

TEST(GeneratorTest, CommunityValidation) {
  DataGenConfig config = SmallConfig();
  CommunitySpec community;
  community.num_users = 10000;  // exceeds the user budget
  community.num_merchants = 5;
  config.communities.push_back(community);
  EXPECT_FALSE(GenerateDataset(config).ok());

  config = SmallConfig();
  community.num_users = 10;
  community.num_merchants = 0;
  config.communities = {community};
  EXPECT_FALSE(GenerateDataset(config).ok());
}

TEST(GeneratorTest, CommunityEdgesCountTowardBudget) {
  DataGenConfig config = SmallConfig();
  CommunitySpec community;
  community.num_users = 100;
  community.num_merchants = 10;
  community.edges_per_user = 3.0;
  config.communities.push_back(community);
  auto data = GenerateDataset(config).ValueOrDie();
  EXPECT_LE(data.graph.num_edges(), config.num_edges);
}

TEST(GeneratorTest, NoFraudGroupsPureBackground) {
  DataGenConfig config = SmallConfig();
  config.fraud_groups.clear();
  auto data = GenerateDataset(config).ValueOrDie();
  EXPECT_TRUE(data.planted_fraud_users.empty());
  EXPECT_EQ(data.blacklist.num_fraud(), 0);
  EXPECT_GT(data.graph.num_edges(), 0);
}

TEST(PresetsTest, NamesAndEnumeration) {
  auto all = AllJdPresets();
  ASSERT_EQ(all.size(), 3u);
  EXPECT_STREQ(JdPresetName(all[0]), "dataset1");
  EXPECT_STREQ(JdPresetName(all[1]), "dataset2");
  EXPECT_STREQ(JdPresetName(all[2]), "dataset3");
}

TEST(PresetsTest, ScaledCountsTrackTableOne) {
  const double scale = 0.01;
  DataGenConfig c1 = MakeJdPresetConfig(JdPreset::kDataset1, scale, 7);
  EXPECT_NEAR(static_cast<double>(c1.num_users), 454925 * scale,
              454925 * scale * 0.01 + 2);
  EXPECT_NEAR(static_cast<double>(c1.num_merchants), 226585 * scale,
              226585 * scale * 0.01 + 2);
  EXPECT_NEAR(static_cast<double>(c1.num_edges), 1023846 * scale,
              1023846 * scale * 0.01 + 2);
}

TEST(PresetsTest, RelativeShapeAcrossDatasets) {
  // Dataset 2 has the most users per merchant; dataset 3 the most edges.
  const double scale = 0.01;
  auto c1 = MakeJdPresetConfig(JdPreset::kDataset1, scale, 7);
  auto c2 = MakeJdPresetConfig(JdPreset::kDataset2, scale, 7);
  auto c3 = MakeJdPresetConfig(JdPreset::kDataset3, scale, 7);
  EXPECT_GT(c2.num_users / c2.num_merchants, c1.num_users / c1.num_merchants);
  EXPECT_GT(c3.num_edges, c1.num_edges);
  EXPECT_GT(c3.num_edges, c2.num_edges);
}

TEST(PresetsTest, GeneratesValidDatasets) {
  for (JdPreset preset : AllJdPresets()) {
    auto data = GenerateJdPreset(preset, 0.005, 7);
    ASSERT_TRUE(data.ok()) << JdPresetName(preset);
    EXPECT_GT(data->graph.num_edges(), 0);
    EXPECT_GT(data->blacklist.num_fraud(), 0);
    EXPECT_FALSE(data->fraud_user_groups.empty());
  }
}

TEST(PresetsTest, MerchantSideHeavierInDataset3) {
  // Table I shape: dataset 3 has Davg(merchant) ≫ Davg(user) — the
  // property Fig 5's sampling-side analysis relies on.
  auto data = GenerateJdPreset(JdPreset::kDataset3, 0.01, 7).ValueOrDie();
  DegreeStats users = ComputeDegreeStats(data.graph, Side::kUser);
  DegreeStats merchants = ComputeDegreeStats(data.graph, Side::kMerchant);
  EXPECT_GT(merchants.avg_degree, 2.0 * users.avg_degree);
}

TEST(PresetsDeathTest, RejectsBadScale) {
  EXPECT_DEATH((void)MakeJdPresetConfig(JdPreset::kDataset1, 0.0, 7),
               "scale");
  EXPECT_DEATH((void)MakeJdPresetConfig(JdPreset::kDataset1, 1.5, 7),
               "scale");
}

}  // namespace
}  // namespace ensemfdet
