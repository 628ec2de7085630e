// Cross-checks every SIMD kernel against its scalar referee
// (DESIGN.md §"SIMD kernels & dispatch"): randomized residual views at
// every available ISA level, over empty, single-lane, and
// non-multiple-of-width sizes. gather_slot_mass / next_alive must match
// the referee BIT-exactly (they are deployed on the peeling hot path
// under the ensemble's bit-parity gates); detection
// outputs are additionally pinned to vote-identity across levels
// (EndToEndDetectionParity).
#include "detect/simd/kernels.h"

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "detect/fdet.h"
#include "detect/simd/isa.h"
#include "ensemble/ensemfdet.h"
#include "graph/graph_builder.h"

namespace ensemfdet {
namespace simd {
namespace {

// Sizes straddling every width boundary: empty, sub-lane, exact-lane,
// lane+1, sub-block, exact AVX2/AVX-512 block, block+1, and large.
const int64_t kSizes[] = {0, 1, 3, 4, 5, 7, 8, 9, 31, 32, 33, 63, 64, 65, 257,
                          1000};

std::vector<IsaLevel> AvailableLevels() {
  std::vector<IsaLevel> levels = {IsaLevel::kScalar};
  if (DetectedIsaLevel() >= IsaLevel::kAvx2) levels.push_back(IsaLevel::kAvx2);
  if (DetectedIsaLevel() >= IsaLevel::kAvx512) {
    levels.push_back(IsaLevel::kAvx512);
  }
  return levels;
}

struct RandomView {
  std::vector<double> weight;
  std::vector<int32_t> merchant_packed;
  std::vector<double> col_weight;
  std::vector<uint8_t> alive;
  int32_t packed_base;
};

RandomView MakeView(int64_t n, uint64_t seed, double alive_fraction) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  RandomView v;
  v.packed_base = 100 + static_cast<int32_t>(rng() % 50);
  const int32_t num_merchants = 1 + static_cast<int32_t>(rng() % 40);
  v.col_weight.resize(static_cast<size_t>(num_merchants));
  for (double& w : v.col_weight) w = 0.25 + unit(rng);
  v.weight.resize(static_cast<size_t>(n));
  v.merchant_packed.resize(static_cast<size_t>(n));
  v.alive.resize(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    v.weight[static_cast<size_t>(i)] = unit(rng) * 3.0;
    v.merchant_packed[static_cast<size_t>(i)] =
        v.packed_base + static_cast<int32_t>(rng() % num_merchants);
    v.alive[static_cast<size_t>(i)] = unit(rng) < alive_fraction ? 1 : 0;
  }
  return v;
}

TEST(SimdKernelTest, GatherSlotMassBitExactAgainstScalarReferee) {
  const KernelTable& referee = ScalarKernels();
  for (IsaLevel level : AvailableLevels()) {
    const KernelTable& kern = KernelsFor(level);
    for (int64_t n : kSizes) {
      for (uint64_t seed : {1u, 2u, 3u}) {
        const RandomView v = MakeView(n, seed + static_cast<uint64_t>(n), 0.5);
        const double scale = 1.0 / (1.0 + static_cast<double>(seed));
        std::vector<double> got(static_cast<size_t>(n), -1.0);
        std::vector<double> want(static_cast<size_t>(n), -1.0);
        kern.gather_slot_mass(v.weight.data(), v.merchant_packed.data(),
                              v.packed_base, v.col_weight.data(), scale, n,
                              got.data());
        referee.gather_slot_mass(v.weight.data(), v.merchant_packed.data(),
                                 v.packed_base, v.col_weight.data(), scale, n,
                                 want.data());
        for (int64_t i = 0; i < n; ++i) {
          // == on doubles: the contract is bit-parity, not closeness.
          ASSERT_EQ(got[static_cast<size_t>(i)], want[static_cast<size_t>(i)])
              << IsaLevelName(level) << " n=" << n << " i=" << i;
        }
      }
    }
  }
}

TEST(SimdKernelTest, NextAliveMatchesScalarRefereeFromEveryPosition) {
  const KernelTable& referee = ScalarKernels();
  for (IsaLevel level : AvailableLevels()) {
    const KernelTable& kern = KernelsFor(level);
    for (int64_t n : kSizes) {
      for (double frac : {0.0, 0.03, 0.5, 1.0}) {
        const RandomView v =
            MakeView(n, static_cast<uint64_t>(n) * 31 + 7, frac);
        for (int64_t from = 0; from <= n; ++from) {
          ASSERT_EQ(kern.next_alive(v.alive.data(), n, from),
                    referee.next_alive(v.alive.data(), n, from))
              << IsaLevelName(level) << " n=" << n << " frac=" << frac
              << " from=" << from;
        }
      }
    }
  }
}

TEST(SimdKernelTest, NextAliveFullScanVisitsExactlyTheAliveSlots) {
  for (IsaLevel level : AvailableLevels()) {
    const KernelTable& kern = KernelsFor(level);
    const int64_t n = 257;
    const RandomView v = MakeView(n, 99, 0.3);
    std::vector<int64_t> visited;
    for (int64_t i = kern.next_alive(v.alive.data(), n, 0); i < n;
         i = kern.next_alive(v.alive.data(), n, i + 1)) {
      visited.push_back(i);
    }
    std::vector<int64_t> expected;
    for (int64_t i = 0; i < n; ++i) {
      if (v.alive[static_cast<size_t>(i)]) expected.push_back(i);
    }
    EXPECT_EQ(visited, expected) << IsaLevelName(level);
  }
}

TEST(SimdIsaTest, ScopedLevelForcesDownAndRestores) {
  const IsaLevel before = ActiveIsaLevel();
  {
    ScopedIsaLevel forced(IsaLevel::kScalar);
    ASSERT_TRUE(forced.ok());
    EXPECT_EQ(ActiveIsaLevel(), IsaLevel::kScalar);
    EXPECT_EQ(ActiveKernels().level, IsaLevel::kScalar);
  }
  EXPECT_EQ(ActiveIsaLevel(), before);
}

TEST(SimdIsaTest, SetActiveAboveDetectedCeilingIsRefused) {
  if (DetectedIsaLevel() >= IsaLevel::kAvx512) {
    GTEST_SKIP() << "no level above the ceiling to request on this machine";
  }
  const IsaLevel before = ActiveIsaLevel();
  EXPECT_FALSE(SetActiveIsaLevel(IsaLevel::kAvx512));
  EXPECT_EQ(ActiveIsaLevel(), before);
}

TEST(SimdIsaTest, KernelsForFallsBackDownward) {
  // Whatever the build/CPU, asking for a level always yields a table at
  // or below it, and asking for scalar yields exactly scalar.
  EXPECT_EQ(KernelsFor(IsaLevel::kScalar).level, IsaLevel::kScalar);
  EXPECT_LE(KernelsFor(IsaLevel::kAvx2).level, IsaLevel::kAvx2);
  EXPECT_LE(KernelsFor(IsaLevel::kAvx512).level, IsaLevel::kAvx512);
  EXPECT_EQ(ActiveKernels().level, ActiveIsaLevel());
}

TEST(SimdIsaTest, LevelNamesRoundTrip) {
  for (IsaLevel level :
       {IsaLevel::kScalar, IsaLevel::kAvx2, IsaLevel::kAvx512}) {
    IsaLevel parsed;
    ASSERT_TRUE(ParseIsaLevel(IsaLevelName(level), &parsed));
    EXPECT_EQ(parsed, level);
  }
  IsaLevel ignored;
  EXPECT_FALSE(ParseIsaLevel("sse9", &ignored));
  EXPECT_FALSE(ParseIsaLevel("", &ignored));
}

// The deployment-level guarantee: a full detection run produces
// IDENTICAL output (votes, weighted votes — == on doubles) at every
// dispatch level, because every kernel on the deployed path is
// bit-exact. This is the vote-identity gate the CI ISA matrix relies on.
TEST(SimdParityTest, EndToEndDetectionIdenticalAcrossIsaLevels) {
  GraphBuilder b(120, 50);
  for (UserId u = 0; u < 10; ++u) {
    for (MerchantId v = 0; v < 5; ++v) b.AddEdge(u, v);
  }
  std::mt19937_64 rng(4242);
  for (int i = 0; i < 250; ++i) {
    b.AddEdge(static_cast<UserId>(rng() % 120),
              static_cast<MerchantId>(rng() % 50),
              0.5 + static_cast<double>(rng() % 1000) / 1000.0);
  }
  const CsrGraph graph = b.Build().ValueOrDie();

  EnsemFDetConfig cfg;
  cfg.num_samples = 5;
  cfg.ratio = 0.3;
  cfg.seed = 11;
  EnsemFDet detector(cfg);

  EnsemFDetReport baseline;
  {
    ScopedIsaLevel forced(IsaLevel::kScalar);
    ASSERT_TRUE(forced.ok());
    baseline = detector.Run(graph).ValueOrDie();
  }
  for (IsaLevel level : AvailableLevels()) {
    ScopedIsaLevel forced(level);
    ASSERT_TRUE(forced.ok());
    const EnsemFDetReport got = detector.Run(graph).ValueOrDie();
    SCOPED_TRACE(IsaLevelName(level));
    ASSERT_EQ(got.votes.num_users(), baseline.votes.num_users());
    for (int64_t u = 0; u < got.votes.num_users(); ++u) {
      ASSERT_EQ(got.votes.user_votes(static_cast<UserId>(u)),
                baseline.votes.user_votes(static_cast<UserId>(u)))
          << "user " << u;
    }
    for (int64_t v = 0; v < got.votes.num_merchants(); ++v) {
      ASSERT_EQ(got.votes.merchant_votes(static_cast<MerchantId>(v)),
                baseline.votes.merchant_votes(static_cast<MerchantId>(v)))
          << "merchant " << v;
    }
    ASSERT_EQ(got.weighted_user_votes, baseline.weighted_user_votes);
    ASSERT_EQ(got.weighted_merchant_votes, baseline.weighted_merchant_votes);
  }
}

}  // namespace
}  // namespace simd
}  // namespace ensemfdet
