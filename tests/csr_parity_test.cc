// Bit-exact parity of the in-place peeling hot path against the seed
// implementations kept as referees: on random graphs — weighted and
// unweighted, dense and sparse, with isolated nodes — the residual-view
// peel must reproduce the seed peeler's scores, suspicious sets, traces,
// and removal orders on the compacted graph, and RunFdet must reproduce
// the materializing FDET, exactly (== on doubles, not near); the bucket
// k-core must match a naive peel.
#include <algorithm>
#include <numeric>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "detect/csr_peeler.h"
#include "detect/fdet.h"
#include "detect/greedy_peeler.h"
#include "detect/partitioned_fdet.h"
#include "graph/csr_graph.h"
#include "graph/graph_builder.h"
#include "graph/kcore.h"
#include "graph/subgraph.h"

namespace ensemfdet {
namespace {

// Random bipartite graph with a planted dense block (so FDET finds real
// structure, not just noise), background noise, and a tail of isolated
// nodes (the compaction edge case).
CsrGraph RandomPeelGraph(int64_t users, int64_t merchants,
                         int64_t noise_edges, uint64_t seed,
                         bool weighted) {
  GraphBuilder b(users, merchants);
  Rng rng(seed);
  const int64_t block_users = std::max<int64_t>(3, users / 8);
  const int64_t block_merchants = std::max<int64_t>(2, merchants / 8);
  for (UserId u = 0; u < block_users; ++u) {
    for (MerchantId v = 0; v < block_merchants; ++v) {
      b.AddEdge(u, v, weighted ? 1.0 + rng.NextDouble() : 1.0);
    }
  }
  // Noise over the front 3/4 of each side; the back quarter stays isolated.
  for (int64_t i = 0; i < noise_edges; ++i) {
    const UserId u = static_cast<UserId>(
        rng.NextBounded(static_cast<uint64_t>(std::max<int64_t>(
            1, users * 3 / 4))));
    const MerchantId v = static_cast<MerchantId>(
        rng.NextBounded(static_cast<uint64_t>(std::max<int64_t>(
            1, merchants * 3 / 4))));
    b.AddEdge(u, v, weighted ? 0.5 + rng.NextDouble() : 1.0);
  }
  return b.Build(DuplicatePolicy::kKeepFirst).ValueOrDie();
}

void ExpectPeelResultsIdentical(const PeelResult& seed,
                                const PeelResult& csr) {
  EXPECT_EQ(seed.users, csr.users);
  EXPECT_EQ(seed.merchants, csr.merchants);
  EXPECT_EQ(seed.score, csr.score);  // bit-exact, not near
  EXPECT_EQ(seed.trace, csr.trace);
  EXPECT_EQ(seed.removal_order, csr.removal_order);
}

void ExpectFdetResultsIdentical(const FdetResult& seed,
                                const FdetResult& csr) {
  EXPECT_EQ(seed.all_scores, csr.all_scores);
  EXPECT_EQ(seed.truncation_index, csr.truncation_index);
  ASSERT_EQ(seed.blocks.size(), csr.blocks.size());
  for (size_t i = 0; i < seed.blocks.size(); ++i) {
    EXPECT_EQ(seed.blocks[i].users, csr.blocks[i].users) << "block " << i;
    EXPECT_EQ(seed.blocks[i].merchants, csr.blocks[i].merchants)
        << "block " << i;
    EXPECT_EQ(seed.blocks[i].score, csr.blocks[i].score) << "block " << i;
    EXPECT_EQ(seed.blocks[i].edges, csr.blocks[i].edges) << "block " << i;
  }
}

// The seed peel of `g`'s compacted graph (isolated nodes dropped — the
// node set a residual peel works on), ids translated to `g`'s own.
PeelResult SeedPeelCompacted(const CsrGraph& g, const DensityConfig& density) {
  std::vector<EdgeId> all(static_cast<size_t>(g.num_edges()));
  std::iota(all.begin(), all.end(), EdgeId{0});
  const SubgraphView sub = SubgraphFromEdges(g, all);
  PeelResult r = PeelDensestBlock(sub.graph, density, /*keep_trace=*/true);
  for (UserId& u : r.users) u = sub.user_map[u];
  for (MerchantId& v : r.merchants) v = sub.merchant_map[v];
  const int64_t sub_users = sub.graph.num_users();
  for (int64_t& id : r.removal_order) {
    id = id < sub_users ? sub.user_map[static_cast<size_t>(id)]
                        : g.num_users() +
                              sub.merchant_map[static_cast<size_t>(
                                  id - sub_users)];
  }
  return r;
}

// The residual-view peel over every edge of `g`, on a test-owned arena,
// with the block translated from member ids to `g`'s own (the removal
// order already is in `g`'s packed ids).
PeelResult ViewPeelAllEdges(const CsrGraph& g, const DensityConfig& density) {
  PeelScratch scratch;
  CsrPeeler peeler(g, &scratch);
  std::vector<EdgeId> all(static_cast<size_t>(g.num_edges()));
  std::iota(all.begin(), all.end(), EdgeId{0});
  peeler.SetResidualView(all);
  std::fill_n(scratch.view_alive.begin(), all.size(), uint8_t{1});
  std::fill_n(scratch.view_alive_m.begin(), all.size(), uint8_t{1});
  PeelResult r = peeler.PeelAliveInView(density, /*weight_scale=*/1.0,
                                        /*keep_trace=*/true);
  for (UserId& u : r.users) u = scratch.member_users[u];
  for (MerchantId& v : r.merchants) v = scratch.member_merchants[v];
  return r;
}

class CsrParityTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, bool>> {};

TEST_P(CsrParityTest, PeelerBitExact) {
  const auto [seed, weighted] = GetParam();
  CsrGraph g = RandomPeelGraph(80, 50, 300, seed, weighted);
  for (ColumnWeightKind kind :
       {ColumnWeightKind::kLogarithmic, ColumnWeightKind::kInverse,
        ColumnWeightKind::kConstant}) {
    DensityConfig density;
    density.weight_kind = kind;
    ExpectPeelResultsIdentical(SeedPeelCompacted(g, density),
                               ViewPeelAllEdges(g, density));
  }
}

// Referee for the bucket peel: core(x) is the largest k such that x
// survives repeatedly deleting every node of degree < k. O(k · |E|).
KCoreDecomposition NaiveKCores(const CsrGraph& g) {
  KCoreDecomposition out;
  out.user_core.assign(static_cast<size_t>(g.num_users()), 0);
  out.merchant_core.assign(static_cast<size_t>(g.num_merchants()), 0);
  for (int32_t k = 1;; ++k) {
    std::vector<bool> user_alive(static_cast<size_t>(g.num_users()), true);
    std::vector<bool> merchant_alive(static_cast<size_t>(g.num_merchants()),
                                     true);
    for (bool changed = true; changed;) {
      changed = false;
      for (UserId u = 0; u < g.num_users(); ++u) {
        if (!user_alive[u]) continue;
        int64_t degree = 0;
        for (MerchantId v : g.user_neighbors(u)) degree += merchant_alive[v];
        if (degree < k) {
          user_alive[u] = false;
          changed = true;
        }
      }
      for (MerchantId v = 0; v < g.num_merchants(); ++v) {
        if (!merchant_alive[v]) continue;
        int64_t degree = 0;
        for (UserId u : g.merchant_neighbors(v)) degree += user_alive[u];
        if (degree < k) {
          merchant_alive[v] = false;
          changed = true;
        }
      }
    }
    bool any = false;
    for (UserId u = 0; u < g.num_users(); ++u) {
      if (user_alive[u]) {
        out.user_core[u] = k;
        any = true;
      }
    }
    for (MerchantId v = 0; v < g.num_merchants(); ++v) {
      if (merchant_alive[v]) {
        out.merchant_core[v] = k;
        any = true;
      }
    }
    if (!any) break;
    out.degeneracy = k;
  }
  return out;
}

TEST_P(CsrParityTest, KCoreMatchesNaivePeel) {
  const auto [seed, weighted] = GetParam();
  CsrGraph g = RandomPeelGraph(90, 60, 400, seed, weighted);
  KCoreDecomposition a = NaiveKCores(g);
  KCoreDecomposition b = ComputeKCores(g);
  EXPECT_EQ(a.user_core, b.user_core);
  EXPECT_EQ(a.merchant_core, b.merchant_core);
  EXPECT_EQ(a.degeneracy, b.degeneracy);
}

TEST_P(CsrParityTest, FdetBitExactAutoElbow) {
  const auto [seed, weighted] = GetParam();
  CsrGraph g = RandomPeelGraph(80, 50, 350, seed, weighted);
  FdetConfig cfg;
  cfg.max_blocks = 12;
  auto reference = RunFdetReference(g, cfg).ValueOrDie();
  auto csr = RunFdet(g, cfg).ValueOrDie();
  ExpectFdetResultsIdentical(reference, csr);
}

TEST_P(CsrParityTest, FdetBitExactFixedK) {
  const auto [seed, weighted] = GetParam();
  CsrGraph g = RandomPeelGraph(70, 45, 300, seed, weighted);
  FdetConfig cfg;
  cfg.policy = TruncationPolicy::kFixedK;
  cfg.fixed_k = 6;
  cfg.max_blocks = 6;
  auto reference = RunFdetReference(g, cfg).ValueOrDie();
  auto csr = RunFdet(g, cfg).ValueOrDie();
  ExpectFdetResultsIdentical(reference, csr);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, CsrParityTest,
    ::testing::Combine(::testing::Values(1u, 7u, 23u, 101u),
                       ::testing::Bool()));

TEST(CsrParityDegenerateTest, EmptyGraph) {
  CsrGraph g;
  ExpectPeelResultsIdentical(SeedPeelCompacted(g, {}),
                             ViewPeelAllEdges(g, {}));
  ExpectFdetResultsIdentical(RunFdetReference(g, {}).ValueOrDie(),
                             RunFdet(g, {}).ValueOrDie());
}

TEST(CsrParityDegenerateTest, EdgelessNodes) {
  GraphBuilder b(6, 4);
  CsrGraph g = b.Build().ValueOrDie();
  ExpectPeelResultsIdentical(SeedPeelCompacted(g, {}),
                             ViewPeelAllEdges(g, {}));
  ExpectFdetResultsIdentical(RunFdetReference(g, {}).ValueOrDie(),
                             RunFdet(g, {}).ValueOrDie());
}

TEST(CsrParityDegenerateTest, SingleEdge) {
  GraphBuilder b(3, 3);
  b.AddEdge(2, 1);
  CsrGraph g = b.Build().ValueOrDie();
  ExpectPeelResultsIdentical(SeedPeelCompacted(g, {}),
                             ViewPeelAllEdges(g, {}));
  ExpectFdetResultsIdentical(RunFdetReference(g, {}).ValueOrDie(),
                             RunFdet(g, {}).ValueOrDie());
}

TEST(CsrParityDegenerateTest, StarGraph) {
  // One merchant connected to every user — a worst case for tie-breaking.
  GraphBuilder b(12, 1);
  for (UserId u = 0; u < 12; ++u) b.AddEdge(u, 0);
  CsrGraph g = b.Build().ValueOrDie();
  ExpectPeelResultsIdentical(SeedPeelCompacted(g, {}),
                             ViewPeelAllEdges(g, {}));
  ExpectFdetResultsIdentical(RunFdetReference(g, {}).ValueOrDie(),
                             RunFdet(g, {}).ValueOrDie());
}

TEST(CsrParityTestInvalidConfig, CsrPathValidatesLikeReference) {
  GraphBuilder b(2, 2);
  b.AddEdge(0, 0);
  CsrGraph g = b.Build().ValueOrDie();
  FdetConfig bad;
  bad.max_blocks = 0;
  EXPECT_FALSE(RunFdet(g, bad).ok());
  EXPECT_FALSE(RunFdetReference(g, bad).ok());
}

// The partitioned runner's single-component fast path (no subgraph
// rebuild) must stay interchangeable with the seed's compacted route.
TEST(CsrParityPartitionedTest, SingleComponentFastPathMatchesReference) {
  // Fully connected small graph → exactly one component spanning all edges.
  GraphBuilder b(20, 10);
  Rng rng(33);
  for (UserId u = 0; u < 20; ++u) {
    b.AddEdge(u, static_cast<MerchantId>(u % 10));
    b.AddEdge(u, static_cast<MerchantId>(rng.NextBounded(10)));
  }
  CsrGraph g = b.Build().ValueOrDie();

  PartitionedFdetConfig pcfg;
  pcfg.fdet.max_blocks = 8;
  auto partitioned = RunPartitionedFdet(g, pcfg).ValueOrDie();

  // Reference: per-component explore + merge, which for one spanning
  // component is the global FDET re-sorted by score.
  FdetConfig explore = pcfg.fdet;
  explore.policy = TruncationPolicy::kFixedK;
  explore.fixed_k = pcfg.fdet.max_blocks;
  auto reference = RunFdetReference(g, explore).ValueOrDie();
  std::stable_sort(reference.blocks.begin(), reference.blocks.end(),
                   [](const DetectedBlock& a, const DetectedBlock& b) {
                     return a.score > b.score;
                   });
  std::vector<double> sorted_scores;
  for (const DetectedBlock& blk : reference.blocks) {
    sorted_scores.push_back(blk.score);
  }
  const int keep = AutoTruncationIndex(sorted_scores);
  ASSERT_EQ(partitioned.truncation_index, keep);
  ASSERT_EQ(static_cast<int>(partitioned.blocks.size()), keep);
  for (int i = 0; i < keep; ++i) {
    EXPECT_EQ(partitioned.blocks[i].users, reference.blocks[i].users);
    EXPECT_EQ(partitioned.blocks[i].merchants,
              reference.blocks[i].merchants);
    EXPECT_EQ(partitioned.blocks[i].score, reference.blocks[i].score);
    EXPECT_EQ(partitioned.blocks[i].edges, reference.blocks[i].edges);
  }
}

}  // namespace
}  // namespace ensemfdet
