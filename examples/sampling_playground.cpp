// Sampling playground: make the paper's §IV-A sampling analysis tangible.
//
//   $ ./build/examples/sampling_playground
//
// On a dataset-3-shaped graph (merchant side much heavier than the user
// side) this example:
//   1. prints Lemma 1's expected-inclusion theory vs the empirical rates
//      measured from actual RES / ONS samples,
//   2. shows each method's sampled-graph size at the same ratio S (TNS's
//      ≈S² edge count, ONS-merchant's blow-up from popular merchants),
//   3. demonstrates Theorem 1: with 1/p reweighting, an edge sample's
//      density score estimates the parent's.
#include <cstdio>
#include <iostream>

#include "core/ensemfdet.h"

using namespace ensemfdet;

int main() {
  const double scale = GetEnvDouble("ENSEMFDET_SCALE", 0.01);
  auto data = GenerateJdPreset(JdPreset::kDataset3, scale, 99).ValueOrDie();
  const CsrGraph& g = data.graph;

  DegreeStats user_stats = ComputeDegreeStats(g, Side::kUser);
  DegreeStats merchant_stats = ComputeDegreeStats(g, Side::kMerchant);
  std::printf("dataset-3-shaped graph: %s users (avg deg %.2f), %s "
              "merchants (avg deg %.2f), %s edges\n\n",
              FormatCount(g.num_users()).c_str(), user_stats.avg_degree,
              FormatCount(g.num_merchants()).c_str(),
              merchant_stats.avg_degree,
              FormatCount(g.num_edges()).c_str());

  // --- 1. Lemma 1: inclusion rates by degree ------------------------------
  const double ratio = 0.1;
  const double pe = ratio;  // per-edge inclusion ≈ sample ratio
  const double pv = ratio;
  std::printf("Lemma 1 crossover degree log(1-pv)/log(1-pe) = %.2f\n",
              LemmaOneCrossoverDegree(pv, pe));

  auto res = MakeSampler(SampleMethod::kRandomEdge, ratio).ValueOrDie();
  auto ons = MakeSampler(SampleMethod::kOneSideUser, ratio).ValueOrDie();
  constexpr int kTrials = 30;
  std::vector<double> res_hits(static_cast<size_t>(g.num_users()), 0.0);
  std::vector<double> ons_hits(static_cast<size_t>(g.num_users()), 0.0);
  for (int t = 0; t < kTrials; ++t) {
    Rng r1(100 + static_cast<uint64_t>(t)), r2(900 + static_cast<uint64_t>(t));
    for (UserId u : res->Sample(g, &r1).user_map) res_hits[u] += 1.0;
    for (UserId u : ons->Sample(g, &r2).user_map) ons_hits[u] += 1.0;
  }

  TableWriter lemma({"user degree q", "theory E_ES rate", "measured RES",
                     "theory E_NS rate", "measured ONS"});
  for (int64_t q : {1, 2, 4, 8, 16}) {
    double res_rate = 0, ons_rate = 0;
    int64_t count = 0;
    for (int64_t u = 0; u < g.num_users(); ++u) {
      if (g.user_degree(static_cast<UserId>(u)) != q) continue;
      res_rate += res_hits[static_cast<size_t>(u)];
      ons_rate += ons_hits[static_cast<size_t>(u)];
      ++count;
    }
    if (count == 0) continue;
    res_rate /= static_cast<double>(count * kTrials);
    ons_rate /= static_cast<double>(count * kTrials);
    lemma.AddRow({std::to_string(q),
                  FormatDouble(EdgeSampleInclusionProbability(pe, q)),
                  FormatDouble(res_rate),
                  FormatDouble(NodeSampleInclusionProbability(pv)),
                  FormatDouble(ons_rate)});
  }
  lemma.WriteMarkdown(&std::cout);
  std::printf("-> edge sampling includes heavy users at sharply higher "
              "rates; node sampling is flat in degree.\n\n");

  // --- 2. Sampled-graph sizes at the same S --------------------------------
  TableWriter sizes({"method", "users", "merchants", "edges",
                     "edge fraction"});
  for (SampleMethod m :
       {SampleMethod::kRandomEdge, SampleMethod::kOneSideUser,
        SampleMethod::kOneSideMerchant, SampleMethod::kTwoSide}) {
    auto sampler = MakeSampler(m, ratio).ValueOrDie();
    Rng rng(4242);
    SubgraphView view = sampler->Sample(g, &rng);
    sizes.AddRow({SampleMethodName(m),
                  FormatCount(view.graph.num_users()),
                  FormatCount(view.graph.num_merchants()),
                  FormatCount(view.graph.num_edges()),
                  FormatDouble(static_cast<double>(view.graph.num_edges()) /
                               static_cast<double>(g.num_edges()), 3)});
  }
  sizes.WriteMarkdown(&std::cout);
  std::printf("-> TNS keeps ~S^2 of the edges; ONS-merchant can exceed S "
              "because popular merchants drag many edges in.\n\n");

  // --- 3. Theorem 1 in practice: reweighted sample density -----------------
  const double parent_phi = DensityScore(g, {});
  auto plain =
      MakeSampler(SampleMethod::kRandomEdge, 0.3, /*reweight=*/false)
          .ValueOrDie();
  auto reweighted =
      MakeSampler(SampleMethod::kRandomEdge, 0.3, /*reweight=*/true)
          .ValueOrDie();
  double total_plain = 0.0, total_reweighted = 0.0;
  constexpr int kDensityTrials = 10;
  for (int t = 0; t < kDensityTrials; ++t) {
    Rng r1(7000 + static_cast<uint64_t>(t));
    Rng r2(7000 + static_cast<uint64_t>(t));
    total_plain += DensityScore(plain->Sample(g, &r1).graph, {});
    total_reweighted += DensityScore(reweighted->Sample(g, &r2).graph, {});
  }
  std::printf("Theorem 1 in practice (S = 0.3, %d samples):\n"
              "  phi(G)                      = %.4f\n"
              "  mean phi(sample)            = %.4f\n"
              "  mean phi(reweighted sample) = %.4f\n",
              kDensityTrials, parent_phi, total_plain / kDensityTrials,
              total_reweighted / kDensityTrials);
  std::printf(
      "-> 1/p reweighting restores the suspiciousness mass lost to edge\n"
      "   thinning, while the sample keeps only nodes that drew an edge, so\n"
      "   per-node density concentrates upward. This is the paper's point\n"
      "   that dense components 'become distinct on sampled graphs': the\n"
      "   fraud signal sharpens relative to the (pruned) sparse bulk.\n");
  return 0;
}
