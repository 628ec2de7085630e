// Microbench: sampler throughput per method and ratio (DESIGN.md design
// choice #4), on a dataset-3-shaped graph. Also exercises the Lemma 1
// expected-degree helpers at realistic histogram sizes.
#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "datagen/presets.h"
#include "graph/graph_stats.h"
#include "sampling/sampler.h"
#include "sampling/sampling_theory.h"

namespace ensemfdet {
namespace {

const Dataset& SharedDataset() {
  static const Dataset* data =
      new Dataset(GenerateJdPreset(JdPreset::kDataset3, 0.005, 7)
                      .ValueOrDie());
  return *data;
}

void BM_Sampler(benchmark::State& state) {
  const auto method = static_cast<SampleMethod>(state.range(0));
  const double ratio = static_cast<double>(state.range(1)) / 100.0;
  const CsrGraph& g = SharedDataset().graph;
  auto sampler = MakeSampler(method, ratio).ValueOrDie();
  uint64_t seed = 0;
  for (auto _ : state) {
    Rng rng(seed++);
    SubgraphView view = sampler->Sample(g, &rng);
    benchmark::DoNotOptimize(view.graph.num_edges());
  }
  state.SetLabel(SampleMethodName(method));
  state.SetItemsProcessed(state.iterations() * g.num_edges());
}
BENCHMARK(BM_Sampler)
    ->Args({static_cast<int>(SampleMethod::kRandomEdge), 1})
    ->Args({static_cast<int>(SampleMethod::kRandomEdge), 10})
    ->Args({static_cast<int>(SampleMethod::kOneSideUser), 10})
    ->Args({static_cast<int>(SampleMethod::kOneSideMerchant), 10})
    ->Args({static_cast<int>(SampleMethod::kTwoSide), 10})
    ->Unit(benchmark::kMillisecond);

void BM_ExpectedDegreeTheory(benchmark::State& state) {
  const CsrGraph& g = SharedDataset().graph;
  auto hist = DegreeHistogram(g, Side::kUser);
  for (auto _ : state) {
    auto ns = ExpectedSampledDegreeCountsNS(hist, 0.1);
    auto es = ExpectedSampledDegreeCountsES(hist, 0.1);
    benchmark::DoNotOptimize(ns.data());
    benchmark::DoNotOptimize(es.data());
  }
}
BENCHMARK(BM_ExpectedDegreeTheory);

void BM_WithoutReplacementDraw(benchmark::State& state) {
  const uint64_t population = static_cast<uint64_t>(state.range(0));
  const uint64_t k = population / 10;
  Rng rng(3);
  for (auto _ : state) {
    auto sample = rng.SampleWithoutReplacement(population, k);
    benchmark::DoNotOptimize(sample.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(k));
}
BENCHMARK(BM_WithoutReplacementDraw)->Arg(1 << 14)->Arg(1 << 18)
    ->Arg(1 << 22);

}  // namespace
}  // namespace ensemfdet

BENCHMARK_MAIN();
