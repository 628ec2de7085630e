// Random Edge Sampling (RES, paper §IV-A2): draw ⌊S·|E|⌋ edges uniformly
// without replacement; the sampled graph contains exactly those edges plus
// their endpoints. Per Lemma 1, this oversamples high-degree nodes — the
// dense components fraud groups live in — relative to node sampling.
#ifndef ENSEMFDET_SAMPLING_RANDOM_EDGE_SAMPLER_H_
#define ENSEMFDET_SAMPLING_RANDOM_EDGE_SAMPLER_H_

#include "sampling/sampler.h"

namespace ensemfdet {

class RandomEdgeSampler final : public Sampler {
 public:
  /// If `reweight` is set, sampled edge weights are scaled by 1/ratio
  /// (Theorem 1) so the sample's density score estimates the parent's.
  RandomEdgeSampler(double ratio, bool reweight)
      : ratio_(ratio), reweight_(reweight) {}

  double ratio() const override { return ratio_; }
  SampleMethod method() const override { return SampleMethod::kRandomEdge; }

  SubgraphView Sample(const CsrGraph& graph, Rng* rng) const override;

  /// Same ⌊S·|E|⌋ uniform draw as Sample(), emitted as sorted parent edge
  /// ids; weight_scale carries the 1/p reweighting instead of a scaled
  /// copy of the weights.
  EdgeMaskInfo SampleEdgeMask(const CsrGraph& graph, Rng* rng,
                              EdgeMaskScratch* scratch,
                              std::vector<EdgeId>* out_edges) const override;

 private:
  double ratio_;
  bool reweight_;
};

}  // namespace ensemfdet

#endif  // ENSEMFDET_SAMPLING_RANDOM_EDGE_SAMPLER_H_
