// One-side Node Sampling (ONS, paper §IV-A3): sample ⌊S·|side|⌋ nodes of
// one side and keep every incident edge — i.e. sample whole rows (or
// columns) of the adjacency matrix W.
//
// Which side to sample matters (paper's "retain topology" principle): when
// Davg(V) ≫ Davg(U), sampling merchants (rows of Wᵀ) preserves dense
// components — once a high-degree merchant is drawn its whole fraud block
// comes with it — while sampling users flattens the sample toward uniform.
// Fig 5 reproduces exactly this contrast.
#ifndef ENSEMFDET_SAMPLING_ONE_SIDE_NODE_SAMPLER_H_
#define ENSEMFDET_SAMPLING_ONE_SIDE_NODE_SAMPLER_H_

#include "sampling/sampler.h"

namespace ensemfdet {

class OneSideNodeSampler final : public Sampler {
 public:
  OneSideNodeSampler(Side side, double ratio) : side_(side), ratio_(ratio) {}

  double ratio() const override { return ratio_; }
  SampleMethod method() const override {
    return side_ == Side::kUser ? SampleMethod::kOneSideUser
                                : SampleMethod::kOneSideMerchant;
  }
  Side side() const { return side_; }

  SubgraphView Sample(const CsrGraph& graph, Rng* rng) const override;

  /// Same ⌊S·|side|⌋ node draw as Sample(); the incident-edge expansion
  /// walks the CSR rows of the selected side instead of rebuilding a
  /// child. Reported node counts match the materialized child's (selected
  /// nodes with no incident edge never appear there and are not counted).
  EdgeMaskInfo SampleEdgeMask(const CsrGraph& graph, Rng* rng,
                              EdgeMaskScratch* scratch,
                              std::vector<EdgeId>* out_edges) const override;

 private:
  Side side_;
  double ratio_;
};

}  // namespace ensemfdet

#endif  // ENSEMFDET_SAMPLING_ONE_SIDE_NODE_SAMPLER_H_
