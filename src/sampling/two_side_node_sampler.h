// Two-sides Node Sampling (TNS, paper §IV-A4): sample ⌊S·|U|⌋ users and
// ⌊S·|V|⌋ merchants, keeping only the cross-section edges (both endpoints
// drawn). Note the sampled graph holds ≈S² of the edges — the paper's
// caveat that TNS needs a larger S or N to match RES/ONS coverage.
#ifndef ENSEMFDET_SAMPLING_TWO_SIDE_NODE_SAMPLER_H_
#define ENSEMFDET_SAMPLING_TWO_SIDE_NODE_SAMPLER_H_

#include "sampling/sampler.h"

namespace ensemfdet {

class TwoSideNodeSampler final : public Sampler {
 public:
  explicit TwoSideNodeSampler(double ratio) : ratio_(ratio) {}

  double ratio() const override { return ratio_; }
  SampleMethod method() const override { return SampleMethod::kTwoSide; }

  SubgraphView Sample(const CsrGraph& graph, Rng* rng) const override;

  /// Same user-then-merchant node draws as Sample(); the cross-section is
  /// collected by walking selected users' CSR rows against an
  /// epoch-stamped merchant membership mark. Node counts include isolated
  /// selected nodes, matching InducedSubgraph's child exactly.
  EdgeMaskInfo SampleEdgeMask(const CsrGraph& graph, Rng* rng,
                              EdgeMaskScratch* scratch,
                              std::vector<EdgeId>* out_edges) const override;

 private:
  double ratio_;
};

}  // namespace ensemfdet

#endif  // ENSEMFDET_SAMPLING_TWO_SIDE_NODE_SAMPLER_H_
