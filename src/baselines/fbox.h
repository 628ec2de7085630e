// FBOX baseline (Shah et al., ICDM 2014 [31]): SVD reconstruction-error
// fraud detection from the adversarial perspective.
//
// Insight: attacks small enough to evade the top-k spectral components are
// nearly orthogonal to them, so a fraudulent node's adjacency row projects
// poorly onto the top-k singular subspace. For user i with degree d_i and
// projected-row norm r_i = ‖P_k(a_i)‖₂ = sqrt(Σ_t (σ_t·U[i,t])²), FBOX
// flags nodes whose r_i is small relative to what their degree warrants.
// We expose the continuous suspiciousness score
//
//     score_i = sqrt(d_i) / (r_i + ε)
//
// (degree-0 nodes score 0) plus the raw reconstruction norms; the paper's
// thresholded variant is the top of this ranking.
#ifndef ENSEMFDET_BASELINES_FBOX_H_
#define ENSEMFDET_BASELINES_FBOX_H_

#include <vector>

#include "common/status.h"
#include "graph/csr_graph.h"
#include "linalg/svd.h"

namespace ensemfdet {

struct FboxConfig {
  /// Rank of the spectral subspace the attack must evade.
  int num_components = 25;
  SvdOptions svd;
  /// Numerical floor added to reconstruction norms.
  double epsilon = 1e-9;
};

struct FboxResult {
  /// Suspiciousness per user (higher = more suspicious).
  std::vector<double> user_scores;
  /// r_i = ‖P_k(a_i)‖₂ per user (diagnostics).
  std::vector<double> reconstruction_norms;
  std::vector<double> singular_values;
};

/// Runs FBOX on the graph's adjacency matrix. Fails with InvalidArgument on
/// an edgeless graph or num_components < 1.
Result<FboxResult> RunFbox(const CsrGraph& graph,
                           const FboxConfig& config);

}  // namespace ensemfdet

#endif  // ENSEMFDET_BASELINES_FBOX_H_
