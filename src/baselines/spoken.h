// SPOKEN baseline (Prakash et al., PAKDD 2010 [30]): spectral fraud
// detection from the "eigenspokes" pattern.
//
// On adjacency matrices with community/lockstep structure, the top singular
// vectors concentrate their mass on the members of dense blocks ("spokes"
// in EE-plots of singular-vector pairs). SPOKEN therefore scores each node
// by its largest-magnitude coordinate across the top-k singular vectors
// (k = 25 components, as the paper configures it); nodes living on a spoke
// get large scores and are flagged first. The score ranking feeds
// eval::ScoreSweep for PR curves.
//
// Built on this library's own truncated SVD (linalg/svd.h) — spectral
// relaxation of the dense-subgraph partitioning problem, which is exactly
// why it is fast but can lose precision vs the heuristic methods (§I).
#ifndef ENSEMFDET_BASELINES_SPOKEN_H_
#define ENSEMFDET_BASELINES_SPOKEN_H_

#include <vector>

#include "common/status.h"
#include "graph/csr_graph.h"
#include "linalg/svd.h"

namespace ensemfdet {

struct SpokenConfig {
  /// Number of SVD components ("set to 25 as same as the paper described").
  int num_components = 25;
  SvdOptions svd;
};

struct SpokenResult {
  /// Suspiciousness per user: max_t |U[i,t]| over the top components.
  std::vector<double> user_scores;
  /// Suspiciousness per merchant: max_t |V[j,t]|.
  std::vector<double> merchant_scores;
  /// Computed singular values (diagnostics).
  std::vector<double> singular_values;
};

/// Runs SPOKEN on the graph's adjacency matrix. Fails with InvalidArgument
/// on an edgeless graph or num_components < 1.
Result<SpokenResult> RunSpoken(const CsrGraph& graph,
                               const SpokenConfig& config);

}  // namespace ensemfdet

#endif  // ENSEMFDET_BASELINES_SPOKEN_H_
