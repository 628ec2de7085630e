// HITS-style baseline (Kleinberg [19]) — the related-work family the paper
// cites for propagation-based fraud detection ("Several methods have used
// HITS-like ideas to detect fraud in graphs").
//
// Hub/authority power iteration on the bipartite adjacency: a user's hub
// score aggregates its merchants' authority; a merchant's authority
// aggregates its users' hub scores. Lockstep groups reinforce each other
// and float to the top of the hub ranking, so hub scores serve as user
// suspiciousness (the CatchSync-style reading the paper's §II describes).
// Included as an extension baseline beyond the paper's evaluated trio.
#ifndef ENSEMFDET_BASELINES_HITS_H_
#define ENSEMFDET_BASELINES_HITS_H_

#include <vector>

#include "common/status.h"
#include "graph/csr_graph.h"

namespace ensemfdet {

struct HitsConfig {
  /// Power-iteration rounds; convergence is geometric in the spectral gap.
  int iterations = 50;
  /// Early-exit when the L1 change of the hub vector drops below this.
  double tolerance = 1e-10;
};

struct HitsResult {
  /// Hub score per user (L2-normalized); the suspiciousness ranking.
  std::vector<double> user_hub_scores;
  /// Authority score per merchant (L2-normalized).
  std::vector<double> merchant_authority_scores;
  /// Iterations actually run.
  int iterations_run = 0;
};

/// Runs HITS on the graph. Fails with InvalidArgument on an edgeless graph
/// or non-positive iteration budget.
Result<HitsResult> RunHits(const CsrGraph& graph,
                           const HitsConfig& config = {});

}  // namespace ensemfdet

#endif  // ENSEMFDET_BASELINES_HITS_H_
