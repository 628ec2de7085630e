#include "baselines/fbox.h"

#include <cmath>

#include "linalg/sparse_matrix.h"

namespace ensemfdet {

Result<FboxResult> RunFbox(const CsrGraph& graph,
                           const FboxConfig& config) {
  if (config.num_components < 1) {
    return Status::InvalidArgument("num_components must be >= 1");
  }
  if (graph.num_edges() == 0) {
    return Status::InvalidArgument("FBOX needs a graph with edges");
  }

  const CsrMatrix adjacency = AdjacencyMatrix(graph);
  ENSEMFDET_ASSIGN_OR_RETURN(
      TruncatedSvd svd,
      ComputeTruncatedSvd(adjacency, config.num_components, config.svd));

  const int64_t num_users = graph.num_users();
  FboxResult result;
  result.singular_values = svd.sigma;
  result.reconstruction_norms.assign(static_cast<size_t>(num_users), 0.0);
  result.user_scores.assign(static_cast<size_t>(num_users), 0.0);

  // r_i² = Σ_t (σ_t · U[i,t])² — the squared norm of row i's projection
  // onto the top-k right singular subspace.
  for (int t = 0; t < svd.k(); ++t) {
    const double sigma = svd.sigma[static_cast<size_t>(t)];
    auto u_col = svd.u.col(t);
    for (int64_t i = 0; i < num_users; ++i) {
      const double coord = sigma * u_col[static_cast<size_t>(i)];
      result.reconstruction_norms[static_cast<size_t>(i)] += coord * coord;
    }
  }
  for (int64_t i = 0; i < num_users; ++i) {
    result.reconstruction_norms[static_cast<size_t>(i)] =
        std::sqrt(result.reconstruction_norms[static_cast<size_t>(i)]);
  }

  for (int64_t i = 0; i < num_users; ++i) {
    // Weighted degree: the user's row of edge weights, in edge-id order.
    const UserId u = static_cast<UserId>(i);
    const EdgeId row_begin = graph.user_edge_begin(u);
    double degree = 0.0;
    for (EdgeId e = row_begin; e < row_begin + graph.user_degree(u); ++e) {
      degree += graph.edge_weight(e);
    }
    if (degree <= 0.0) continue;  // isolated users cannot be suspicious
    result.user_scores[static_cast<size_t>(i)] =
        std::sqrt(degree) /
        (result.reconstruction_norms[static_cast<size_t>(i)] +
         config.epsilon);
  }
  return result;
}

}  // namespace ensemfdet
