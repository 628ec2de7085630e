#include "baselines/spoken.h"

#include <algorithm>
#include <cmath>

#include "linalg/sparse_matrix.h"

namespace ensemfdet {

Result<SpokenResult> RunSpoken(const CsrGraph& graph,
                               const SpokenConfig& config) {
  if (config.num_components < 1) {
    return Status::InvalidArgument("num_components must be >= 1");
  }
  if (graph.num_edges() == 0) {
    return Status::InvalidArgument("SPOKEN needs a graph with edges");
  }

  const CsrMatrix adjacency = AdjacencyMatrix(graph);
  ENSEMFDET_ASSIGN_OR_RETURN(
      TruncatedSvd svd,
      ComputeTruncatedSvd(adjacency, config.num_components, config.svd));

  SpokenResult result;
  result.singular_values = svd.sigma;
  result.user_scores.assign(static_cast<size_t>(graph.num_users()), 0.0);
  result.merchant_scores.assign(static_cast<size_t>(graph.num_merchants()),
                                0.0);
  for (int t = 0; t < svd.k(); ++t) {
    auto u_col = svd.u.col(t);
    for (size_t i = 0; i < u_col.size(); ++i) {
      result.user_scores[i] = std::max(result.user_scores[i],
                                       std::abs(u_col[i]));
    }
    auto v_col = svd.v.col(t);
    for (size_t j = 0; j < v_col.size(); ++j) {
      result.merchant_scores[j] = std::max(result.merchant_scores[j],
                                           std::abs(v_col[j]));
    }
  }
  return result;
}

}  // namespace ensemfdet
