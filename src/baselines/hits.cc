#include "baselines/hits.h"

#include <cmath>

#include "linalg/dense.h"

namespace ensemfdet {

Result<HitsResult> RunHits(const CsrGraph& graph,
                           const HitsConfig& config) {
  if (config.iterations < 1) {
    return Status::InvalidArgument("HITS needs iterations >= 1");
  }
  if (graph.num_edges() == 0) {
    return Status::InvalidArgument("HITS needs a graph with edges");
  }

  const int64_t num_users = graph.num_users();
  const int64_t num_merchants = graph.num_merchants();
  HitsResult result;
  result.user_hub_scores.assign(static_cast<size_t>(num_users), 1.0);
  result.merchant_authority_scores.assign(
      static_cast<size_t>(num_merchants), 0.0);

  std::vector<double> previous_hubs = result.user_hub_scores;
  for (int it = 0; it < config.iterations; ++it) {
    // authority(v) = Σ_{u ~ v} w_uv · hub(u)
    for (int64_t v = 0; v < num_merchants; ++v) {
      double sum = 0.0;
      for (EdgeId e : graph.merchant_edge_ids(static_cast<MerchantId>(v))) {
        sum +=
            graph.edge_weight(e) * result.user_hub_scores[graph.edge_user(e)];
      }
      result.merchant_authority_scores[static_cast<size_t>(v)] = sum;
    }
    double authority_norm = Norm2(result.merchant_authority_scores);
    if (authority_norm > 0.0) {
      Scale(1.0 / authority_norm, result.merchant_authority_scores);
    }

    // hub(u) = Σ_{v ~ u} w_uv · authority(v)
    for (int64_t u = 0; u < num_users; ++u) {
      double sum = 0.0;
      const EdgeId row_begin = graph.user_edge_begin(static_cast<UserId>(u));
      const EdgeId row_end =
          row_begin + graph.user_degree(static_cast<UserId>(u));
      for (EdgeId e = row_begin; e < row_end; ++e) {
        sum += graph.edge_weight(e) *
               result.merchant_authority_scores[graph.edge_merchant(e)];
      }
      result.user_hub_scores[static_cast<size_t>(u)] = sum;
    }
    double hub_norm = Norm2(result.user_hub_scores);
    if (hub_norm > 0.0) Scale(1.0 / hub_norm, result.user_hub_scores);

    result.iterations_run = it + 1;
    double delta = 0.0;
    for (int64_t u = 0; u < num_users; ++u) {
      delta += std::abs(result.user_hub_scores[static_cast<size_t>(u)] -
                        previous_hubs[static_cast<size_t>(u)]);
    }
    if (delta < config.tolerance) break;
    previous_hubs = result.user_hub_scores;
  }
  return result;
}

}  // namespace ensemfdet
