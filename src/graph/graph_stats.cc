#include "graph/graph_stats.h"

#include <algorithm>

namespace ensemfdet {

std::vector<int64_t> Degrees(const CsrGraph& graph, Side side) {
  std::vector<int64_t> degrees;
  if (side == Side::kUser) {
    degrees.resize(static_cast<size_t>(graph.num_users()));
    for (int64_t u = 0; u < graph.num_users(); ++u) {
      degrees[static_cast<size_t>(u)] =
          graph.user_degree(static_cast<UserId>(u));
    }
  } else {
    degrees.resize(static_cast<size_t>(graph.num_merchants()));
    for (int64_t v = 0; v < graph.num_merchants(); ++v) {
      degrees[static_cast<size_t>(v)] =
          graph.merchant_degree(static_cast<MerchantId>(v));
    }
  }
  return degrees;
}

DegreeStats ComputeDegreeStats(const CsrGraph& graph, Side side) {
  std::vector<int64_t> degrees = Degrees(graph, side);
  DegreeStats stats;
  stats.num_nodes = static_cast<int64_t>(degrees.size());
  if (degrees.empty()) return stats;
  stats.min_degree = degrees[0];
  stats.max_degree = degrees[0];
  int64_t total = 0;
  for (int64_t d : degrees) {
    stats.min_degree = std::min(stats.min_degree, d);
    stats.max_degree = std::max(stats.max_degree, d);
    if (d == 0) ++stats.num_isolated;
    total += d;
  }
  stats.avg_degree =
      static_cast<double>(total) / static_cast<double>(degrees.size());
  return stats;
}

std::vector<int64_t> DegreeHistogram(const CsrGraph& graph, Side side) {
  std::vector<int64_t> degrees = Degrees(graph, side);
  int64_t max_degree = 0;
  for (int64_t d : degrees) max_degree = std::max(max_degree, d);
  std::vector<int64_t> hist(static_cast<size_t>(max_degree) + 1, 0);
  for (int64_t d : degrees) ++hist[static_cast<size_t>(d)];
  return hist;
}

}  // namespace ensemfdet
