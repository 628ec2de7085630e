#include "detect/density.h"

#include <cmath>

#include "common/logging.h"

namespace ensemfdet {

const char* ColumnWeightKindName(ColumnWeightKind kind) {
  switch (kind) {
    case ColumnWeightKind::kLogarithmic:
      return "logarithmic";
    case ColumnWeightKind::kInverse:
      return "inverse";
    case ColumnWeightKind::kConstant:
      return "constant";
  }
  return "unknown";
}

double MerchantColumnWeight(double degree, const DensityConfig& config) {
  switch (config.weight_kind) {
    case ColumnWeightKind::kLogarithmic:
      ENSEMFDET_DCHECK(config.log_offset > 1.0)
          << "log offset must exceed 1 to keep weights positive";
      return 1.0 / std::log(config.log_offset + degree);
    case ColumnWeightKind::kInverse:
      ENSEMFDET_DCHECK(config.log_offset > 0.0);
      return 1.0 / (config.log_offset + degree);
    case ColumnWeightKind::kConstant:
      return 1.0;
  }
  return 1.0;
}

double SuspiciousnessMass(const CsrGraph& graph,
                          const DensityConfig& config) {
  double mass = 0.0;
  for (int64_t v = 0; v < graph.num_merchants(); ++v) {
    const MerchantId m = static_cast<MerchantId>(v);
    const double col_weight = MerchantColumnWeight(
        static_cast<double>(graph.merchant_degree(m)), config);
    for (EdgeId e : graph.merchant_edge_ids(m)) {
      mass += graph.edge_weight(e) * col_weight;
    }
  }
  return mass;
}

double DensityScore(const CsrGraph& graph,
                    const DensityConfig& config) {
  const int64_t nodes = graph.num_nodes();
  if (nodes == 0) return 0.0;
  return SuspiciousnessMass(graph, config) / static_cast<double>(nodes);
}

}  // namespace ensemfdet
