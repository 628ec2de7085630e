// The density score φ (paper Definition 2, metric of FRAUDAR [13]).
//
// Each edge (i, j) is discounted by its merchant's popularity:
//
//   weight(i,j) = w_ij / log(c + d_j)
//   φ(S)        = Σ_{(i,j) ∈ E(S)} weight(i,j) / (|S ∩ U| + |S ∩ V|)
//
// where d_j is merchant j's degree in the graph under evaluation, w_ij the
// edge weight (1 unless the graph is reweighted per Theorem 1), and c > 1
// keeps the logarithm positive. Discounting high-degree merchants is the
// camouflage defence: fraudsters padding their accounts with edges to
// popular merchants gain almost no density.
//
// (The paper's printed formula omits the edge sum — see DESIGN.md §1 for
// why this is the form its own algorithmics require.)
#ifndef ENSEMFDET_DETECT_DENSITY_H_
#define ENSEMFDET_DETECT_DENSITY_H_

#include "graph/csr_graph.h"

namespace ensemfdet {

/// The column-weight family of FRAUDAR [13]: how strongly a merchant's
/// popularity discounts its edges. kLogarithmic is the paper's choice
/// (camouflage-resistant without over-penalizing mid-size merchants);
/// kConstant ignores popularity (classic average-degree density, the
/// camouflage-vulnerable strawman); kInverse discounts aggressively.
enum class ColumnWeightKind {
  kLogarithmic,  ///< 1 / log(c + d)   — Definition 2 / FRAUDAR default
  kInverse,      ///< 1 / (c + d)
  kConstant,     ///< 1                — no popularity discount
};

struct DensityConfig {
  ColumnWeightKind weight_kind = ColumnWeightKind::kLogarithmic;
  /// Offset c in the weight formulas above. For kLogarithmic it must be
  /// > 1 so the weight stays positive for every degree; FRAUDAR's choice
  /// is 5.
  double log_offset = 5.0;
};

/// Stable name for a weight kind ("logarithmic", "inverse", "constant").
const char* ColumnWeightKindName(ColumnWeightKind kind);

/// Per-edge discount for a merchant of (current) degree `degree`.
double MerchantColumnWeight(double degree, const DensityConfig& config);

/// Total suspiciousness mass f(G) = Σ_e w_e / log(c + d_{merchant(e)}),
/// with d taken from `graph` itself.
double SuspiciousnessMass(const CsrGraph& graph,
                          const DensityConfig& config);

/// φ(G) = f(G) / (|U| + |V|). Returns 0 for a graph with no nodes.
double DensityScore(const CsrGraph& graph, const DensityConfig& config);

}  // namespace ensemfdet

#endif  // ENSEMFDET_DETECT_DENSITY_H_
