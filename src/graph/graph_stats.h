// Descriptive statistics over bipartite graphs: degree distributions,
// averages, and the per-degree node counts f_D(q) that Lemma 1's expected
// sampled-degree formulas consume. Also backs the Table I dataset report.
#ifndef ENSEMFDET_GRAPH_GRAPH_STATS_H_
#define ENSEMFDET_GRAPH_GRAPH_STATS_H_

#include <cstdint>
#include <vector>

#include "graph/csr_graph.h"

namespace ensemfdet {

/// Which side of the bipartite graph an operation targets.
enum class Side { kUser, kMerchant };

/// Summary of one side's degree distribution.
struct DegreeStats {
  int64_t num_nodes = 0;
  int64_t num_isolated = 0;  // degree-0 nodes
  int64_t min_degree = 0;
  int64_t max_degree = 0;
  double avg_degree = 0.0;
};

/// Computes min/max/avg/isolated-count of `side`'s degrees.
DegreeStats ComputeDegreeStats(const CsrGraph& graph, Side side);

/// Histogram f_D(q): element q is the number of `side` nodes with degree
/// exactly q (size = max degree + 1; {1,0} i.e. [1] for an empty side).
std::vector<int64_t> DegreeHistogram(const CsrGraph& graph, Side side);

/// Degrees of every node on `side`, indexed by node id.
std::vector<int64_t> Degrees(const CsrGraph& graph, Side side);

}  // namespace ensemfdet

#endif  // ENSEMFDET_GRAPH_GRAPH_STATS_H_
