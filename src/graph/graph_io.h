// Edge-list persistence for bipartite graphs.
//
// Format: TSV, one `user<TAB>merchant[<TAB>weight]` line per edge. Lines
// starting with '#' are comments; the first comment written by
// SaveEdgeListTsv records node counts so loading round-trips isolated
// nodes: `# bipartite <num_users> <num_merchants>`. Without that header,
// node counts are inferred as max id + 1.
#ifndef ENSEMFDET_GRAPH_GRAPH_IO_H_
#define ENSEMFDET_GRAPH_GRAPH_IO_H_

#include <string>

#include "common/status.h"
#include "graph/csr_graph.h"

namespace ensemfdet {

/// Writes the graph to `path`, including the node-count header comment and
/// per-edge weights when present.
Status SaveEdgeListTsv(const CsrGraph& graph, const std::string& path);

/// Reads a graph from `path`. Duplicate edges are merged with
/// DuplicatePolicy::kSumWeights. Fails with IOError on a malformed line,
/// on ids or declared node counts that do not fit 32-bit ids, and on ids
/// beyond the declared counts; with ResourceExhausted when the graph
/// (sized by the declared counts) cannot be allocated.
Result<CsrGraph> LoadEdgeListTsv(const std::string& path);

}  // namespace ensemfdet

#endif  // ENSEMFDET_GRAPH_GRAPH_IO_H_
