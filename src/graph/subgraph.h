// Subgraph extraction with id remapping.
//
// Samplers and FDET work on compact subgraphs but must report findings in
// the parent graph's id space; SubgraphView carries the subgraph plus the
// local→parent id maps that make that translation exact.
#ifndef ENSEMFDET_GRAPH_SUBGRAPH_H_
#define ENSEMFDET_GRAPH_SUBGRAPH_H_

#include <span>
#include <vector>

#include "graph/csr_graph.h"
#include "graph/graph_stats.h"

namespace ensemfdet {

/// A bipartite subgraph with dense local ids and maps back to the parent.
struct SubgraphView {
  CsrGraph graph;
  /// user_map[local_user] == parent user id.
  std::vector<UserId> user_map;
  /// merchant_map[local_merchant] == parent merchant id.
  std::vector<MerchantId> merchant_map;

  UserId ToParentUser(UserId local) const { return user_map[local]; }
  MerchantId ToParentMerchant(MerchantId local) const {
    return merchant_map[local];
  }
};

/// Builds the subgraph consisting of exactly `edge_ids` (no extra edges),
/// relabeling the endpoint nodes densely in ascending-parent-id order.
/// Each edge keeps its weight scaled by `weight_scale` (Theorem 1 passes
/// 1/p here; 1.0 leaves weights untouched). Duplicate edge ids collapse.
SubgraphView SubgraphFromEdges(const CsrGraph& parent,
                               std::span<const EdgeId> edge_ids,
                               double weight_scale = 1.0);

/// Builds the node-induced subgraph: all parent edges whose endpoints are
/// both selected. `users` / `merchants` are parent ids (deduplicated
/// internally).
SubgraphView InducedSubgraph(const CsrGraph& parent,
                             std::span<const UserId> users,
                             std::span<const MerchantId> merchants);

/// Builds the one-side-induced subgraph: all parent edges incident to the
/// selected `side` nodes, together with every opposite-side endpoint those
/// edges touch (ONS semantics: sampling rows of the adjacency matrix keeps
/// the full row contents).
SubgraphView OneSideInducedSubgraph(const CsrGraph& parent, Side side,
                                    std::span<const uint32_t> side_nodes);

}  // namespace ensemfdet

#endif  // ENSEMFDET_GRAPH_SUBGRAPH_H_
