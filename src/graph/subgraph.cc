#include "graph/subgraph.h"

#include <algorithm>
#include <unordered_map>

#include "common/logging.h"
#include "graph/graph_builder.h"

namespace ensemfdet {

namespace {

// Maps a sorted-unique vector of parent ids to dense local ids; returns the
// lookup table parent→local.
template <typename IdT>
std::unordered_map<IdT, IdT> BuildIdMap(const std::vector<IdT>& sorted_ids) {
  std::unordered_map<IdT, IdT> map;
  map.reserve(sorted_ids.size() * 2);
  for (size_t i = 0; i < sorted_ids.size(); ++i) {
    map.emplace(sorted_ids[i], static_cast<IdT>(i));
  }
  return map;
}

template <typename IdT>
std::vector<IdT> SortedUnique(std::span<const IdT> ids) {
  std::vector<IdT> out(ids.begin(), ids.end());
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace

SubgraphView SubgraphFromEdges(const CsrGraph& parent,
                               std::span<const EdgeId> edge_ids,
                               double weight_scale) {
  ENSEMFDET_CHECK(weight_scale > 0.0);
  std::vector<EdgeId> unique_edges(edge_ids.begin(), edge_ids.end());
  std::sort(unique_edges.begin(), unique_edges.end());
  unique_edges.erase(std::unique(unique_edges.begin(), unique_edges.end()),
                     unique_edges.end());

  SubgraphView view;
  {
    std::vector<UserId> users;
    std::vector<MerchantId> merchants;
    users.reserve(unique_edges.size());
    merchants.reserve(unique_edges.size());
    for (EdgeId e : unique_edges) {
      ENSEMFDET_DCHECK(e >= 0 && e < parent.num_edges());
      users.push_back(parent.edge_user(e));
      merchants.push_back(parent.edge_merchant(e));
    }
    view.user_map = SortedUnique<UserId>(users);
    view.merchant_map = SortedUnique<MerchantId>(merchants);
  }

  auto user_lookup = BuildIdMap(view.user_map);
  auto merchant_lookup = BuildIdMap(view.merchant_map);

  GraphBuilder builder(static_cast<int64_t>(view.user_map.size()),
                       static_cast<int64_t>(view.merchant_map.size()));
  builder.Reserve(static_cast<int64_t>(unique_edges.size()));
  for (EdgeId e : unique_edges) {
    builder.AddEdge(user_lookup.at(parent.edge_user(e)),
                    merchant_lookup.at(parent.edge_merchant(e)),
                    parent.edge_weight(e) * weight_scale);
  }
  view.graph = std::move(builder.Build(DuplicatePolicy::kKeepFirst)).value();
  return view;
}

SubgraphView InducedSubgraph(const CsrGraph& parent,
                             std::span<const UserId> users,
                             std::span<const MerchantId> merchants) {
  SubgraphView view;
  view.user_map = SortedUnique<UserId>(users);
  view.merchant_map = SortedUnique<MerchantId>(merchants);
  auto user_lookup = BuildIdMap(view.user_map);
  auto merchant_lookup = BuildIdMap(view.merchant_map);

  GraphBuilder builder(static_cast<int64_t>(view.user_map.size()),
                       static_cast<int64_t>(view.merchant_map.size()));
  // Iterate over the smaller side's incidence lists.
  for (UserId pu : view.user_map) {
    ENSEMFDET_DCHECK(pu < parent.num_users());
    const EdgeId row_begin = parent.user_edge_begin(pu);
    for (EdgeId e = row_begin; e < row_begin + parent.user_degree(pu); ++e) {
      auto it = merchant_lookup.find(parent.edge_merchant(e));
      if (it == merchant_lookup.end()) continue;
      builder.AddEdge(user_lookup.at(pu), it->second, parent.edge_weight(e));
    }
  }
  view.graph = std::move(builder.Build(DuplicatePolicy::kKeepFirst)).value();
  return view;
}

SubgraphView OneSideInducedSubgraph(const CsrGraph& parent, Side side,
                                    std::span<const uint32_t> side_nodes) {
  // Collect every edge incident to the selected side nodes, then reuse the
  // exact-edge-set constructor so the opposite side is completed for us.
  std::vector<EdgeId> edges;
  if (side == Side::kUser) {
    for (uint32_t u : SortedUnique<uint32_t>(side_nodes)) {
      ENSEMFDET_DCHECK(u < parent.num_users());
      const EdgeId row_begin = parent.user_edge_begin(u);
      for (EdgeId e = row_begin; e < row_begin + parent.user_degree(u); ++e) {
        edges.push_back(e);
      }
    }
  } else {
    for (uint32_t v : SortedUnique<uint32_t>(side_nodes)) {
      ENSEMFDET_DCHECK(v < parent.num_merchants());
      auto span = parent.merchant_edge_ids(v);
      edges.insert(edges.end(), span.begin(), span.end());
    }
  }
  return SubgraphFromEdges(parent, edges);
}

}  // namespace ensemfdet
