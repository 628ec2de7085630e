#include "graph/csr_graph.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace ensemfdet {

void CsrGraph::BindOwned() {
  user_offsets_ = owned_.user_offsets;
  user_neighbors_ = owned_.user_neighbors;
  edge_users_ = owned_.edge_users;
  merchant_offsets_ = owned_.merchant_offsets;
  merchant_neighbors_ = owned_.merchant_neighbors;
  merchant_edge_ids_ = owned_.merchant_edge_ids;
  weights_ = owned_.weights;
}

CsrGraph::CsrGraph(const CsrGraph& other)
    : num_users_(other.num_users_), num_merchants_(other.num_merchants_) {
  if (other.backing_ != nullptr) {
    // View: share the backing handle and alias the same external arrays —
    // O(1), the idiom for passing an mmap-served graph around by value.
    user_offsets_ = other.user_offsets_;
    user_neighbors_ = other.user_neighbors_;
    edge_users_ = other.edge_users_;
    merchant_offsets_ = other.merchant_offsets_;
    merchant_neighbors_ = other.merchant_neighbors_;
    merchant_edge_ids_ = other.merchant_edge_ids_;
    weights_ = other.weights_;
    backing_ = other.backing_;
  } else {
    owned_ = other.owned_;
    BindOwned();
  }
}

CsrGraph& CsrGraph::operator=(const CsrGraph& other) {
  if (this != &other) *this = CsrGraph(other);  // copy, then move-assign
  return *this;
}

CsrGraph::CsrGraph(CsrGraph&& other) noexcept
    : num_users_(other.num_users_),
      num_merchants_(other.num_merchants_),
      // Vector moves transfer the heap buffers, so spans into `owned_`
      // stay valid when copied before/after the move; external spans stay
      // valid because `backing_` transfers.
      user_offsets_(other.user_offsets_),
      user_neighbors_(other.user_neighbors_),
      edge_users_(other.edge_users_),
      merchant_offsets_(other.merchant_offsets_),
      merchant_neighbors_(other.merchant_neighbors_),
      merchant_edge_ids_(other.merchant_edge_ids_),
      weights_(other.weights_),
      owned_(std::move(other.owned_)),
      backing_(std::move(other.backing_)) {
  // Leave the source a valid empty graph (its spans must not dangle into
  // buffers it no longer owns).
  other.num_users_ = 0;
  other.num_merchants_ = 0;
  other.owned_ = Owned{};
  other.backing_.reset();
  other.BindOwned();
}

CsrGraph& CsrGraph::operator=(CsrGraph&& other) noexcept {
  if (this != &other) {
    num_users_ = other.num_users_;
    num_merchants_ = other.num_merchants_;
    user_offsets_ = other.user_offsets_;
    user_neighbors_ = other.user_neighbors_;
    edge_users_ = other.edge_users_;
    merchant_offsets_ = other.merchant_offsets_;
    merchant_neighbors_ = other.merchant_neighbors_;
    merchant_edge_ids_ = other.merchant_edge_ids_;
    weights_ = other.weights_;
    owned_ = std::move(other.owned_);
    backing_ = std::move(other.backing_);
    other.num_users_ = 0;
    other.num_merchants_ = 0;
    other.owned_ = Owned{};
    other.backing_.reset();
    other.BindOwned();
  }
  return *this;
}

CsrGraph CsrGraph::WrapExternal(
    int64_t num_users, int64_t num_merchants,
    std::span<const int64_t> user_offsets,
    std::span<const MerchantId> user_neighbors,
    std::span<const UserId> edge_users,
    std::span<const int64_t> merchant_offsets,
    std::span<const UserId> merchant_neighbors,
    std::span<const EdgeId> merchant_edge_ids,
    std::span<const double> weights, std::shared_ptr<const void> backing) {
  ENSEMFDET_DCHECK(backing != nullptr) << "view needs a lifetime anchor";
  ENSEMFDET_DCHECK(num_users >= 0 && num_merchants >= 0);
  ENSEMFDET_DCHECK(user_offsets.size() ==
                   static_cast<size_t>(num_users) + 1);
  ENSEMFDET_DCHECK(merchant_offsets.size() ==
                   static_cast<size_t>(num_merchants) + 1);
  ENSEMFDET_DCHECK(user_neighbors.size() == edge_users.size());
  ENSEMFDET_DCHECK(merchant_neighbors.size() == user_neighbors.size());
  ENSEMFDET_DCHECK(merchant_edge_ids.size() == user_neighbors.size());
  ENSEMFDET_DCHECK(weights.empty() ||
                   weights.size() == user_neighbors.size());
  CsrGraph g;
  g.num_users_ = num_users;
  g.num_merchants_ = num_merchants;
  g.user_offsets_ = user_offsets;
  g.user_neighbors_ = user_neighbors;
  g.edge_users_ = edge_users;
  g.merchant_offsets_ = merchant_offsets;
  g.merchant_neighbors_ = merchant_neighbors;
  g.merchant_edge_ids_ = merchant_edge_ids;
  g.weights_ = weights;
  g.backing_ = std::move(backing);
  return g;
}

CsrGraph CsrGraph::FromRawArrays(
    int64_t num_users, int64_t num_merchants,
    std::vector<int64_t> user_offsets,
    std::vector<MerchantId> user_neighbors, std::vector<UserId> edge_users,
    std::vector<int64_t> merchant_offsets,
    std::vector<UserId> merchant_neighbors,
    std::vector<EdgeId> merchant_edge_ids, std::vector<double> weights) {
  ENSEMFDET_DCHECK(user_offsets.size() ==
                   static_cast<size_t>(num_users) + 1);
  ENSEMFDET_DCHECK(merchant_offsets.size() ==
                   static_cast<size_t>(num_merchants) + 1);
  ENSEMFDET_DCHECK(user_neighbors.size() == edge_users.size());
  ENSEMFDET_DCHECK(merchant_neighbors.size() == user_neighbors.size());
  ENSEMFDET_DCHECK(merchant_edge_ids.size() == user_neighbors.size());
  ENSEMFDET_DCHECK(weights.empty() ||
                   weights.size() == user_neighbors.size());
  CsrGraph g;
  g.num_users_ = num_users;
  g.num_merchants_ = num_merchants;
  g.owned_.user_offsets = std::move(user_offsets);
  g.owned_.user_neighbors = std::move(user_neighbors);
  g.owned_.edge_users = std::move(edge_users);
  g.owned_.merchant_offsets = std::move(merchant_offsets);
  g.owned_.merchant_neighbors = std::move(merchant_neighbors);
  g.owned_.merchant_edge_ids = std::move(merchant_edge_ids);
  g.owned_.weights = std::move(weights);
  g.BindOwned();
  return g;
}

bool CsrGraph::HasEdge(UserId u, MerchantId v) const {
  if (u >= num_users_ || v >= num_merchants_) return false;
  const auto row = user_neighbors(u);  // ascending merchant ids
  return std::binary_search(row.begin(), row.end(), v);
}

}  // namespace ensemfdet
