#include "graph/graph_builder.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

namespace ensemfdet {

GraphBuilder::GraphBuilder(int64_t num_users, int64_t num_merchants)
    : num_users_(num_users), num_merchants_(num_merchants) {}

void GraphBuilder::AddEdge(UserId user, MerchantId merchant, double weight) {
  pending_.push_back({user, merchant, weight});
}

void GraphBuilder::Reserve(int64_t num_edges) {
  pending_.reserve(static_cast<size_t>(num_edges));
}

Result<CsrGraph> GraphBuilder::Build(DuplicatePolicy policy) {
  // Validate before any expensive work.
  if (num_users_ < 0 || num_merchants_ < 0 || num_users_ > UINT32_MAX ||
      num_merchants_ > UINT32_MAX) {
    return Status::InvalidArgument(
        "node counts must fit 32-bit ids, got " + std::to_string(num_users_) +
        " users and " + std::to_string(num_merchants_) + " merchants");
  }
  for (const PendingEdge& pe : pending_) {
    if (pe.user >= num_users_) {
      return Status::InvalidArgument("user id " + std::to_string(pe.user) +
                                     " out of range [0, " +
                                     std::to_string(num_users_) + ")");
    }
    if (pe.merchant >= num_merchants_) {
      return Status::InvalidArgument(
          "merchant id " + std::to_string(pe.merchant) + " out of range [0, " +
          std::to_string(num_merchants_) + ")");
    }
    if (!std::isfinite(pe.weight) || pe.weight <= 0.0) {
      return Status::InvalidArgument("edge weight must be finite and > 0");
    }
  }

  // Sort by (user, merchant) so duplicates are adjacent and edge ids come
  // out canonical: the user-side CSR is the merged pending array itself.
  std::sort(pending_.begin(), pending_.end(),
            [](const PendingEdge& a, const PendingEdge& b) {
              if (a.user != b.user) return a.user < b.user;
              return a.merchant < b.merchant;
            });

  std::vector<int64_t> user_offsets(static_cast<size_t>(num_users_) + 1, 0);
  std::vector<MerchantId> user_neighbors;
  std::vector<UserId> edge_users;
  std::vector<double> weights;
  user_neighbors.reserve(pending_.size());
  edge_users.reserve(pending_.size());
  weights.reserve(pending_.size());
  bool any_nonunit_weight = false;
  for (size_t i = 0; i < pending_.size();) {
    const PendingEdge& first = pending_[i];
    double weight = first.weight;
    size_t j = i + 1;
    while (j < pending_.size() && pending_[j].user == first.user &&
           pending_[j].merchant == first.merchant) {
      if (policy == DuplicatePolicy::kSumWeights) weight += pending_[j].weight;
      ++j;
    }
    ++user_offsets[first.user + 1];
    user_neighbors.push_back(first.merchant);
    edge_users.push_back(first.user);
    weights.push_back(weight);
    if (weight != 1.0) any_nonunit_weight = true;
    i = j;
  }
  pending_.clear();
  pending_.shrink_to_fit();
  if (!any_nonunit_weight) weights = {};
  for (int64_t u = 0; u < num_users_; ++u) {
    user_offsets[static_cast<size_t>(u) + 1] +=
        user_offsets[static_cast<size_t>(u)];
  }

  // Merchant side: counting sort by merchant; within a merchant the edge
  // ids arrive ascending, which is ascending user order.
  const size_t num_edges = user_neighbors.size();
  std::vector<int64_t> merchant_offsets(static_cast<size_t>(num_merchants_) + 1,
                                        0);
  for (MerchantId v : user_neighbors) ++merchant_offsets[v + 1];
  for (int64_t v = 0; v < num_merchants_; ++v) {
    merchant_offsets[static_cast<size_t>(v) + 1] +=
        merchant_offsets[static_cast<size_t>(v)];
  }
  std::vector<UserId> merchant_neighbors(num_edges);
  std::vector<EdgeId> merchant_edge_ids(num_edges);
  std::vector<int64_t> cursor(merchant_offsets.begin(),
                              merchant_offsets.end() - 1);
  for (size_t e = 0; e < num_edges; ++e) {
    const size_t slot = static_cast<size_t>(cursor[user_neighbors[e]]++);
    merchant_neighbors[slot] = edge_users[e];
    merchant_edge_ids[slot] = static_cast<EdgeId>(e);
  }

  return CsrGraph::FromRawArrays(
      num_users_, num_merchants_, std::move(user_offsets),
      std::move(user_neighbors), std::move(edge_users),
      std::move(merchant_offsets), std::move(merchant_neighbors),
      std::move(merchant_edge_ids), std::move(weights));
}

}  // namespace ensemfdet
