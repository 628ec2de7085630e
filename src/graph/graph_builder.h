// Mutable accumulator that validates and assembles a CsrGraph.
//
// Parallel (duplicate) edges are merged at Build() time; with
// DuplicatePolicy::kSumWeights the merged edge carries the summed weight,
// which is how repeated purchases fold into a weighted edge.
#ifndef ENSEMFDET_GRAPH_GRAPH_BUILDER_H_
#define ENSEMFDET_GRAPH_GRAPH_BUILDER_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "graph/csr_graph.h"

namespace ensemfdet {

/// What Build() does with parallel edges between the same (user, merchant).
enum class DuplicatePolicy {
  kKeepFirst,   ///< collapse to a single unit-weight edge
  kSumWeights,  ///< collapse, summing weights (purchase multiplicity)
};

class GraphBuilder {
 public:
  /// Fixes the node-id universes: users in [0, num_users), merchants in
  /// [0, num_merchants). The counts are validated by Build().
  GraphBuilder(int64_t num_users, int64_t num_merchants);

  int64_t num_users() const { return num_users_; }
  int64_t num_merchants() const { return num_merchants_; }
  /// Number of AddEdge calls so far (before dedup).
  int64_t num_pending_edges() const {
    return static_cast<int64_t>(pending_.size());
  }

  /// Queues an edge; ids are validated at Build() time.
  void AddEdge(UserId user, MerchantId merchant, double weight = 1.0);

  void Reserve(int64_t num_edges);

  /// Validates ids, merges duplicates per `policy`, builds both CSR
  /// orientations. The builder is left empty and reusable.
  /// Fails with InvalidArgument on node counts that are negative or do not
  /// fit 32-bit ids, out-of-range ids, or non-finite / non-positive
  /// weights.
  Result<CsrGraph> Build(
      DuplicatePolicy policy = DuplicatePolicy::kKeepFirst);

 private:
  struct PendingEdge {
    UserId user;
    MerchantId merchant;
    double weight;
  };

  int64_t num_users_;
  int64_t num_merchants_;
  std::vector<PendingEdge> pending_;
};

}  // namespace ensemfdet

#endif  // ENSEMFDET_GRAPH_GRAPH_BUILDER_H_
