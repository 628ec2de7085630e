// Synthetic "who buy-from where" dataset generator.
//
// Stands in for the paper's proprietary JD.com transaction logs (see
// DESIGN.md substitution record). The generator plants exactly the
// structures the paper says fraud leaves in the graph:
//
//   * background traffic — Zipf-popular users × Zipf-popular merchants,
//     heavy-tailed like real e-commerce order logs;
//   * fraud groups — disjoint user×merchant blocks with high internal
//     density (synchronized behaviour), densities varying across groups so
//     FDET's φ series has a real elbow;
//   * camouflage — fraud users also buy from popular legitimate merchants,
//     exercising the log-weighted density score's camouflage resistance;
//   * blacklist imperfection — a miss rate (fraudsters absent from the
//     blacklist: appeals, undiscovered accounts) and a noise rate (benign
//     users wrongly blacklisted), mirroring how JD's ground truth is
//     produced by manual review.
#ifndef ENSEMFDET_DATAGEN_GENERATOR_H_
#define ENSEMFDET_DATAGEN_GENERATOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "eval/labels.h"
#include "graph/csr_graph.h"

namespace ensemfdet {

/// One planted fraud group: a dense block of num_users × num_merchants.
struct FraudGroupSpec {
  int64_t num_users = 0;
  int64_t num_merchants = 0;
  /// Mean within-block purchases per fraud user (Poisson, clamped to
  /// [1, num_merchants]).
  double edges_per_user = 5.0;
  /// Mean camouflage purchases per fraud user at popular legitimate
  /// merchants (Poisson, may be 0).
  double camouflage_per_user = 1.0;
};

/// One legitimate shopping community: a moderately dense cluster of benign
/// users around popular merchants (regional/interest-based co-shopping).
/// Communities carry substantial spectral energy — they are what make
/// SVD-based detectors (SPOKEN/FBOX) unstable on real e-commerce graphs —
/// but their merchants are popular, so the log-degree-discounted density
/// score φ keeps them well below fraud blocks.
struct CommunitySpec {
  int64_t num_users = 0;
  int64_t num_merchants = 0;
  /// Mean in-community purchases per member (Poisson, clamped to
  /// [1, num_merchants]).
  double edges_per_user = 2.0;
};

struct DataGenConfig {
  std::string name = "synthetic";
  int64_t num_users = 0;
  int64_t num_merchants = 0;
  /// Total edge budget; background edges fill whatever the fraud groups
  /// leave of it. Duplicate collapses make the final graph slightly
  /// smaller — the actual count is in the built graph.
  int64_t num_edges = 0;
  /// Popularity skew of background traffic per side (0 = uniform).
  double user_zipf_exponent = 0.7;
  double merchant_zipf_exponent = 1.05;
  std::vector<FraudGroupSpec> fraud_groups;
  /// Legitimate communities (never blacklisted). Their merchants are drawn
  /// from the popular end of the merchant distribution; their users from
  /// the benign population.
  std::vector<CommunitySpec> communities;
  /// Fraction of planted fraud users absent from the blacklist.
  double blacklist_miss_rate = 0.10;
  /// Benign users wrongly blacklisted, as a fraction of planted fraud
  /// count.
  double blacklist_noise_rate = 0.02;
  uint64_t seed = 7;
};

/// A generated dataset: the graph, the evaluation blacklist, and the exact
/// planted truth (for tests that must not depend on label noise).
struct Dataset {
  std::string name;
  CsrGraph graph;
  /// Evaluation ground truth (blacklist with misses and noise applied).
  LabelSet blacklist;
  /// Exact planted fraud users, ascending.
  std::vector<UserId> planted_fraud_users;
  /// Exact planted fraud merchants, ascending.
  std::vector<MerchantId> planted_fraud_merchants;
  /// Planted user groups, in spec order (for per-group recovery tests).
  std::vector<std::vector<UserId>> fraud_user_groups;
  /// Planted legitimate-community user groups, in spec order.
  std::vector<std::vector<UserId>> community_user_groups;
};

/// Generates a dataset; deterministic in config.seed.
/// Fails with InvalidArgument when the fraud groups don't fit the node /
/// edge budgets or rates fall outside [0, 1].
Result<Dataset> GenerateDataset(const DataGenConfig& config);

}  // namespace ensemfdet

#endif  // ENSEMFDET_DATAGEN_GENERATOR_H_
