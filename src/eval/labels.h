// Ground-truth label storage: the "Blacklist" of dangerous PINs the paper
// evaluates against (§V-A). Evaluation is user-side only, matching the
// paper's metrics (fraud PINs, not merchants).
#ifndef ENSEMFDET_EVAL_LABELS_H_
#define ENSEMFDET_EVAL_LABELS_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/csr_graph.h"

namespace ensemfdet {

class LabelSet {
 public:
  LabelSet() = default;
  /// All `num_users` users benign.
  explicit LabelSet(int64_t num_users);
  /// Marks `fraud_users` (parent ids) as fraudulent.
  LabelSet(int64_t num_users, std::span<const UserId> fraud_users);

  int64_t num_users() const { return static_cast<int64_t>(fraud_.size()); }
  int64_t num_fraud() const { return num_fraud_; }

  bool IsFraud(UserId u) const { return fraud_[u]; }

  void MarkFraud(UserId u);
  void ClearFraud(UserId u);

  /// Ascending list of fraud user ids.
  std::vector<UserId> FraudUsers() const;

 private:
  std::vector<bool> fraud_;
  int64_t num_fraud_ = 0;
};

}  // namespace ensemfdet

#endif  // ENSEMFDET_EVAL_LABELS_H_
