// Binary-classification metrics over detected user sets: Precision, Recall,
// F1 (the paper's metrics; §V-B1 notes Accuracy is uninformative at fraud
// base rates, so it is intentionally absent).
#ifndef ENSEMFDET_EVAL_METRICS_H_
#define ENSEMFDET_EVAL_METRICS_H_

#include <cstdint>
#include <span>

#include "eval/labels.h"
#include "graph/csr_graph.h"

namespace ensemfdet {

struct Confusion {
  int64_t true_positives = 0;
  int64_t false_positives = 0;
  int64_t false_negatives = 0;
  int64_t true_negatives = 0;

  int64_t num_detected() const { return true_positives + false_positives; }
};

/// Counts detected users (any order, duplicates ignored) against labels.
Confusion CountConfusion(std::span<const UserId> detected,
                         const LabelSet& labels);

/// tp / (tp + fp); 0 when nothing was detected.
double Precision(const Confusion& c);
/// tp / (tp + fn); 0 when there are no positives.
double Recall(const Confusion& c);
/// Harmonic mean of precision and recall; 0 when both are 0.
double F1Score(const Confusion& c);

}  // namespace ensemfdet

#endif  // ENSEMFDET_EVAL_METRICS_H_
