#include "datagen/transaction_stream.h"

#include <algorithm>

#include "common/rng.h"

namespace ensemfdet {

Result<std::vector<Transaction>> BuildTransactionStream(
    const Dataset& dataset, const StreamTimelineConfig& config) {
  if (config.horizon < 1) {
    return Status::InvalidArgument("horizon must be >= 1");
  }
  if (config.burst_duration < 1 || config.burst_duration > config.horizon) {
    return Status::InvalidArgument(
        "burst_duration must be in [1, horizon]");
  }

  // user → fraud group index (-1 = benign).
  std::vector<int32_t> group_of(static_cast<size_t>(
                                    dataset.graph.num_users()),
                                -1);
  for (size_t g = 0; g < dataset.fraud_user_groups.size(); ++g) {
    for (UserId u : dataset.fraud_user_groups[g]) {
      group_of[u] = static_cast<int32_t>(g);
    }
  }

  const int64_t num_groups =
      static_cast<int64_t>(dataset.fraud_user_groups.size());
  auto burst_start = [&](int32_t g) {
    const int64_t centre = (g + 1) * config.horizon / (num_groups + 1);
    const int64_t start = centre - config.burst_duration / 2;
    return std::clamp<int64_t>(start, 0,
                               config.horizon - config.burst_duration);
  };

  Rng rng(config.seed);
  std::vector<Transaction> events;
  events.reserve(static_cast<size_t>(dataset.graph.num_edges()));
  for (EdgeId e = 0; e < dataset.graph.num_edges(); ++e) {
    const Edge edge = dataset.graph.edge(e);
    Transaction tx;
    tx.user = edge.user;
    tx.merchant = edge.merchant;
    const int32_t group = group_of[edge.user];
    if (group >= 0) {
      tx.timestamp = burst_start(group) +
                     static_cast<int64_t>(rng.NextBounded(
                         static_cast<uint64_t>(config.burst_duration)));
    } else {
      tx.timestamp = static_cast<int64_t>(
          rng.NextBounded(static_cast<uint64_t>(config.horizon)));
    }
    events.push_back(tx);
  }

  std::stable_sort(events.begin(), events.end(),
                   [](const Transaction& a, const Transaction& b) {
                     return a.timestamp < b.timestamp;
                   });
  return events;
}

Result<std::vector<IngestBatch>> SliceIntoBatches(
    const std::vector<Transaction>& events, int64_t batch_events) {
  if (batch_events < 1) {
    return Status::InvalidArgument("batch_events must be >= 1");
  }
  std::vector<IngestBatch> batches;
  batches.reserve((events.size() + static_cast<size_t>(batch_events) - 1) /
                  static_cast<size_t>(batch_events));
  for (size_t begin = 0; begin < events.size();
       begin += static_cast<size_t>(batch_events)) {
    const size_t end =
        std::min(events.size(), begin + static_cast<size_t>(batch_events));
    IngestBatch batch;
    batch.transactions.assign(events.begin() + begin, events.begin() + end);
    batches.push_back(std::move(batch));
  }
  return batches;
}

}  // namespace ensemfdet
