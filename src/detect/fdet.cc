#include "detect/fdet.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "common/logging.h"
#include "detect/csr_peeler.h"
#include "detect/greedy_peeler.h"
#include "detect/simd/kernels.h"
#include "graph/subgraph.h"

namespace ensemfdet {

namespace {

// Sorted-vector membership test; block node lists come out of the peeler
// sorted ascending.
template <typename T>
bool SortedContains(const std::vector<T>& sorted, T value) {
  auto it = std::lower_bound(sorted.begin(), sorted.end(), value);
  return it != sorted.end() && *it == value;
}

// Shared front-door validation for every FDET entry point.
Status ValidateFdetConfig(const FdetConfig& config) {
  if (config.max_blocks < 1) {
    return Status::InvalidArgument("max_blocks must be >= 1, got " +
                                   std::to_string(config.max_blocks));
  }
  if (config.policy == TruncationPolicy::kFixedK && config.fixed_k < 1) {
    return Status::InvalidArgument("fixed_k must be >= 1, got " +
                                   std::to_string(config.fixed_k));
  }
  if (config.elbow_patience < 1) {
    return Status::InvalidArgument("elbow_patience must be >= 1, got " +
                                   std::to_string(config.elbow_patience));
  }
  if (config.density.weight_kind == ColumnWeightKind::kLogarithmic &&
      config.density.log_offset <= 1.0) {
    return Status::InvalidArgument(
        "density log_offset must be > 1 for logarithmic weights");
  }
  if (config.density.weight_kind == ColumnWeightKind::kInverse &&
      config.density.log_offset <= 0.0) {
    return Status::InvalidArgument(
        "density log_offset must be > 0 for inverse weights");
  }
  return Status::OK();
}

// Truncation shared by all entry points: keep blocks 1..k̂ of `explored`.
FdetResult TruncateExplored(std::vector<DetectedBlock> explored,
                            const FdetConfig& config) {
  FdetResult result;
  result.all_scores.reserve(explored.size());
  for (const DetectedBlock& b : explored) result.all_scores.push_back(b.score);

  int keep;
  if (config.policy == TruncationPolicy::kFixedK) {
    keep = std::min<int>(config.fixed_k, static_cast<int>(explored.size()));
  } else {
    keep = AutoTruncationIndex(result.all_scores);
  }
  explored.resize(static_cast<size_t>(keep));
  result.blocks = std::move(explored);
  result.truncation_index = keep;
  return result;
}

}  // namespace

std::vector<UserId> FdetResult::DetectedUsers() const {
  std::vector<UserId> out;
  for (const DetectedBlock& b : blocks) {
    out.insert(out.end(), b.users.begin(), b.users.end());
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<MerchantId> FdetResult::DetectedMerchants() const {
  std::vector<MerchantId> out;
  for (const DetectedBlock& b : blocks) {
    out.insert(out.end(), b.merchants.begin(), b.merchants.end());
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

int AutoTruncationIndex(const std::vector<double>& scores) {
  const int len = static_cast<int>(scores.size());
  if (len <= 2) return len;
  // Δ²φ(i) = φ(i+1) − 2φ(i) + φ(i−1) over interior points (Definition 3);
  // the most negative value marks the last block before density falls off
  // a cliff — keep blocks 1..k̂. FDET always explores past the planted
  // structure into background noise (up to max_blocks), so the cliff is an
  // interior point of the series in practice.
  int best_i = 1;  // 0-indexed interior position
  double best_value = std::numeric_limits<double>::infinity();
  for (int i = 1; i + 1 < len; ++i) {
    const double d2 = scores[static_cast<size_t>(i) + 1] -
                      2.0 * scores[static_cast<size_t>(i)] +
                      scores[static_cast<size_t>(i) - 1];
    if (d2 < best_value) {
      best_value = d2;
      best_i = i;
    }
  }
  return best_i + 1;  // convert to 1-indexed block count
}

namespace {

// True when the Algorithm 1 loop may stop exploring: online truncation —
// once the elbow is `elbow_patience` blocks behind the frontier, further
// exploration cannot move it; later blocks only extend the flat tail.
bool ElbowConfirmed(const std::vector<double>& scores_so_far,
                    const FdetConfig& config) {
  return config.policy == TruncationPolicy::kAutoElbow &&
         static_cast<int>(scores_so_far.size()) >=
             AutoTruncationIndex(scores_so_far) + config.elbow_patience;
}

}  // namespace

Result<FdetResult> RunFdet(const CsrGraph& graph, const FdetConfig& config) {
  // RunFdetCsrMasked validates `config` before touching the residual.
  std::vector<EdgeId> all_edges(static_cast<size_t>(graph.num_edges()));
  std::iota(all_edges.begin(), all_edges.end(), EdgeId{0});
  PeelScratch scratch;
  return RunFdetCsrMasked(graph, all_edges, /*weight_scale=*/1.0, config,
                          &scratch);
}

// Algorithm 1 over a residual edge set of a shared parent — every edge for
// RunFdet, a sampled mask for an ensemble member. The residual is cached
// once as a member-dense view (SetResidualView) and the per-iteration
// residual is just the `view_alive` bitmap over its slots: every
// iteration streams residual-sized compact arrays with no parent-array
// gathers and no work-list rebuild. The alive slots of the ascending mask
// are that iteration's residual edge list, in order, and the member-dense
// ids translate monotonically back to parent ids, so each iteration's
// peel is the seed peel of the compacted residual (detect/csr_peeler.h).
Result<FdetResult> RunFdetCsrMasked(const CsrGraph& graph,
                                    std::span<const EdgeId> initial_residual,
                                    double weight_scale,
                                    const FdetConfig& config,
                                    PeelScratch* scratch) {
  ENSEMFDET_RETURN_NOT_OK(ValidateFdetConfig(config));
  if (!(weight_scale > 0.0)) {
    return Status::InvalidArgument("weight_scale must be > 0");
  }
  ENSEMFDET_CHECK(scratch != nullptr);

  const int explore_limit = config.policy == TruncationPolicy::kFixedK
                                ? std::max(config.max_blocks, config.fixed_k)
                                : config.max_blocks;

  std::vector<DetectedBlock> explored;
  std::vector<double> scores_so_far;

  CsrPeeler peeler(graph, scratch);
  PeelScratch& s = *scratch;
  peeler.SetResidualView(initial_residual);

  const int64_t mask_size = static_cast<int64_t>(initial_residual.size());
  const int32_t member_users = static_cast<int32_t>(s.member_user_count);
  for (int64_t i = 0; i < mask_size; ++i) {
    s.view_alive[static_cast<size_t>(i)] = 1;
    s.view_alive_m[static_cast<size_t>(i)] = 1;
  }
  int64_t alive_edges = mask_size;

  while (static_cast<int>(explored.size()) < explore_limit &&
         alive_edges > 0) {
    // Member-space peel; `peel.users` / `peel.merchants` are member ids.
    PeelResult peel = peeler.PeelAliveInView(config.density, weight_scale);
    if (peel.score <= config.min_block_score ||
        (peel.users.empty() && peel.merchants.empty())) {
      break;
    }

    DetectedBlock block;
    block.score = peel.score;
    // Member ids are ascending and monotone in parent id, so the
    // translated lists stay ascending.
    block.users.reserve(peel.users.size());
    for (UserId mu : peel.users) block.users.push_back(s.member_users[mu]);
    block.merchants.reserve(peel.merchants.size());
    for (MerchantId mj : peel.merchants) {
      block.merchants.push_back(s.member_merchants[mj]);
    }
    explored.push_back(std::move(block));
    DetectedBlock& added = explored.back();

    // Remove E_i by clearing alive flags in mask order (so the recorded
    // block edges come out ascending, like RunFdetReference's).
    // Block-membership flags live in member id space — compact.
    for (UserId mu : peel.users) s.in_block_user[mu] = 1;
    for (MerchantId mj : peel.merchants) s.in_block_merchant[mj] = 1;
    int64_t removed_edges = 0;
    // The alive-slot walk is the dispatched find-next-alive kernel
    // (integer — exact at every ISA level); slot order is preserved, so
    // the recorded block edges still come out ascending.
    const simd::KernelTable& kern = simd::ActiveKernels();
    const uint8_t* alive_map = s.view_alive.data();
    for (int64_t i = kern.next_alive(alive_map, mask_size, 0); i < mask_size;
         i = kern.next_alive(alive_map, mask_size, i + 1)) {
      const int32_t mu = s.view_user_dense[static_cast<size_t>(i)];
      const int32_t mj =
          s.view_merchant_dense[static_cast<size_t>(i)] - member_users;
      if (s.in_block_user[mu] && s.in_block_merchant[mj]) {
        added.edges.push_back(initial_residual[static_cast<size_t>(i)]);
        s.view_alive[static_cast<size_t>(i)] = 0;
        s.view_alive_m[static_cast<size_t>(
            s.view_merchant_slot[static_cast<size_t>(i)])] = 0;
        ++removed_edges;
      }
    }
    for (UserId mu : peel.users) s.in_block_user[mu] = 0;
    for (MerchantId mj : peel.merchants) s.in_block_merchant[mj] = 0;
    // The peeled block always contains at least one residual edge, so the
    // loop strictly shrinks the residual and must terminate.
    ENSEMFDET_CHECK(removed_edges > 0) << "detected block removed no edges";
    alive_edges -= removed_edges;

    scores_so_far.push_back(added.score);
    if (ElbowConfirmed(scores_so_far, config)) break;
  }

  // Restore the arena invariant (alive flags all-zero) on every exit path.
  for (int64_t i = 0; i < mask_size; ++i) {
    s.view_alive[static_cast<size_t>(i)] = 0;
    s.view_alive_m[static_cast<size_t>(i)] = 0;
  }

  return TruncateExplored(std::move(explored), config);
}

Result<FdetResult> RunFdetReference(const CsrGraph& graph,
                                    const FdetConfig& config) {
  ENSEMFDET_RETURN_NOT_OK(ValidateFdetConfig(config));

  const int explore_limit = config.policy == TruncationPolicy::kFixedK
                                ? std::max(config.max_blocks, config.fixed_k)
                                : config.max_blocks;

  std::vector<DetectedBlock> explored;
  std::vector<double> scores_so_far;

  // The residual graph after removing previously detected blocks' edges,
  // kept as an edge subset of `graph` with id maps back to it.
  std::vector<EdgeId> remaining;
  remaining.reserve(static_cast<size_t>(graph.num_edges()));
  for (EdgeId e = 0; e < graph.num_edges(); ++e) remaining.push_back(e);

  while (static_cast<int>(explored.size()) < explore_limit &&
         !remaining.empty()) {
    SubgraphView view = SubgraphFromEdges(graph, remaining);
    PeelResult peel = PeelDensestBlock(view.graph, config.density);
    if (peel.score <= config.min_block_score ||
        (peel.users.empty() && peel.merchants.empty())) {
      break;
    }

    DetectedBlock block;
    block.score = peel.score;
    block.users.reserve(peel.users.size());
    for (UserId lu : peel.users) block.users.push_back(view.user_map[lu]);
    block.merchants.reserve(peel.merchants.size());
    for (MerchantId lv : peel.merchants) {
      block.merchants.push_back(view.merchant_map[lv]);
    }
    // Peeler emits ascending local ids; id maps are ascending, so parent
    // ids stay sorted — required by SortedContains below.
    explored.push_back(std::move(block));
    const DetectedBlock& added = explored.back();

    // Remove E_i: residual edges induced by the block's vertex set, and
    // record them on the block for diagnostics/invariant checking.
    std::vector<EdgeId> next;
    next.reserve(remaining.size());
    for (EdgeId e : remaining) {
      const Edge edge = graph.edge(e);
      const bool inside = SortedContains(added.users, edge.user) &&
                          SortedContains(added.merchants, edge.merchant);
      if (inside) {
        explored.back().edges.push_back(e);
      } else {
        next.push_back(e);
      }
    }
    // The peeled block always contains at least one residual edge, so the
    // loop strictly shrinks `remaining` and must terminate.
    ENSEMFDET_CHECK(next.size() < remaining.size())
        << "detected block removed no edges";
    remaining = std::move(next);

    // Online truncation (Algorithm 1's stop condition): once the elbow is
    // `elbow_patience` blocks behind the frontier, further exploration
    // cannot move it — later blocks only extend the flat tail.
    scores_so_far.push_back(added.score);
    if (config.policy == TruncationPolicy::kAutoElbow &&
        static_cast<int>(scores_so_far.size()) >=
            AutoTruncationIndex(scores_so_far) + config.elbow_patience) {
      break;
    }
  }

  return TruncateExplored(std::move(explored), config);
}

}  // namespace ensemfdet
