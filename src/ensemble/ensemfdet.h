// ENSEMFDET (paper Algorithm 2): the full ensemble fraud detector.
//
//   1. Draw N sampled subgraphs of G with ratio S (RES / ONS / TNS).
//   2. Run FDET on every sample — in parallel over a thread pool.
//   3. Aggregate the per-sample suspicious node sets by majority voting;
//      accept nodes with ≥ T votes (threshold chosen downstream, so the
//      report keeps the full vote table and T can be swept for free).
//
// Hot path (DESIGN.md §"Ensemble hot loop"): every member runs directly on
// the shared parent CsrGraph with **zero per-member graph
// materialization** — samplers emit residual edge masks in parent edge-id
// space (Sampler::SampleEdgeMask), FDET peels those masks in place
// (RunFdetCsrMasked), and each worker thread reuses one arena (sampling
// buffers + PeelScratch + dense epoch-stamped weight arrays) across all
// its members, so a warm run performs no arena allocations at all. The
// seed materializing path survives as RunReference() — the bit-exact
// parity and performance reference (tests/ensemble_parity_test.cc,
// the ensemble bench in bench/perf_harness.cc), mirroring detect/fdet.h's
// RunFdetReference.
//
// Determinism: ensemble member i draws all randomness from
// Rng(seed).Split(i), and votes are accumulated in member order after the
// parallel section, so results are bit-identical at any thread count.
#ifndef ENSEMFDET_ENSEMBLE_ENSEMFDET_H_
#define ENSEMFDET_ENSEMBLE_ENSEMFDET_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "detect/fdet.h"
#include "ensemble/vote_table.h"
#include "graph/csr_graph.h"
#include "sampling/sampler.h"

namespace ensemfdet {

struct EnsemFDetConfig {
  /// Sampling method M (paper Table II).
  SampleMethod method = SampleMethod::kRandomEdge;
  /// Number of sampled graphs N.
  int num_samples = 80;
  /// Sample ratio S.
  double ratio = 0.1;
  /// Apply Theorem 1's 1/p edge reweighting (RES only).
  bool reweight_edges = false;
  /// Per-sample FDET configuration.
  FdetConfig fdet;
  /// Root seed; member i uses Rng(seed).Split(i).
  uint64_t seed = 42;

  /// Repetition rate R = S · N (paper Table II) — expected number of times
  /// each edge/node is covered across the ensemble.
  double RepetitionRate() const { return ratio * num_samples; }
};

/// Everything ENSEMFDET produced, threshold-free: apply MVA by querying
/// AcceptedUsers(T) / sweeping T.
struct EnsemFDetReport {
  VoteTable votes;
  int num_samples = 0;

  /// Score-weighted votes — the flexible-aggregation hook of Definition
  /// 4's closing remark ("aggregation methods ... can be set as the one
  /// suitable for the specific requirement"): member i contributes, for
  /// each node it flags, the φ of the densest detected block containing
  /// that node instead of a flat 1. Feed these to eval::ScoreSweep for a
  /// density-aware operating curve; `votes` remains plain MVA.
  std::vector<double> weighted_user_votes;
  std::vector<double> weighted_merchant_votes;

  /// Per-member diagnostics, in member order.
  struct MemberStats {
    int64_t sample_users = 0;
    int64_t sample_merchants = 0;
    int64_t sample_edges = 0;
    int num_blocks = 0;       ///< k̂ for this member
    double seconds = 0.0;     ///< sample + FDET wall time of this member
    /// Worker-arena buffer growths while this member ran (zero-mat path
    /// only; 0 once the worker's arena is warm — the reuse counter the
    /// ensemble bench sums into `arena.grow_events`).
    int64_t arena_grow_events = 0;
  };
  std::vector<MemberStats> members;

  /// Wall-clock of the whole Run() including aggregation.
  double total_seconds = 0.0;

  /// MVA (Definition 4) at threshold T: users with ≥ T votes.
  std::vector<UserId> AcceptedUsers(int32_t threshold) const {
    return votes.AcceptedUsers(threshold);
  }
  std::vector<MerchantId> AcceptedMerchants(int32_t threshold) const {
    return votes.AcceptedMerchants(threshold);
  }
};

/// One ensemble member's raw FDET output — the pre-aggregation form the
/// incremental streaming detector caches per connected component so clean
/// components can replay their contribution into a later global
/// merge+truncation without re-running the ensemble (ingest/
/// streaming_detector.h). Node/edge ids are in the id space of the graph
/// the ensemble ran on.
struct EnsembleMemberBlocks {
  /// Blocks in detection order (k̂ per the member's FDET config).
  std::vector<DetectedBlock> blocks;
  EnsemFDetReport::MemberStats stats;
};

class EnsemFDet {
 public:
  explicit EnsemFDet(EnsemFDetConfig config) : config_(std::move(config)) {}

  const EnsemFDetConfig& config() const { return config_; }

  /// Runs the ensemble on `graph` — the zero-materialization hot path;
  /// members peel residual edge masks of `graph` in place and never build
  /// a child graph. `pool` supplies the parallelism; pass nullptr to run
  /// sequentially on the calling thread (useful for determinism tests —
  /// output is identical either way).
  /// Fails with InvalidArgument on bad N / S / FDET configuration.
  ///
  /// @note Worker arenas are thread_local caches sized to the largest
  ///       graph each thread has served; they persist across runs (that
  ///       is the point) and hold O(|U| + |V| + |E|) ints/doubles per
  ///       thread.
  Result<EnsemFDetReport> Run(const CsrGraph& graph,
                              ThreadPool* pool = nullptr) const;

  /// The seed implementation: every member materializes its sampled child
  /// (SubgraphView), runs FDET on it, and remaps results to parent ids.
  /// Kept as the parity/performance reference for
  /// tests/ensemble_parity_test.cc and the ensemble bench — prefer Run,
  /// whose output is bit-identical.
  Result<EnsemFDetReport> RunReference(const CsrGraph& graph,
                                       ThreadPool* pool = nullptr) const;

  /// Runs the same N members as Run() (identical sampling randomness,
  /// identical per-member FDET, same zero-materialization hot path and
  /// worker arenas) but returns each member's raw block list instead of
  /// aggregating votes — member i of the result is what member i of Run()
  /// computed before vote accumulation. The streaming detector uses this
  /// to cache per-component member outputs and re-aggregate them under a
  /// cross-component truncation rule (see RunPartitionedFdet for the
  /// single-detector precedent).
  Result<std::vector<EnsembleMemberBlocks>> RunBlocks(
      const CsrGraph& graph, ThreadPool* pool = nullptr) const;

 private:
  EnsemFDetConfig config_;
};

}  // namespace ensemfdet

#endif  // ENSEMFDET_ENSEMBLE_ENSEMFDET_H_
