// Component-partitioned FDET: exploit the fact that dense blocks never
// span connected components. The graph splits into components, FDET runs
// on each large-enough component independently (in parallel on a thread
// pool — a second parallelism axis on top of the ensemble's), and the
// per-component blocks merge into one global result re-truncated by the
// same Δ²φ rule.
//
// This is the "parallelism with all aspects of data" the paper's abstract
// claims, applied within a single sampled graph: components are
// embarrassingly parallel, and pruning components too small to host a
// fraud group skips most of the debris in real transaction graphs.
#ifndef ENSEMFDET_DETECT_PARTITIONED_FDET_H_
#define ENSEMFDET_DETECT_PARTITIONED_FDET_H_

#include "common/status.h"
#include "common/thread_pool.h"
#include "detect/fdet.h"
#include "graph/csr_graph.h"

namespace ensemfdet {

struct PartitionedFdetConfig {
  FdetConfig fdet;
  /// Components with fewer edges are skipped outright (too small to host
  /// a fraud group worth reporting). 1 = keep everything with an edge.
  int64_t min_component_edges = 1;
};

/// Runs FDET per connected component and merges. Blocks come back in
/// descending-φ order across components; truncation applies globally with
/// the configured policy, so the result is interchangeable with RunFdet's
/// (node ids are in `graph`'s id space). `pool` may be nullptr for
/// sequential execution — results are identical either way.
Result<FdetResult> RunPartitionedFdet(const CsrGraph& graph,
                                      const PartitionedFdetConfig& config,
                                      ThreadPool* pool = nullptr);

}  // namespace ensemfdet

#endif  // ENSEMFDET_DETECT_PARTITIONED_FDET_H_
