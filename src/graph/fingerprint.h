// Stable content fingerprints of bipartite graphs — the value every cache
// key and version identity in the repo hangs off.
//
// A fingerprint covers |U|, |V|, every edge's endpoints in canonical id
// order, and per-edge weights when present. Two graphs with equal
// fingerprints are (modulo 64-bit hash collision) structurally identical,
// so detection results over them are interchangeable. The contract that
// matters for caching is *representation independence*: a built graph, an
// mmap-served snapshot view of it, and an incremental base+delta
// GraphVersion of the same live edge set all fingerprint to the same value
// (pinned by tests/csr_graph_test.cc and tests/ingest_store_test.cc), so
// keys derived from any of them are interchangeable.
//
// Lives in the graph layer (not service) so the ingest subsystem can stamp
// published GraphVersions without depending on the registry; the service
// re-exports these declarations via service/graph_registry.h.
#ifndef ENSEMFDET_GRAPH_FINGERPRINT_H_
#define ENSEMFDET_GRAPH_FINGERPRINT_H_

#include <cstdint>
#include <span>

#include "graph/csr_graph.h"

namespace ensemfdet {

/// Stable 64-bit content hash of a graph (see file comment).
///
/// @note Thread-safety: pure function; safe to call concurrently.
uint64_t FingerprintGraph(const CsrGraph& graph);

/// The shared core: fingerprints an explicit edge list. `edges` must be in
/// canonical order — ascending (user, merchant), duplicate-free — i.e. the
/// id order GraphBuilder::Build() produces; `weights` is empty for an
/// unweighted graph, else one weight per edge in the same order. Both
/// FingerprintGraph and GraphVersion::ContentFingerprint()
/// funnel through this one definition, so the byte stream can never drift
/// between representations.
uint64_t FingerprintEdges(int64_t num_users, int64_t num_merchants,
                          std::span<const Edge> edges,
                          std::span<const double> weights = {});

}  // namespace ensemfdet

#endif  // ENSEMFDET_GRAPH_FINGERPRINT_H_
