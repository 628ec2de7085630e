// Ingest-side event types: the unit of streaming input to the incremental
// subsystem (and, transitively, to stream/windowed_detector.h, which
// re-exports Transaction for its callers).
//
// The paper's deployment setting is a live transaction stream; the ingest
// layer models it as timestamped (user, merchant) purchase events arriving
// in batches. Batches are the unit the DynamicGraphStore applies and the
// unit the DetectionService streaming sessions accept.
#ifndef ENSEMFDET_INGEST_INGEST_BATCH_H_
#define ENSEMFDET_INGEST_INGEST_BATCH_H_

#include <cstdint>
#include <vector>

#include "graph/csr_graph.h"

namespace ensemfdet {

/// One observed purchase event.
struct Transaction {
  int64_t timestamp = 0;  ///< any monotone clock (seconds, ms, ticks)
  UserId user = 0;
  MerchantId merchant = 0;
};

/// A group of events applied to a DynamicGraphStore in one call.
/// Transactions must be non-decreasing in timestamp within the batch and
/// relative to everything already applied (a reorder buffer, e.g.
/// WindowedDetector's `max_out_of_order` slack, sits in front of the store
/// when the source cannot guarantee that).
struct IngestBatch {
  std::vector<Transaction> transactions;
};

/// What one DynamicGraphStore::Apply observed. "Structural" changes are
/// live-edge-set transitions (multiplicity 0→1 / 1→0); duplicate
/// transactions inside the window change multiplicity only and leave the
/// graph — and therefore every published GraphVersion — untouched.
struct IngestStats {
  int64_t events_ingested = 0;  ///< transactions accepted from the batch
  int64_t events_evicted = 0;   ///< transactions expired out of the window
  int64_t edges_added = 0;      ///< structural adds (0→1)
  int64_t edges_removed = 0;    ///< structural removes (1→0)
};

}  // namespace ensemfdet

#endif  // ENSEMFDET_INGEST_INGEST_BATCH_H_
