// Snapshot readers for the .efg container (storage/snapshot_format.h):
//
//   * ReadSnapshotInfo      — cheap header probe (kind, shape, fingerprint)
//   * MappedCsrGraph        — the one CsrGraph reader: mmaps the file and
//                             serves the CsrGraph accessor API directly
//                             off the mapping (validated structurally on
//                             Open; fingerprint verification is a
//                             separate — also O(|E|) — call so callers
//                             can time / skip it for trusted local
//                             snapshots).
//   * ReadGraphVersionSnapshot / ReadStoreCheckpoint — parts structs the
//     ingest layer reassembles into GraphVersion / DynamicGraphStore
//     (storage sits below ingest, so those types can't appear here).
//
// Corruption contract: every reader returns a Status for malformed input
// — wrong magic, foreign endianness, schema-version skew, truncation,
// out-of-bounds sections, broken CSR invariants, fingerprint mismatch —
// and never exhibits UB (pinned by tests/storage_test.cc; the ASan+UBSan
// CI job runs those tests on every push).
#ifndef ENSEMFDET_STORAGE_SNAPSHOT_READER_H_
#define ENSEMFDET_STORAGE_SNAPSHOT_READER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "graph/csr_graph.h"
#include "storage/mapped_file.h"
#include "storage/snapshot_format.h"

namespace ensemfdet {
namespace storage {

/// Header summary of a snapshot file (no payload is read or validated).
struct SnapshotInfo {
  PayloadKind kind = PayloadKind::kCsrGraph;
  uint32_t schema_version = 0;
  uint64_t content_fingerprint = 0;
  int64_t num_users = 0;
  int64_t num_merchants = 0;
  int64_t num_edges = 0;
  uint64_t file_size = 0;
};

/// Reads and sanity-checks the 64-byte header only.
Result<SnapshotInfo> ReadSnapshotInfo(const std::string& path);

/// Zero-copy reader: the returned object owns the file mapping, and
/// `graph()` is a CsrGraph *view* whose arrays live in the mapping.
/// Copies of the view (including `shared()`) keep the mapping alive, so
/// the MappedCsrGraph itself may be destroyed once a graph copy is taken.
///
/// Open() validates the header, section table, and every CSR structural
/// invariant (offsets monotone, rows strictly ascending and in range,
/// edge-id cross-references consistent, weights finite) so downstream
/// peeling can trust the view exactly like a GraphBuilder-built graph.
///
/// @note Thread-safety: immutable after Open; share freely.
class MappedCsrGraph {
 public:
  static Result<MappedCsrGraph> Open(const std::string& path);

  const CsrGraph& graph() const { return graph_; }
  /// A shared handle to a view copy (keeps the mapping alive).
  std::shared_ptr<const CsrGraph> shared() const {
    return std::make_shared<const CsrGraph>(graph_);
  }
  /// The header's content fingerprint (the writer's claim).
  uint64_t fingerprint() const { return fingerprint_; }
  /// Recomputes FingerprintGraph over the mapped arrays and compares it
  /// to the header. IOError on mismatch. O(|E|).
  Status VerifyFingerprint() const;
  /// Total mapped bytes.
  size_t file_bytes() const { return file_bytes_; }

 private:
  MappedCsrGraph() = default;

  CsrGraph graph_;  // view; its backing handle holds the MappedFile
  uint64_t fingerprint_ = 0;
  size_t file_bytes_ = 0;
};

/// A deserialized kGraphVersion payload (owning copies; the ingest layer
/// reassembles a GraphVersion from these).
struct GraphVersionParts {
  uint64_t epoch = 0;
  bool compacted = false;
  int64_t num_users = 0;
  int64_t num_merchants = 0;
  /// The header's live-set fingerprint. Structural validation happens
  /// here; *fingerprint* verification needs the live-set merge and is
  /// done by the ingest reassembly (GraphVersion::ContentFingerprint).
  uint64_t content_fingerprint = 0;
  CsrGraph base;
  std::vector<Edge> adds;      ///< canonical order, disjoint from base
  std::vector<EdgeId> dead;    ///< ascending base EdgeIds
  std::vector<UserId> touched_users;
  std::vector<MerchantId> touched_merchants;
};

/// Loads a kGraphVersion snapshot (also accepts the version embedded in a
/// kStoreCheckpoint). Validates base structure and delta-log invariants
/// (adds sorted/deduped/disjoint-from-base/in-range, dead sorted/valid).
Result<GraphVersionParts> ReadGraphVersionSnapshot(const std::string& path);

/// A deserialized kStoreCheckpoint payload.
struct StoreCheckpointParts {
  GraphVersionParts version;  ///< base + delta + dirty frontier
  StoreStateRecord state;
  std::vector<SnapshotTransaction> window;  ///< non-decreasing timestamps
  /// WindowedDetector state; absent (has_clock == false) for checkpoints
  /// written directly off a DynamicGraphStore.
  bool has_clock = false;
  DetectorClockRecord clock;
  std::vector<ReorderEventRecord> reorder;
  /// Durable-ingest linkage; absent for checkpoints taken outside a
  /// WAL-backed session (see WalPositionRecord).
  bool has_wal_position = false;
  WalPositionRecord wal_position;
};

Result<StoreCheckpointParts> ReadStoreCheckpoint(const std::string& path);

}  // namespace storage
}  // namespace ensemfdet

#endif  // ENSEMFDET_STORAGE_SNAPSHOT_READER_H_
