#include "storage/snapshot_reader.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <utility>

#include "graph/fingerprint.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ensemfdet {
namespace storage {

namespace {

struct ReaderMetrics {
  obs::Counter* loads_total;
  obs::Counter* bytes_read_total;
  obs::Counter* verifies_total;
  obs::Histogram* load_seconds;
  obs::Histogram* verify_seconds;
};

ReaderMetrics& Metrics() {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  static ReaderMetrics m{
      reg.GetCounter("ensemfdet_storage_loads_total"),
      reg.GetCounter("ensemfdet_storage_bytes_read_total"),
      reg.GetCounter("ensemfdet_storage_verifies_total"),
      reg.GetHistogram("ensemfdet_storage_load_seconds"),
      reg.GetHistogram("ensemfdet_storage_verify_seconds"),
  };
  return m;
}

// The delta-adds section is the Edge array verbatim; pin its layout.
static_assert(sizeof(Edge) == 2 * sizeof(uint32_t),
              "Edge must be two packed uint32s for snapshot I/O");

/// A validated-at-the-container-level snapshot: mapping + header + table.
/// Section *payloads* are validated by the per-payload parsers below.
struct Raw {
  std::shared_ptr<const MappedFile> file;
  SnapshotHeader header;
  std::vector<SectionEntry> table;

  const SectionEntry* Find(SectionId id) const {
    for (const SectionEntry& entry : table) {
      if (entry.id == static_cast<uint32_t>(id)) return &entry;
    }
    return nullptr;
  }
};

Status Corrupt(const std::string& what) {
  return Status::IOError("corrupt snapshot: " + what);
}

Result<Raw> OpenRaw(const std::string& path) {
  Raw raw;
  ENSEMFDET_ASSIGN_OR_RETURN(raw.file, MappedFile::Open(path));
  const size_t size = raw.file->size();
  if (size < sizeof(SnapshotHeader)) {
    return Corrupt(path + " is " + std::to_string(size) +
                   " bytes, smaller than the header");
  }
  std::memcpy(&raw.header, raw.file->data(), sizeof(SnapshotHeader));
  const SnapshotHeader& h = raw.header;
  if (h.magic != kSnapshotMagic) {
    return Corrupt(path + " has wrong magic (not an .efg snapshot)");
  }
  if (h.endian_tag != kEndianTag) {
    return Corrupt(path + " was written with a different byte order");
  }
  if (h.schema_version != kSchemaVersion) {
    return Status::FailedPrecondition(
        "snapshot schema version skew: " + path + " is v" +
        std::to_string(h.schema_version) + ", this reader speaks v" +
        std::to_string(kSchemaVersion));
  }
  if (h.payload_kind < 1 || h.payload_kind > 3) {
    return Corrupt("unknown payload kind " +
                   std::to_string(h.payload_kind));
  }
  if (h.num_users < 0 || h.num_merchants < 0 || h.num_edges < 0) {
    return Corrupt("negative node/edge counts");
  }
  // Bound the counts by what the file could possibly hold (offsets cost 8
  // bytes per node, edge arrays 4 per edge) so later `count + 1` /
  // indexing arithmetic can never overflow or run past a section.
  if (h.num_users > static_cast<int64_t>(size / 8) ||
      h.num_merchants > static_cast<int64_t>(size / 8) ||
      h.num_edges > static_cast<int64_t>(size / 4)) {
    return Corrupt("node/edge counts exceed what the file can hold");
  }
  if (h.file_size != size) {
    return Corrupt(path + " is truncated: header declares " +
                   std::to_string(h.file_size) + " bytes, file has " +
                   std::to_string(size));
  }
  if (h.section_count > 1024) {
    return Corrupt("implausible section count " +
                   std::to_string(h.section_count));
  }
  const uint64_t table_end = sizeof(SnapshotHeader) +
                             sizeof(SectionEntry) *
                                 static_cast<uint64_t>(h.section_count);
  if (table_end > size) {
    return Corrupt("section table extends past end of file");
  }
  raw.table.resize(h.section_count);
  if (h.section_count > 0) {
    std::memcpy(raw.table.data(), raw.file->data() + sizeof(SnapshotHeader),
                sizeof(SectionEntry) * h.section_count);
  }
  for (const SectionEntry& entry : raw.table) {
    if (entry.offset % kSectionAlignment != 0) {
      return Corrupt("section " + std::to_string(entry.id) +
                     " is misaligned");
    }
    if (entry.offset > size || entry.byte_size > size - entry.offset) {
      return Corrupt("section " + std::to_string(entry.id) +
                     " extends past end of file");
    }
  }
  for (size_t i = 0; i < raw.table.size(); ++i) {
    for (size_t j = i + 1; j < raw.table.size(); ++j) {
      if (raw.table[i].id == raw.table[j].id) {
        return Corrupt("duplicate section id " +
                       std::to_string(raw.table[i].id));
      }
    }
  }
  return raw;
}

/// Typed view of a section payload. `expected_count` < 0 means any
/// element count; a missing section is an error unless `required` is
/// false (then an empty span is returned).
template <typename T>
Result<std::span<const T>> TypedSection(const Raw& raw, SectionId id,
                                        bool required,
                                        int64_t expected_count = -1) {
  const SectionEntry* entry = raw.Find(id);
  if (entry == nullptr) {
    if (required) {
      return Corrupt("missing section " +
                     std::to_string(static_cast<uint32_t>(id)));
    }
    return std::span<const T>{};
  }
  if (entry->byte_size % sizeof(T) != 0) {
    return Corrupt("section " + std::to_string(entry->id) + " size " +
                   std::to_string(entry->byte_size) +
                   " is not a multiple of the element size");
  }
  const size_t count = entry->byte_size / sizeof(T);
  if (expected_count >= 0 && count != static_cast<size_t>(expected_count)) {
    return Corrupt("section " + std::to_string(entry->id) + " holds " +
                   std::to_string(count) + " elements, expected " +
                   std::to_string(expected_count));
  }
  if (count == 0) return std::span<const T>{};
  // 64-byte-aligned offset off a page-aligned (or max_align_t-aligned
  // fallback) base satisfies every element type's alignment.
  return std::span<const T>(
      reinterpret_cast<const T*>(raw.file->data() + entry->offset), count);
}

/// Fixed-size record section, copied out by value.
template <typename T>
Result<T> RecordSection(const Raw& raw, SectionId id) {
  ENSEMFDET_ASSIGN_OR_RETURN(
      std::span<const std::byte> bytes,
      TypedSection<std::byte>(raw, id, /*required=*/true,
                              static_cast<int64_t>(sizeof(T))));
  T record;
  std::memcpy(&record, bytes.data(), sizeof(T));
  return record;
}

struct CsrSpans {
  std::span<const int64_t> user_offsets;
  std::span<const MerchantId> user_neighbors;
  std::span<const UserId> edge_users;
  std::span<const int64_t> merchant_offsets;
  std::span<const UserId> merchant_neighbors;
  std::span<const EdgeId> merchant_edge_ids;
  std::span<const double> weights;
  int64_t num_edges = 0;  ///< derived from the array sections
};

/// Locates the CSR sections and checks their sizes are mutually
/// consistent; `ValidateCsrStructure` then proves the invariants.
Result<CsrSpans> ParseCsrSections(const Raw& raw, int64_t num_users,
                                  int64_t num_merchants) {
  CsrSpans s;
  ENSEMFDET_ASSIGN_OR_RETURN(
      s.user_offsets, TypedSection<int64_t>(raw, SectionId::kUserOffsets,
                                            true, num_users + 1));
  ENSEMFDET_ASSIGN_OR_RETURN(
      s.user_neighbors,
      TypedSection<MerchantId>(raw, SectionId::kUserNeighbors, true));
  s.num_edges = static_cast<int64_t>(s.user_neighbors.size());
  ENSEMFDET_ASSIGN_OR_RETURN(
      s.edge_users,
      TypedSection<UserId>(raw, SectionId::kEdgeUsers, true, s.num_edges));
  ENSEMFDET_ASSIGN_OR_RETURN(
      s.merchant_offsets,
      TypedSection<int64_t>(raw, SectionId::kMerchantOffsets, true,
                            num_merchants + 1));
  ENSEMFDET_ASSIGN_OR_RETURN(
      s.merchant_neighbors,
      TypedSection<UserId>(raw, SectionId::kMerchantNeighbors, true,
                           s.num_edges));
  ENSEMFDET_ASSIGN_OR_RETURN(
      s.merchant_edge_ids,
      TypedSection<EdgeId>(raw, SectionId::kMerchantEdgeIds, true,
                           s.num_edges));
  if (raw.Find(SectionId::kWeights) != nullptr) {
    ENSEMFDET_ASSIGN_OR_RETURN(
        s.weights,
        TypedSection<double>(raw, SectionId::kWeights, true, s.num_edges));
  }
  return s;
}

/// Proves every CsrGraph layout invariant over untrusted arrays, O(|E|):
/// monotone offsets covering exactly num_edges, strictly ascending
/// in-range rows on both sides, edge_users consistent with the user rows,
/// merchant edge-id cross-references consistent with the user side, and
/// finite weights. A graph that passes is indistinguishable (to every
/// consumer) from one GraphBuilder built.
Status ValidateCsrStructure(const CsrSpans& s, int64_t num_users,
                            int64_t num_merchants) {
  if (s.user_offsets[0] != 0 ||
      s.user_offsets[static_cast<size_t>(num_users)] != s.num_edges) {
    return Corrupt("user offsets do not cover the edge array");
  }
  for (int64_t u = 0; u < num_users; ++u) {
    const int64_t begin = s.user_offsets[static_cast<size_t>(u)];
    const int64_t end = s.user_offsets[static_cast<size_t>(u) + 1];
    if (begin > end || end > s.num_edges) {
      return Corrupt("user offsets are not monotone");
    }
    for (int64_t k = begin; k < end; ++k) {
      const MerchantId v = s.user_neighbors[static_cast<size_t>(k)];
      if (v >= num_merchants) {
        return Corrupt("merchant id out of range in a user row");
      }
      if (k > begin &&
          s.user_neighbors[static_cast<size_t>(k) - 1] >= v) {
        return Corrupt("user row is not strictly ascending");
      }
      if (s.edge_users[static_cast<size_t>(k)] !=
          static_cast<UserId>(u)) {
        return Corrupt("edge_users disagrees with the user rows");
      }
    }
  }
  if (s.merchant_offsets[0] != 0 ||
      s.merchant_offsets[static_cast<size_t>(num_merchants)] !=
          s.num_edges) {
    return Corrupt("merchant offsets do not cover the edge array");
  }
  for (int64_t v = 0; v < num_merchants; ++v) {
    const int64_t begin = s.merchant_offsets[static_cast<size_t>(v)];
    const int64_t end = s.merchant_offsets[static_cast<size_t>(v) + 1];
    if (begin > end || end > s.num_edges) {
      return Corrupt("merchant offsets are not monotone");
    }
    for (int64_t k = begin; k < end; ++k) {
      const UserId u = s.merchant_neighbors[static_cast<size_t>(k)];
      if (u >= num_users) {
        return Corrupt("user id out of range in a merchant row");
      }
      if (k > begin &&
          s.merchant_neighbors[static_cast<size_t>(k) - 1] >= u) {
        return Corrupt("merchant row is not strictly ascending");
      }
      const EdgeId e = s.merchant_edge_ids[static_cast<size_t>(k)];
      if (e < 0 || e >= s.num_edges) {
        return Corrupt("merchant edge id out of range");
      }
      if (s.user_neighbors[static_cast<size_t>(e)] !=
              static_cast<MerchantId>(v) ||
          s.edge_users[static_cast<size_t>(e)] != u) {
        return Corrupt("merchant edge ids disagree with the user side");
      }
    }
  }
  for (double w : s.weights) {
    if (!std::isfinite(w)) return Corrupt("non-finite edge weight");
  }
  return Status::OK();
}

CsrGraph ViewFromSpans(const CsrSpans& s, int64_t num_users,
                       int64_t num_merchants,
                       std::shared_ptr<const void> backing) {
  return CsrGraph::WrapExternal(
      num_users, num_merchants, s.user_offsets, s.user_neighbors,
      s.edge_users, s.merchant_offsets, s.merchant_neighbors,
      s.merchant_edge_ids, s.weights, std::move(backing));
}

CsrGraph CopyFromSpans(const CsrSpans& s, int64_t num_users,
                       int64_t num_merchants) {
  return CsrGraph::FromRawArrays(
      num_users, num_merchants,
      {s.user_offsets.begin(), s.user_offsets.end()},
      {s.user_neighbors.begin(), s.user_neighbors.end()},
      {s.edge_users.begin(), s.edge_users.end()},
      {s.merchant_offsets.begin(), s.merchant_offsets.end()},
      {s.merchant_neighbors.begin(), s.merchant_neighbors.end()},
      {s.merchant_edge_ids.begin(), s.merchant_edge_ids.end()},
      {s.weights.begin(), s.weights.end()});
}

/// Shared prologue of both kCsrGraph readers: open, check the payload
/// kind, parse + cross-check + structurally validate the CSR sections.
/// Keeping it in one place keeps the two readers' corruption contracts
/// from diverging.
struct ValidatedCsr {
  Raw raw;
  CsrSpans spans;
};

Result<ValidatedCsr> OpenValidatedCsr(const std::string& path) {
  ValidatedCsr v;
  ENSEMFDET_ASSIGN_OR_RETURN(v.raw, OpenRaw(path));
  if (v.raw.header.payload_kind !=
      static_cast<uint32_t>(PayloadKind::kCsrGraph)) {
    return Status::InvalidArgument(
        path + " is not a CsrGraph snapshot (payload kind " +
        std::to_string(v.raw.header.payload_kind) + ")");
  }
  ENSEMFDET_ASSIGN_OR_RETURN(
      v.spans, ParseCsrSections(v.raw, v.raw.header.num_users,
                                v.raw.header.num_merchants));
  if (v.spans.num_edges != v.raw.header.num_edges) {
    return Corrupt("edge sections disagree with the header edge count");
  }
  ENSEMFDET_RETURN_NOT_OK(ValidateCsrStructure(
      v.spans, v.raw.header.num_users, v.raw.header.num_merchants));
  return v;
}

}  // namespace

Result<SnapshotInfo> ReadSnapshotInfo(const std::string& path) {
  ENSEMFDET_ASSIGN_OR_RETURN(Raw raw, OpenRaw(path));
  SnapshotInfo info;
  info.kind = static_cast<PayloadKind>(raw.header.payload_kind);
  info.schema_version = raw.header.schema_version;
  info.content_fingerprint = raw.header.content_fingerprint;
  info.num_users = raw.header.num_users;
  info.num_merchants = raw.header.num_merchants;
  info.num_edges = raw.header.num_edges;
  info.file_size = raw.header.file_size;
  return info;
}

Result<CsrGraph> LoadCsrGraphSnapshot(const std::string& path) {
  obs::TraceSpan span(Metrics().load_seconds, "snapshot_load");
  ENSEMFDET_ASSIGN_OR_RETURN(ValidatedCsr v, OpenValidatedCsr(path));
  Metrics().loads_total->Increment();
  Metrics().bytes_read_total->Increment(
      static_cast<int64_t>(v.raw.file->size()));
  CsrGraph graph = CopyFromSpans(v.spans, v.raw.header.num_users,
                                 v.raw.header.num_merchants);
  const uint64_t fingerprint = FingerprintGraph(graph);
  if (fingerprint != v.raw.header.content_fingerprint) {
    return Corrupt("content fingerprint mismatch (file claims " +
                   std::to_string(v.raw.header.content_fingerprint) +
                   ", payload hashes to " + std::to_string(fingerprint) +
                   ")");
  }
  return graph;
}

Result<MappedCsrGraph> MappedCsrGraph::Open(const std::string& path) {
  obs::TraceSpan span(Metrics().load_seconds, "snapshot_mmap_open");
  ENSEMFDET_ASSIGN_OR_RETURN(ValidatedCsr v, OpenValidatedCsr(path));
  Metrics().loads_total->Increment();
  Metrics().bytes_read_total->Increment(
      static_cast<int64_t>(v.raw.file->size()));
  MappedCsrGraph mapped;
  mapped.fingerprint_ = v.raw.header.content_fingerprint;
  mapped.file_bytes_ = v.raw.file->size();
  mapped.graph_ = ViewFromSpans(v.spans, v.raw.header.num_users,
                                v.raw.header.num_merchants, v.raw.file);
  return mapped;
}

Status MappedCsrGraph::VerifyFingerprint() const {
  obs::TraceSpan span(Metrics().verify_seconds, "snapshot_verify");
  Metrics().verifies_total->Increment();
  const uint64_t actual = FingerprintGraph(graph_);
  if (actual != fingerprint_) {
    return Corrupt("content fingerprint mismatch (file claims " +
                   std::to_string(fingerprint_) + ", payload hashes to " +
                   std::to_string(actual) + ")");
  }
  return Status::OK();
}

namespace {

Result<GraphVersionParts> ParseVersionParts(const Raw& raw) {
  GraphVersionParts parts;
  parts.num_users = raw.header.num_users;
  parts.num_merchants = raw.header.num_merchants;
  parts.content_fingerprint = raw.header.content_fingerprint;

  ENSEMFDET_ASSIGN_OR_RETURN(
      CsrSpans spans,
      ParseCsrSections(raw, parts.num_users, parts.num_merchants));
  ENSEMFDET_RETURN_NOT_OK(
      ValidateCsrStructure(spans, parts.num_users, parts.num_merchants));
  parts.base = CopyFromSpans(spans, parts.num_users, parts.num_merchants);

  ENSEMFDET_ASSIGN_OR_RETURN(
      VersionScalarsRecord scalars,
      RecordSection<VersionScalarsRecord>(raw, SectionId::kVersionScalars));
  parts.epoch = scalars.epoch;
  parts.compacted = (scalars.flags & kVersionFlagCompacted) != 0;

  ENSEMFDET_ASSIGN_OR_RETURN(
      std::span<const Edge> adds,
      TypedSection<Edge>(raw, SectionId::kDeltaAdds, true));
  parts.adds.assign(adds.begin(), adds.end());
  for (size_t i = 0; i < parts.adds.size(); ++i) {
    const Edge& e = parts.adds[i];
    if (e.user >= parts.num_users || e.merchant >= parts.num_merchants) {
      return Corrupt("delta add endpoint out of range");
    }
    if (i > 0) {
      const Edge& prev = parts.adds[i - 1];
      if (prev.user > e.user ||
          (prev.user == e.user && prev.merchant >= e.merchant)) {
        return Corrupt("delta adds are not in canonical order");
      }
    }
    // Disjointness from base: the add must not be a live base edge.
    std::span<const MerchantId> row = parts.base.user_neighbors(e.user);
    if (std::binary_search(row.begin(), row.end(), e.merchant)) {
      return Corrupt("delta add duplicates a base edge");
    }
  }

  ENSEMFDET_ASSIGN_OR_RETURN(
      std::span<const EdgeId> dead,
      TypedSection<EdgeId>(raw, SectionId::kDeltaDead, true));
  parts.dead.assign(dead.begin(), dead.end());
  for (size_t i = 0; i < parts.dead.size(); ++i) {
    if (parts.dead[i] < 0 || parts.dead[i] >= parts.base.num_edges()) {
      return Corrupt("dead edge id out of base range");
    }
    if (i > 0 && parts.dead[i - 1] >= parts.dead[i]) {
      return Corrupt("dead edge ids are not strictly ascending");
    }
  }

  const int64_t live = parts.base.num_edges() -
                       static_cast<int64_t>(parts.dead.size()) +
                       static_cast<int64_t>(parts.adds.size());
  if (live != raw.header.num_edges) {
    return Corrupt("base/delta live-edge count disagrees with the header");
  }

  ENSEMFDET_ASSIGN_OR_RETURN(
      std::span<const UserId> touched_users,
      TypedSection<UserId>(raw, SectionId::kTouchedUsers, false));
  parts.touched_users.assign(touched_users.begin(), touched_users.end());
  ENSEMFDET_ASSIGN_OR_RETURN(
      std::span<const MerchantId> touched_merchants,
      TypedSection<MerchantId>(raw, SectionId::kTouchedMerchants, false));
  parts.touched_merchants.assign(touched_merchants.begin(),
                                 touched_merchants.end());
  for (size_t i = 0; i < parts.touched_users.size(); ++i) {
    if (parts.touched_users[i] >= parts.num_users ||
        (i > 0 && parts.touched_users[i - 1] >= parts.touched_users[i])) {
      return Corrupt("touched users are out of range or unsorted");
    }
  }
  for (size_t i = 0; i < parts.touched_merchants.size(); ++i) {
    if (parts.touched_merchants[i] >= parts.num_merchants ||
        (i > 0 &&
         parts.touched_merchants[i - 1] >= parts.touched_merchants[i])) {
      return Corrupt("touched merchants are out of range or unsorted");
    }
  }
  return parts;
}

}  // namespace

Result<GraphVersionParts> ReadGraphVersionSnapshot(
    const std::string& path) {
  ENSEMFDET_ASSIGN_OR_RETURN(Raw raw, OpenRaw(path));
  if (raw.header.payload_kind !=
          static_cast<uint32_t>(PayloadKind::kGraphVersion) &&
      raw.header.payload_kind !=
          static_cast<uint32_t>(PayloadKind::kStoreCheckpoint)) {
    return Status::InvalidArgument(
        path + " does not hold a GraphVersion (payload kind " +
        std::to_string(raw.header.payload_kind) + ")");
  }
  return ParseVersionParts(raw);
}

Result<StoreCheckpointParts> ReadStoreCheckpoint(const std::string& path) {
  ENSEMFDET_ASSIGN_OR_RETURN(Raw raw, OpenRaw(path));
  if (raw.header.payload_kind !=
      static_cast<uint32_t>(PayloadKind::kStoreCheckpoint)) {
    return Status::InvalidArgument(
        path + " is not a store checkpoint (payload kind " +
        std::to_string(raw.header.payload_kind) + ")");
  }
  StoreCheckpointParts parts;
  ENSEMFDET_ASSIGN_OR_RETURN(parts.version, ParseVersionParts(raw));
  ENSEMFDET_ASSIGN_OR_RETURN(
      parts.state, RecordSection<StoreStateRecord>(raw,
                                                   SectionId::kStoreState));
  if (parts.state.cfg_num_users != raw.header.num_users ||
      parts.state.cfg_num_merchants != raw.header.num_merchants) {
    return Corrupt("store config universes disagree with the header");
  }
  if (parts.state.cfg_num_users < 1 || parts.state.cfg_num_merchants < 1 ||
      !(parts.state.cfg_compaction_factor > 0.0) ||
      parts.state.cfg_min_compaction_delta < 1) {
    return Corrupt("store config is invalid");
  }

  ENSEMFDET_ASSIGN_OR_RETURN(
      std::span<const SnapshotTransaction> window,
      TypedSection<SnapshotTransaction>(raw, SectionId::kWindowEvents,
                                        true));
  parts.window.assign(window.begin(), window.end());
  for (size_t i = 0; i < parts.window.size(); ++i) {
    const SnapshotTransaction& tx = parts.window[i];
    if (tx.user >= static_cast<uint64_t>(raw.header.num_users) ||
        tx.merchant >= static_cast<uint64_t>(raw.header.num_merchants)) {
      return Corrupt("window event endpoint out of range");
    }
    if (i > 0 && parts.window[i - 1].timestamp > tx.timestamp) {
      return Corrupt("window events are not in timestamp order");
    }
  }
  if (!parts.window.empty() &&
      parts.window.back().timestamp > parts.state.newest_timestamp) {
    return Corrupt("newest timestamp is older than the window");
  }

  if (raw.Find(SectionId::kDetectorClock) != nullptr) {
    ENSEMFDET_ASSIGN_OR_RETURN(
        parts.clock,
        RecordSection<DetectorClockRecord>(raw, SectionId::kDetectorClock));
    parts.has_clock = true;
    ENSEMFDET_ASSIGN_OR_RETURN(
        std::span<const ReorderEventRecord> reorder,
        TypedSection<ReorderEventRecord>(raw, SectionId::kReorderEvents,
                                         false));
    parts.reorder.assign(reorder.begin(), reorder.end());
    for (const ReorderEventRecord& event : parts.reorder) {
      if (event.user >= static_cast<uint64_t>(raw.header.num_users) ||
          event.merchant >=
              static_cast<uint64_t>(raw.header.num_merchants)) {
        return Corrupt("reorder event endpoint out of range");
      }
      if (event.seq >= parts.clock.next_seq) {
        return Corrupt("reorder event sequence exceeds the clock");
      }
    }
  }

  if (raw.Find(SectionId::kWalPosition) != nullptr) {
    ENSEMFDET_ASSIGN_OR_RETURN(
        parts.wal_position,
        RecordSection<WalPositionRecord>(raw, SectionId::kWalPosition));
    parts.has_wal_position = true;
  }
  return parts;
}

}  // namespace storage
}  // namespace ensemfdet
