// The .efg snapshot format's contracts (DESIGN.md §"Snapshot format"):
// exact round-trips through the mapped reader, zero-copy view lifetime rules,
// bit-exact detection off a mapped snapshot, and — the part the sanitizer
// CI jobs exist to prove — that corrupt, truncated, skewed, or tampered
// files fail with a clean Status, never UB.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "datagen/presets.h"
#include "ensemble/ensemfdet.h"
#include "graph/fingerprint.h"
#include "graph/graph_builder.h"
#include "storage/snapshot_format.h"
#include "storage/snapshot_reader.h"
#include "storage/snapshot_writer.h"

namespace ensemfdet {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() /
          ("ensemfdet_storage_test_" + name))
      .string();
}

CsrGraph RandomGraph(int64_t users, int64_t merchants, int64_t edges,
                     uint64_t seed, bool weighted) {
  GraphBuilder b(users, merchants);
  Rng rng(seed);
  for (int64_t i = 0; i < edges; ++i) {
    const UserId u =
        static_cast<UserId>(rng.NextBounded(static_cast<uint64_t>(users)));
    const MerchantId v = static_cast<MerchantId>(
        rng.NextBounded(static_cast<uint64_t>(merchants)));
    b.AddEdge(u, v, weighted ? 1.0 + rng.NextDouble() : 1.0);
  }
  return b.Build(DuplicatePolicy::kKeepFirst).ValueOrDie();
}

void ExpectCsrEqual(const CsrGraph& a, const CsrGraph& b) {
  ASSERT_EQ(a.num_users(), b.num_users());
  ASSERT_EQ(a.num_merchants(), b.num_merchants());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  ASSERT_EQ(a.has_weights(), b.has_weights());
  for (EdgeId e = 0; e < a.num_edges(); ++e) {
    EXPECT_EQ(a.edge_user(e), b.edge_user(e));
    EXPECT_EQ(a.edge_merchant(e), b.edge_merchant(e));
    EXPECT_EQ(a.edge_weight(e), b.edge_weight(e));
  }
  for (MerchantId v = 0; v < a.num_merchants(); ++v) {
    ASSERT_EQ(a.merchant_degree(v), b.merchant_degree(v));
    auto ia = a.merchant_edge_ids(v);
    auto ib = b.merchant_edge_ids(v);
    for (size_t k = 0; k < ia.size(); ++k) EXPECT_EQ(ia[k], ib[k]);
  }
  EXPECT_EQ(FingerprintGraph(a), FingerprintGraph(b));
}

std::vector<char> ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void WriteAll(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// File offset of a section's payload (follows the on-disk table).
uint64_t SectionOffset(const std::vector<char>& bytes,
                       storage::SectionId id) {
  storage::SnapshotHeader header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  for (uint32_t i = 0; i < header.section_count; ++i) {
    storage::SectionEntry entry;
    std::memcpy(&entry,
                bytes.data() + sizeof(header) + i * sizeof(entry),
                sizeof(entry));
    if (entry.id == static_cast<uint32_t>(id)) return entry.offset;
  }
  ADD_FAILURE() << "section not found";
  return 0;
}

TEST(SnapshotRoundTrip, MappedReaderReproducesTheGraph) {
  for (bool weighted : {false, true}) {
    const CsrGraph csr = RandomGraph(60, 40, 300, 7, weighted);
    const std::string path = TempPath("roundtrip.efg");
    ASSERT_TRUE(storage::WriteCsrGraphSnapshot(csr, path).ok());

    auto mapped = storage::MappedCsrGraph::Open(path);
    ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
    EXPECT_TRUE(mapped->graph().is_view());
    EXPECT_TRUE(mapped->VerifyFingerprint().ok());
    EXPECT_EQ(mapped->fingerprint(), FingerprintGraph(csr));
    ExpectCsrEqual(csr, mapped->graph());
    EXPECT_EQ(FingerprintGraph(mapped->graph()), FingerprintGraph(csr));
    std::filesystem::remove(path);
  }
}

TEST(SnapshotRoundTrip, HeaderProbeReportsShape) {
  const CsrGraph csr = RandomGraph(9, 5, 20, 3, false);
  const std::string path = TempPath("probe.efg");
  ASSERT_TRUE(storage::WriteCsrGraphSnapshot(csr, path).ok());
  auto info = storage::ReadSnapshotInfo(path);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->kind, storage::PayloadKind::kCsrGraph);
  EXPECT_EQ(info->num_users, 9);
  EXPECT_EQ(info->num_merchants, 5);
  EXPECT_EQ(info->num_edges, csr.num_edges());
  EXPECT_EQ(info->content_fingerprint, FingerprintGraph(csr));
  std::filesystem::remove(path);
}

TEST(SnapshotRoundTrip, ZeroEdgeAndZeroNodeGraphs) {
  // Isolated nodes, no edges.
  {
    const CsrGraph csr = GraphBuilder(17, 13).Build().ValueOrDie();
    const std::string path = TempPath("zero_edges.efg");
    ASSERT_TRUE(storage::WriteCsrGraphSnapshot(csr, path).ok());
    auto mapped = storage::MappedCsrGraph::Open(path);
    ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
    EXPECT_EQ(mapped->graph().num_users(), 17);
    EXPECT_EQ(mapped->graph().num_edges(), 0);
    EXPECT_TRUE(mapped->VerifyFingerprint().ok());
    EXPECT_EQ(FingerprintGraph(mapped->graph()), FingerprintGraph(csr));
    std::filesystem::remove(path);
  }
  // A fully empty graph (0 x 0).
  {
    const CsrGraph csr;
    const std::string path = TempPath("zero_nodes.efg");
    ASSERT_TRUE(storage::WriteCsrGraphSnapshot(csr, path).ok());
    auto mapped = storage::MappedCsrGraph::Open(path);
    ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
    EXPECT_TRUE(mapped->graph().empty());
    EXPECT_EQ(mapped->graph().num_nodes(), 0);
    EXPECT_TRUE(mapped->VerifyFingerprint().ok());
    std::filesystem::remove(path);
  }
}

TEST(SnapshotRoundTrip, ViewOutlivesTheMappedReader) {
  const CsrGraph csr = RandomGraph(30, 20, 120, 11, true);
  const std::string path = TempPath("lifetime.efg");
  ASSERT_TRUE(storage::WriteCsrGraphSnapshot(csr, path).ok());
  std::shared_ptr<const CsrGraph> held;
  {
    auto mapped = storage::MappedCsrGraph::Open(path);
    ASSERT_TRUE(mapped.ok());
    held = mapped->shared();
  }  // MappedCsrGraph destroyed; the view's backing keeps the mapping
  EXPECT_TRUE(held->is_view());
  ExpectCsrEqual(csr, *held);
  // Copies of a view are O(1) and share the same backing.
  const CsrGraph copy = *held;
  held.reset();
  ExpectCsrEqual(csr, copy);
  std::filesystem::remove(path);
}

// --------------------------------------------------------------------------
// Corruption: every failure mode is a Status, never UB (the ASan+UBSan CI
// job runs these tests).
// --------------------------------------------------------------------------

class SnapshotCorruption : public ::testing::Test {
 protected:
  void SetUp() override {
    csr_ = RandomGraph(40, 25, 180, 5, true);
    path_ = TempPath("corrupt.efg");
    ASSERT_TRUE(storage::WriteCsrGraphSnapshot(csr_, path_).ok());
    bytes_ = ReadAll(path_);
    ASSERT_GT(bytes_.size(), sizeof(storage::SnapshotHeader));
  }
  void TearDown() override { std::filesystem::remove(path_); }

  /// The reader must reject the current file contents with
  /// `expected_code`: at Open, or — when the structure still parses — at
  /// the fingerprint gate.
  void ExpectRejected(StatusCode expected_code) {
    auto mapped = storage::MappedCsrGraph::Open(path_);
    const Status status =
        mapped.ok() ? mapped->VerifyFingerprint() : mapped.status();
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), expected_code) << status.ToString();
  }

  CsrGraph csr_;
  std::string path_;
  std::vector<char> bytes_;
};

TEST_F(SnapshotCorruption, MissingFile) {
  auto result = storage::MappedCsrGraph::Open(TempPath("does_not_exist"));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIOError);
}

TEST_F(SnapshotCorruption, WrongMagic) {
  bytes_[0] ^= 0x5a;
  WriteAll(path_, bytes_);
  ExpectRejected(StatusCode::kIOError);
}

TEST_F(SnapshotCorruption, NotASnapshotAtAll) {
  WriteAll(path_, {'1', '\t', '2', '\n'});
  ExpectRejected(StatusCode::kIOError);
}

TEST_F(SnapshotCorruption, SchemaVersionSkew) {
  storage::SnapshotHeader header;
  std::memcpy(&header, bytes_.data(), sizeof(header));
  header.schema_version = storage::kSchemaVersion + 1;
  std::memcpy(bytes_.data(), &header, sizeof(header));
  WriteAll(path_, bytes_);
  ExpectRejected(StatusCode::kFailedPrecondition);
}

TEST_F(SnapshotCorruption, TruncationAtEveryLayer) {
  // Inside the header, inside the section table, inside a payload, and
  // one byte short of complete.
  for (size_t keep :
       {sizeof(storage::SnapshotHeader) / 2,
        sizeof(storage::SnapshotHeader) + 8, bytes_.size() / 2,
        bytes_.size() - 1}) {
    std::vector<char> truncated(bytes_.begin(),
                                bytes_.begin() + static_cast<long>(keep));
    WriteAll(path_, truncated);
    ExpectRejected(StatusCode::kIOError);
  }
}

TEST_F(SnapshotCorruption, ImplausibleNodeCountsRejected) {
  // A crafted header with num_users near INT64_MAX must be rejected up
  // front — count arithmetic (`num_users + 1`) and offset indexing would
  // otherwise overflow / read out of bounds.
  for (int64_t count :
       {std::numeric_limits<int64_t>::max(),
        std::numeric_limits<int64_t>::max() - 1,
        static_cast<int64_t>(bytes_.size())}) {
    std::vector<char> patched = bytes_;
    storage::SnapshotHeader header;
    std::memcpy(&header, patched.data(), sizeof(header));
    header.num_users = count;
    std::memcpy(patched.data(), &header, sizeof(header));
    WriteAll(path_, patched);
    ExpectRejected(StatusCode::kIOError);
  }
}

TEST_F(SnapshotCorruption, SectionPastEndOfFile) {
  // Point the first section beyond the file (keep header.file_size
  // honest so only the section bound trips).
  storage::SectionEntry entry;
  char* table = bytes_.data() + sizeof(storage::SnapshotHeader);
  std::memcpy(&entry, table, sizeof(entry));
  entry.offset = (bytes_.size() + 63) & ~uint64_t{63};
  std::memcpy(table, &entry, sizeof(entry));
  WriteAll(path_, bytes_);
  ExpectRejected(StatusCode::kIOError);
}

TEST_F(SnapshotCorruption, OutOfRangeNeighborId) {
  // A merchant id >= num_merchants in the user rows: structural
  // validation must reject it before any consumer can index with it.
  const uint64_t off =
      SectionOffset(bytes_, storage::SectionId::kUserNeighbors);
  const uint32_t bogus = 1u << 30;
  std::memcpy(bytes_.data() + off, &bogus, sizeof(bogus));
  WriteAll(path_, bytes_);
  auto mapped = storage::MappedCsrGraph::Open(path_);
  ASSERT_FALSE(mapped.ok());
  EXPECT_EQ(mapped.status().code(), StatusCode::kIOError);
}

TEST_F(SnapshotCorruption, InconsistentMerchantEdgeIds) {
  // Swap two merchant edge-id slots: rows stay sorted, but the
  // cross-reference to the user side breaks.
  const uint64_t off =
      SectionOffset(bytes_, storage::SectionId::kMerchantEdgeIds);
  int64_t a, b;
  std::memcpy(&a, bytes_.data() + off, sizeof(a));
  std::memcpy(&b, bytes_.data() + off + sizeof(a), sizeof(b));
  std::memcpy(bytes_.data() + off, &b, sizeof(b));
  std::memcpy(bytes_.data() + off + sizeof(a), &a, sizeof(a));
  WriteAll(path_, bytes_);
  auto mapped = storage::MappedCsrGraph::Open(path_);
  ASSERT_FALSE(mapped.ok());
  EXPECT_EQ(mapped.status().code(), StatusCode::kIOError);
}

TEST_F(SnapshotCorruption, FingerprintMismatchOnBitRot) {
  // Flip a weight: structurally still a valid graph (finite weight), so
  // only the fingerprint gate can catch it — and it must.
  const uint64_t off = SectionOffset(bytes_, storage::SectionId::kWeights);
  double w;
  std::memcpy(&w, bytes_.data() + off, sizeof(w));
  w += 0.5;
  std::memcpy(bytes_.data() + off, &w, sizeof(w));
  WriteAll(path_, bytes_);
  auto mapped = storage::MappedCsrGraph::Open(path_);
  ASSERT_TRUE(mapped.ok());  // structure is fine...
  const Status verified = mapped->VerifyFingerprint();  // ...content is not
  ASSERT_FALSE(verified.ok());
  EXPECT_EQ(verified.code(), StatusCode::kIOError);
  EXPECT_NE(verified.message().find("fingerprint"), std::string::npos);
}

TEST_F(SnapshotCorruption, NonFiniteWeightRejected) {
  const uint64_t off = SectionOffset(bytes_, storage::SectionId::kWeights);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::memcpy(bytes_.data() + off, &nan, sizeof(nan));
  WriteAll(path_, bytes_);
  ExpectRejected(StatusCode::kIOError);
}

// --------------------------------------------------------------------------
// Detection parity: a write -> mmap -> detect pipeline must be bit-exact
// against detection over the TSV-era in-memory graph, for every sampling
// method (the ISSUE-5 acceptance invariant).
// --------------------------------------------------------------------------

TEST(SnapshotDetectionParity, MmapLoadedDetectionIsBitExact) {
  auto dataset = GenerateJdPreset(JdPreset::kDataset1, 0.004, 7);
  ASSERT_TRUE(dataset.ok());
  const CsrGraph& csr = dataset->graph;
  const std::string path = TempPath("parity.efg");
  ASSERT_TRUE(storage::WriteCsrGraphSnapshot(csr, path).ok());
  auto mapped = storage::MappedCsrGraph::Open(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  ASSERT_TRUE(mapped->VerifyFingerprint().ok());

  for (SampleMethod method :
       {SampleMethod::kRandomEdge, SampleMethod::kOneSideUser,
        SampleMethod::kOneSideMerchant, SampleMethod::kTwoSide}) {
    EnsemFDetConfig config;
    config.method = method;
    config.num_samples = 8;
    config.ratio = 0.2;
    config.seed = 42;
    EnsemFDet detector(config);
    auto memory = detector.Run(csr, nullptr);
    ASSERT_TRUE(memory.ok());
    auto snapshot = detector.Run(mapped->graph(), nullptr);
    ASSERT_TRUE(snapshot.ok());

    ASSERT_EQ(memory->votes.all_user_votes().size(),
              snapshot->votes.all_user_votes().size());
    EXPECT_TRUE(std::equal(memory->votes.all_user_votes().begin(),
                           memory->votes.all_user_votes().end(),
                           snapshot->votes.all_user_votes().begin()))
        << "method " << static_cast<int>(method);
    EXPECT_TRUE(std::equal(memory->votes.all_merchant_votes().begin(),
                           memory->votes.all_merchant_votes().end(),
                           snapshot->votes.all_merchant_votes().begin()));
    EXPECT_EQ(memory->weighted_user_votes, snapshot->weighted_user_votes);
    EXPECT_EQ(memory->weighted_merchant_votes,
              snapshot->weighted_merchant_votes);
    ASSERT_EQ(memory->members.size(), snapshot->members.size());
    for (size_t i = 0; i < memory->members.size(); ++i) {
      EXPECT_EQ(memory->members[i].sample_edges,
                snapshot->members[i].sample_edges);
      EXPECT_EQ(memory->members[i].num_blocks,
                snapshot->members[i].num_blocks);
    }
  }
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace ensemfdet
