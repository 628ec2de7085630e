#include "graph/graph_io.h"

#include <cstdio>
#include <fstream>
#include <string>

#include <sys/resource.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "graph/graph_builder.h"

// Sanitizer runtimes reserve terabytes of address space up front, so an
// address-space cap cannot be applied under them.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define ENSEMFDET_TEST_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define ENSEMFDET_TEST_SANITIZED 1
#endif
#endif

namespace ensemfdet {
namespace {

class GraphIoTest : public ::testing::Test {
 protected:
  std::string TempPath(const std::string& name) {
    return testing::TempDir() + "/" + name;
  }

  void WriteFile(const std::string& path, const std::string& content) {
    std::ofstream out(path);
    out << content;
  }
};

TEST_F(GraphIoTest, RoundTripUnweighted) {
  GraphBuilder b(3, 4);
  b.AddEdge(0, 1);
  b.AddEdge(2, 3);
  b.AddEdge(1, 0);
  auto original = b.Build().ValueOrDie();

  const std::string path = TempPath("roundtrip.tsv");
  ASSERT_TRUE(SaveEdgeListTsv(original, path).ok());
  auto loaded = LoadEdgeListTsv(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->num_users(), 3);
  EXPECT_EQ(loaded->num_merchants(), 4);
  EXPECT_EQ(loaded->num_edges(), 3);
  EXPECT_TRUE(loaded->HasEdge(0, 1));
  EXPECT_TRUE(loaded->HasEdge(2, 3));
  EXPECT_TRUE(loaded->HasEdge(1, 0));
}

TEST_F(GraphIoTest, RoundTripWeighted) {
  GraphBuilder b(2, 2);
  b.AddEdge(0, 0, 2.5);
  b.AddEdge(1, 1, 0.125);
  auto original = b.Build(DuplicatePolicy::kSumWeights).ValueOrDie();
  ASSERT_TRUE(original.has_weights());

  const std::string path = TempPath("weighted.tsv");
  ASSERT_TRUE(SaveEdgeListTsv(original, path).ok());
  auto loaded = LoadEdgeListTsv(path).ValueOrDie();
  ASSERT_TRUE(loaded.has_weights());
  // Edge order is deterministic (sorted by user, merchant).
  EXPECT_DOUBLE_EQ(loaded.edge_weight(0), 2.5);
  EXPECT_DOUBLE_EQ(loaded.edge_weight(1), 0.125);
}

TEST_F(GraphIoTest, HeaderPreservesIsolatedNodes) {
  GraphBuilder b(10, 20);
  b.AddEdge(0, 0);
  auto original = b.Build().ValueOrDie();
  const std::string path = TempPath("isolated.tsv");
  ASSERT_TRUE(SaveEdgeListTsv(original, path).ok());
  auto loaded = LoadEdgeListTsv(path).ValueOrDie();
  EXPECT_EQ(loaded.num_users(), 10);
  EXPECT_EQ(loaded.num_merchants(), 20);
}

TEST_F(GraphIoTest, LoadWithoutHeaderInfersCounts) {
  const std::string path = TempPath("noheader.tsv");
  WriteFile(path, "0\t5\n3\t2\n");
  auto g = LoadEdgeListTsv(path).ValueOrDie();
  EXPECT_EQ(g.num_users(), 4);
  EXPECT_EQ(g.num_merchants(), 6);
  EXPECT_EQ(g.num_edges(), 2);
}

TEST_F(GraphIoTest, CommentsAndBlankLinesSkipped) {
  const std::string path = TempPath("comments.tsv");
  WriteFile(path, "# a comment\n\n0\t0\n# another\n1\t1\n\n");
  auto g = LoadEdgeListTsv(path).ValueOrDie();
  EXPECT_EQ(g.num_edges(), 2);
}

TEST_F(GraphIoTest, SpaceSeparatorAccepted) {
  const std::string path = TempPath("spaces.tsv");
  WriteFile(path, "0 1\n1 0\n");
  auto g = LoadEdgeListTsv(path).ValueOrDie();
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_TRUE(g.HasEdge(0, 1));
}

TEST_F(GraphIoTest, DuplicateEdgesSumWeights) {
  const std::string path = TempPath("dups.tsv");
  WriteFile(path, "0\t0\t1.0\n0\t0\t2.0\n");
  auto g = LoadEdgeListTsv(path).ValueOrDie();
  EXPECT_EQ(g.num_edges(), 1);
  EXPECT_DOUBLE_EQ(g.edge_weight(0), 3.0);
}

TEST_F(GraphIoTest, MalformedLineFails) {
  const std::string path = TempPath("bad.tsv");
  WriteFile(path, "0\tnot_a_number\n");
  auto g = LoadEdgeListTsv(path);
  ASSERT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kIOError);
  EXPECT_NE(g.status().message().find(":1:"), std::string::npos);
}

TEST_F(GraphIoTest, MissingFieldFails) {
  const std::string path = TempPath("short.tsv");
  WriteFile(path, "42\n");
  EXPECT_FALSE(LoadEdgeListTsv(path).ok());
}

TEST_F(GraphIoTest, BadWeightFails) {
  const std::string path = TempPath("badw.tsv");
  WriteFile(path, "0\t0\theavy\n");
  EXPECT_FALSE(LoadEdgeListTsv(path).ok());
}

TEST_F(GraphIoTest, EdgeExceedingDeclaredHeaderFails) {
  const std::string path = TempPath("exceed.tsv");
  WriteFile(path, "# bipartite 2 2\n5\t0\n");
  auto g = LoadEdgeListTsv(path);
  ASSERT_FALSE(g.ok());
  EXPECT_NE(g.status().message().find("exceed"), std::string::npos);
}

// Ids and declared counts beyond 32-bit ids are malformed input: an
// IOError naming the line, never a process abort.
TEST_F(GraphIoTest, IdBeyond32BitIdsFails) {
  const std::string path = TempPath("huge_id.tsv");
  WriteFile(path, "4294967295\t0\n");  // its count would be 2^32
  auto g = LoadEdgeListTsv(path);
  ASSERT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kIOError);
  EXPECT_NE(g.status().message().find(":1:"), std::string::npos);
}

TEST_F(GraphIoTest, DeclaredCountBeyond32BitIdsFails) {
  const std::string path = TempPath("huge_header.tsv");
  WriteFile(path, "# bipartite 4294967297 2\n0\t0\n");
  auto g = LoadEdgeListTsv(path);
  ASSERT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kIOError);
}

TEST_F(GraphIoTest, NegativeDeclaredCountFails) {
  const std::string path = TempPath("negative_header.tsv");
  WriteFile(path, "# bipartite -3 2\n");
  auto g = LoadEdgeListTsv(path);
  ASSERT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kIOError);
}

#if !defined(ENSEMFDET_TEST_SANITIZED)
// Loads `path` with the process address space capped at 2 GiB; exits 0
// iff the load failed with ResourceExhausted.
[[noreturn]] void LoadUnderAddressSpaceCap(const std::string& path) {
  constexpr rlim_t kCap = rlim_t{2} << 30;
  const rlimit cap{kCap, kCap};
  if (setrlimit(RLIMIT_AS, &cap) != 0) _exit(2);
  auto g = LoadEdgeListTsv(path);
  _exit(!g.ok() && g.status().code() == StatusCode::kResourceExhausted ? 0
                                                                       : 1);
}
#endif

// A header may declare up to 2^32 - 1 users, whose CSR offsets alone need
// ~32 GiB. With the allocation refused, the load must return a Status
// instead of dying in std::bad_alloc. The load runs in a forked child
// under a 2 GiB address-space cap, so the cap never reaches this process.
TEST_F(GraphIoTest, OversizedDeclaredNodeCountIsResourceExhausted) {
#if defined(ENSEMFDET_TEST_SANITIZED)
  GTEST_SKIP() << "address-space caps do not apply under sanitizers";
#else
  const std::string path = TempPath("oversized_header.tsv");
  WriteFile(path, "# bipartite 4294967295 1\n0\t0\n");
  EXPECT_EXIT(LoadUnderAddressSpaceCap(path), ::testing::ExitedWithCode(0),
              "");
#endif
}

TEST_F(GraphIoTest, MissingFileFails) {
  auto g = LoadEdgeListTsv(TempPath("does_not_exist.tsv"));
  ASSERT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kIOError);
}

TEST_F(GraphIoTest, SaveToUnwritablePathFails) {
  GraphBuilder b(1, 1);
  b.AddEdge(0, 0);
  auto g = b.Build().ValueOrDie();
  EXPECT_FALSE(SaveEdgeListTsv(g, "/nonexistent_dir_xyz/out.tsv").ok());
}

TEST_F(GraphIoTest, EmptyFileGivesEmptyGraph) {
  const std::string path = TempPath("empty.tsv");
  WriteFile(path, "");
  auto g = LoadEdgeListTsv(path).ValueOrDie();
  EXPECT_EQ(g.num_users(), 0);
  EXPECT_EQ(g.num_merchants(), 0);
  EXPECT_EQ(g.num_edges(), 0);
}

}  // namespace
}  // namespace ensemfdet
