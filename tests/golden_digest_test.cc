// Golden digests of every detector's output on the JD presets.
//
// Each field below is folded into one 64-bit FNV-1a digest over all
// inputs (dataset1/2/3 at a small scale x three generator seeds; every
// sampling method for the ensemble) and compared against a committed
// constant. Doubles are digested by their bit patterns, so any change to
// an output — a vote, a score, a block's edge list — changes its field's
// digest. The file uses only calls whose spelling is independent of the
// graph representation, so the same constants hold across refactors of
// the graph layer; a mismatch prints the new value in hex.
//
// Left out on purpose: member `seconds` and `arena_grow_events` (wall
// time and warm-arena state, not outputs).
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/fbox.h"
#include "baselines/fraudar.h"
#include "baselines/hits.h"
#include "baselines/spoken.h"
#include "common/thread_pool.h"
#include "datagen/presets.h"
#include "detect/fdet.h"
#include "ensemble/ensemfdet.h"
#include "graph/fingerprint.h"
#include "graph/kcore.h"

namespace ensemfdet {
namespace {

constexpr double kScale = 0.002;
constexpr uint64_t kSeeds[] = {3, 17, 101};

class Digest {
 public:
  void Bytes(const void* data, size_t len) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < len; ++i) {
      h_ = (h_ ^ p[i]) * 0x100000001b3ULL;
    }
  }
  void U64(uint64_t v) { Bytes(&v, sizeof(v)); }
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  void F64(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    U64(bits);
  }
  template <typename T>
  void Ints(const std::vector<T>& values) {
    U64(values.size());
    for (T v : values) I64(static_cast<int64_t>(v));
  }
  void Doubles(const std::vector<double>& values) {
    U64(values.size());
    for (double v : values) F64(v);
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

void DigestBlocks(const std::vector<DetectedBlock>& blocks, Digest* d) {
  d->U64(blocks.size());
  for (const DetectedBlock& b : blocks) {
    d->Ints(b.users);
    d->Ints(b.merchants);
    d->F64(b.score);
    d->Ints(b.edges);
  }
}

struct EnsembleCase {
  SampleMethod method;
  bool reweight;
};

constexpr EnsembleCase kEnsembleCases[] = {
    {SampleMethod::kRandomEdge, false},
    {SampleMethod::kRandomEdge, true},
    {SampleMethod::kOneSideUser, false},
    {SampleMethod::kOneSideMerchant, false},
    {SampleMethod::kTwoSide, false},
};

std::map<std::string, uint64_t> ComputeDigests() {
  std::map<std::string, Digest> d;
  ThreadPool pool(2);
  for (JdPreset preset : AllJdPresets()) {
    for (uint64_t seed : kSeeds) {
      auto data = GenerateJdPreset(preset, kScale, seed);
      EXPECT_TRUE(data.ok()) << data.status().ToString();
      if (!data.ok()) continue;
      const auto& graph = data->graph;

      d["fingerprint"].U64(FingerprintGraph(graph));

      KCoreDecomposition cores = ComputeKCores(graph);
      d["kcore"].Ints(cores.user_core);
      d["kcore"].Ints(cores.merchant_core);
      d["kcore"].I64(cores.degeneracy);

      auto fdet = RunFdet(graph, FdetConfig{});
      EXPECT_TRUE(fdet.ok());
      if (fdet.ok()) {
        EXPECT_FALSE(fdet->blocks.empty());
        DigestBlocks(fdet->blocks, &d["fdet_blocks"]);
        d["fdet_all_scores"].Doubles(fdet->all_scores);
      }

      FraudarConfig fraudar_config;
      fraudar_config.num_blocks = 10;
      auto fraudar = RunFraudar(graph, fraudar_config);
      EXPECT_TRUE(fraudar.ok());
      if (fraudar.ok()) DigestBlocks(fraudar->blocks, &d["fraudar_blocks"]);

      auto hits = RunHits(graph);
      EXPECT_TRUE(hits.ok());
      if (hits.ok()) d["hits_user_scores"].Doubles(hits->user_hub_scores);

      SpokenConfig spoken_config;
      spoken_config.num_components = 6;
      auto spoken = RunSpoken(graph, spoken_config);
      EXPECT_TRUE(spoken.ok());
      if (spoken.ok()) d["spoken_user_scores"].Doubles(spoken->user_scores);

      FboxConfig fbox_config;
      fbox_config.num_components = 6;
      auto fbox = RunFbox(graph, fbox_config);
      EXPECT_TRUE(fbox.ok());
      if (fbox.ok()) d["fbox_user_scores"].Doubles(fbox->user_scores);

      for (const EnsembleCase& c : kEnsembleCases) {
        EnsemFDetConfig config;
        config.method = c.method;
        config.reweight_edges = c.reweight;
        config.num_samples = 8;
        config.ratio = 0.3;
        config.seed = seed;
        auto report = EnsemFDet(config).Run(graph, &pool);
        EXPECT_TRUE(report.ok()) << report.status().ToString();
        if (!report.ok()) continue;
        EXPECT_GT(report->votes.max_user_votes(), 0);
        const auto user_votes = report->votes.all_user_votes();
        const auto merchant_votes = report->votes.all_merchant_votes();
        d["votes"].Ints(std::vector<int32_t>(user_votes.begin(),
                                             user_votes.end()));
        d["votes"].Ints(std::vector<int32_t>(merchant_votes.begin(),
                                             merchant_votes.end()));
        d["weighted_user_votes"].Doubles(report->weighted_user_votes);
        d["weighted_merchant_votes"].Doubles(
            report->weighted_merchant_votes);
        Digest& members = d["member_stats"];
        members.U64(report->members.size());
        for (const auto& m : report->members) {
          members.I64(m.sample_users);
          members.I64(m.sample_merchants);
          members.I64(m.sample_edges);
          members.I64(m.num_blocks);
        }
      }
    }
  }
  std::map<std::string, uint64_t> out;
  for (const auto& [field, digest] : d) out[field] = digest.value();
  return out;
}

std::string Hex(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, v);
  return buf;
}

TEST(GoldenDigestTest, OutputsMatchCommittedDigests) {
  const std::map<std::string, uint64_t> kGolden = {
      {"fbox_user_scores", 0xd5966674539340baULL},
      {"fdet_all_scores", 0xadd01eafb7edc036ULL},
      {"fdet_blocks", 0x1d491f74847b184bULL},
      {"fingerprint", 0x2edca62198c680b7ULL},
      {"fraudar_blocks", 0xe293c063d7232664ULL},
      {"hits_user_scores", 0x736652e742b4aa58ULL},
      {"kcore", 0x1456709621984f72ULL},
      {"member_stats", 0xbba0f34e0f6ae6e3ULL},
      {"spoken_user_scores", 0x1751d706893b96edULL},
      {"votes", 0x44a78f8637b82974ULL},
      {"weighted_merchant_votes", 0x95f232ae9b5245f8ULL},
      {"weighted_user_votes", 0x579c240d317259c3ULL},
  };
  const std::map<std::string, uint64_t> actual = ComputeDigests();
  for (const auto& [field, value] : actual) {
    auto it = kGolden.find(field);
    if (it == kGolden.end()) {
      ADD_FAILURE() << "no golden digest for field " << field << " ("
                    << Hex(value) << ")";
      continue;
    }
    EXPECT_EQ(Hex(it->second), Hex(value)) << "field " << field;
  }
  EXPECT_EQ(kGolden.size(), actual.size());
}

}  // namespace
}  // namespace ensemfdet
