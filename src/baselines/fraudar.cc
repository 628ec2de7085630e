#include "baselines/fraudar.h"

#include <algorithm>

namespace ensemfdet {

std::vector<std::vector<UserId>> FraudarResult::UserBlocks() const {
  std::vector<std::vector<UserId>> out;
  out.reserve(blocks.size());
  for (const DetectedBlock& b : blocks) out.push_back(b.users);
  return out;
}

std::vector<UserId> FraudarResult::DetectedUsers() const {
  std::vector<UserId> out;
  for (const DetectedBlock& b : blocks) {
    out.insert(out.end(), b.users.begin(), b.users.end());
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

namespace {

FdetConfig FraudarFdetConfig(const FraudarConfig& config) {
  FdetConfig fdet;
  fdet.density = config.density;
  fdet.policy = TruncationPolicy::kFixedK;
  fdet.fixed_k = config.num_blocks;
  fdet.max_blocks = config.num_blocks;
  return fdet;
}

}  // namespace

Result<FraudarResult> RunFraudar(const CsrGraph& graph,
                                 const FraudarConfig& config) {
  ENSEMFDET_ASSIGN_OR_RETURN(FdetResult result,
                             RunFdet(graph, FraudarFdetConfig(config)));
  FraudarResult out;
  out.blocks = std::move(result.blocks);
  return out;
}

}  // namespace ensemfdet
