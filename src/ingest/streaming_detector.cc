#include "ingest/streaming_detector.h"

#include <algorithm>
#include <string>
#include <unordered_set>
#include <utility>

#include "common/hash.h"
#include "common/logging.h"
#include "common/timer.h"
#include "detect/fdet.h"
#include "ensemble/vote_table.h"
#include "graph/graph_builder.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ensemfdet {

namespace {

// Stream-layer instruments. The reuse/clean-edge counters are bumped
// en bloc at the end of Detect() by exactly the amounts reported in
// StreamingDetectionStats, so a registry delta taken across one report
// equals that report's stats — stream-replay's narration reads the
// registry and still prints bit-identical lines.
struct StreamMetrics {
  obs::Counter* reports_total;
  obs::Counter* components_total;
  obs::Counter* components_eligible_total;
  obs::Counter* components_reused_total;
  obs::Counter* components_recomputed_total;
  obs::Counter* components_touched_total;
  obs::Counter* edges_total;
  obs::Counter* edges_recomputed_total;
  obs::Counter* cache_hits_total;
  obs::Counter* cache_misses_total;
  obs::Counter* cache_insertions_total;
  obs::Counter* cache_evictions_total;
  obs::Histogram* detect_seconds;
  obs::Histogram* component_fdet_seconds;
};

StreamMetrics& Metrics() {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  static StreamMetrics m{
      reg.GetCounter("ensemfdet_stream_reports_total"),
      reg.GetCounter("ensemfdet_stream_components_total"),
      reg.GetCounter("ensemfdet_stream_components_eligible_total"),
      reg.GetCounter("ensemfdet_stream_components_reused_total"),
      reg.GetCounter("ensemfdet_stream_components_recomputed_total"),
      reg.GetCounter("ensemfdet_stream_components_touched_total"),
      reg.GetCounter("ensemfdet_stream_edges_total"),
      reg.GetCounter("ensemfdet_stream_edges_recomputed_total"),
      reg.GetCounter("ensemfdet_stream_cache_hits_total"),
      reg.GetCounter("ensemfdet_stream_cache_misses_total"),
      reg.GetCounter("ensemfdet_stream_cache_insertions_total"),
      reg.GetCounter("ensemfdet_stream_cache_evictions_total"),
      reg.GetHistogram("ensemfdet_stream_detect_seconds"),
      reg.GetHistogram("ensemfdet_stream_component_fdet_seconds"),
  };
  return m;
}

// Content fingerprint of one connected component: its live edges in
// canonical order, *global* ids. Global ids make structurally isomorphic
// components at different node ids fingerprint differently — votes are
// replayed onto specific nodes, so identity matters.
uint64_t ComponentFingerprint(const std::vector<Edge>& edges) {
  static_assert(sizeof(Edge) == 2 * sizeof(uint32_t));
  uint64_t h = HashValue<uint64_t>(0x636f6d70u);  // domain tag "comp"
  h = HashCombine(h, HashValue(static_cast<int64_t>(edges.size())));
  h = HashCombine(h, Hash64(edges.data(), edges.size() * sizeof(Edge)));
  return h;
}

}  // namespace

Result<StreamingDetector> StreamingDetector::Create(
    StreamingDetectorConfig config) {
  if (config.ensemble.num_samples < 1) {
    return Status::InvalidArgument("ensemble num_samples must be >= 1");
  }
  if (!(config.ensemble.ratio > 0.0) || config.ensemble.ratio > 1.0) {
    return Status::InvalidArgument("ensemble ratio must be in (0, 1]");
  }
  if (config.min_component_edges < 1) {
    return Status::InvalidArgument("min_component_edges must be >= 1");
  }
  if (config.component_cache_capacity < 1) {
    return Status::InvalidArgument(
        "component_cache_capacity must be >= 1");
  }
  return StreamingDetector(std::move(config));
}

void StreamingDetector::ResetCache() {
  lru_.clear();
  cache_index_.clear();
}

std::shared_ptr<const StreamingDetector::ComponentEntry>
StreamingDetector::LookupCache(uint64_t fingerprint) {
  auto it = cache_index_.find(fingerprint);
  if (it == cache_index_.end()) {
    ++cache_stats_.misses;
    Metrics().cache_misses_total->Increment();
    return nullptr;
  }
  ++cache_stats_.hits;
  Metrics().cache_hits_total->Increment();
  lru_.splice(lru_.begin(), lru_, it->second);  // refresh
  return it->second->entry;
}

void StreamingDetector::InsertCache(
    uint64_t fingerprint, std::shared_ptr<const ComponentEntry> entry) {
  auto it = cache_index_.find(fingerprint);
  if (it != cache_index_.end()) {
    it->second->entry = std::move(entry);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.push_front({fingerprint, std::move(entry)});
  cache_index_[fingerprint] = lru_.begin();
  ++cache_stats_.insertions;
  Metrics().cache_insertions_total->Increment();
  while (lru_.size() > config_.component_cache_capacity) {
    cache_index_.erase(lru_.back().fingerprint);
    lru_.pop_back();
    ++cache_stats_.evictions;
    Metrics().cache_evictions_total->Increment();
  }
}

Result<std::shared_ptr<const StreamingDetector::ComponentEntry>>
StreamingDetector::ComputeComponent(const std::vector<Edge>& edges,
                                    uint64_t fingerprint,
                                    ThreadPool* pool) const {
  // Dense local ids: index into the sorted global node lists. The edges
  // arrive in canonical (user, merchant) order, so the user list is
  // already sorted; the merchant list needs one sort.
  obs::TraceSpan span(Metrics().component_fdet_seconds, "component_fdet");
  std::vector<UserId> users;
  std::vector<MerchantId> merchants;
  users.reserve(edges.size());
  merchants.reserve(edges.size());
  for (const Edge& e : edges) {
    if (users.empty() || users.back() != e.user) users.push_back(e.user);
    merchants.push_back(e.merchant);
  }
  std::sort(merchants.begin(), merchants.end());
  merchants.erase(std::unique(merchants.begin(), merchants.end()),
                  merchants.end());

  GraphBuilder builder(static_cast<int64_t>(users.size()),
                       static_cast<int64_t>(merchants.size()));
  builder.Reserve(static_cast<int64_t>(edges.size()));
  for (const Edge& e : edges) {
    const auto lu = static_cast<UserId>(
        std::lower_bound(users.begin(), users.end(), e.user) -
        users.begin());
    const auto lv = static_cast<MerchantId>(
        std::lower_bound(merchants.begin(), merchants.end(), e.merchant) -
        merchants.begin());
    builder.AddEdge(lu, lv);
  }
  ENSEMFDET_ASSIGN_OR_RETURN(const CsrGraph csr,
                             builder.Build(DuplicatePolicy::kKeepFirst));

  // All randomness is content-derived: same component content + same base
  // seed → same member outputs, whenever/wherever computed. Exploration is
  // fixed-k per component; the elbow applies globally after the merge
  // (RunPartitionedFdet's rule).
  EnsemFDetConfig sub = config_.ensemble;
  sub.seed = HashCombine(config_.ensemble.seed, fingerprint);
  sub.fdet.policy = TruncationPolicy::kFixedK;
  sub.fdet.fixed_k = config_.ensemble.fdet.max_blocks;
  ENSEMFDET_ASSIGN_OR_RETURN(std::vector<EnsembleMemberBlocks> members,
                             EnsemFDet(sub).RunBlocks(csr, pool));

  // Translate block nodes to global ids; drop the (component-local) edge
  // lists — aggregation only consumes nodes and φ.
  for (EnsembleMemberBlocks& member : members) {
    for (DetectedBlock& block : member.blocks) {
      for (UserId& u : block.users) u = users[u];
      for (MerchantId& v : block.merchants) v = merchants[v];
      block.edges.clear();
      block.edges.shrink_to_fit();
    }
  }
  auto entry = std::make_shared<ComponentEntry>();
  entry->members = std::move(members);
  entry->num_edges = static_cast<int64_t>(edges.size());
  return std::shared_ptr<const ComponentEntry>(std::move(entry));
}

Result<StreamingReport> StreamingDetector::Detect(const GraphVersion& version,
                                                  ThreadPool* pool) {
  // Fresh trace per streamed report: each boundary detection gets its
  // own root (stream_detect), even when fired from inside a windowed
  // replay job — per-report latency attribution needs per-report trees.
  obs::ScopedTraceContext trace_root(obs::NewRootContext());
  obs::TraceSpan detect_span(Metrics().detect_seconds, "stream_detect");
  WallTimer total_timer;
  const int64_t num_users = version.num_users();
  const int64_t num_merchants = version.num_merchants();
  const int n = config_.ensemble.num_samples;

  // --- 1. Connected components over the merged base+delta view. Seeds are
  // visited in packed-node order (users first), so component ids are
  // ordered by smallest packed node id — a pure function of content, which
  // the tie-break of the global block merge below relies on.
  user_comp_.assign(static_cast<size_t>(num_users), -1);
  merchant_comp_.assign(static_cast<size_t>(num_merchants), -1);
  int32_t num_components = 0;
  std::vector<int64_t> stack;
  for (UserId u = 0; u < num_users; ++u) {
    if (user_comp_[u] != -1) continue;
    bool has_edge = false;
    version.ForEachUserNeighbor(u, [&has_edge](MerchantId) {
      has_edge = true;
    });
    if (!has_edge) continue;  // isolated in the live graph
    const int32_t c = num_components++;
    user_comp_[u] = c;
    stack.clear();
    stack.push_back(u);
    while (!stack.empty()) {
      const int64_t node = stack.back();
      stack.pop_back();
      if (node < num_users) {
        version.ForEachUserNeighbor(
            static_cast<UserId>(node), [&](MerchantId v) {
              if (merchant_comp_[v] == -1) {
                merchant_comp_[v] = c;
                stack.push_back(num_users + v);
              }
            });
      } else {
        version.ForEachMerchantNeighbor(
            static_cast<MerchantId>(node - num_users), [&](UserId uu) {
              if (user_comp_[uu] == -1) {
                user_comp_[uu] = c;
                stack.push_back(uu);
              }
            });
      }
    }
  }

  // --- 2. Partition the live edges by component; canonical global order
  // is preserved within each component.
  std::vector<std::vector<Edge>> comp_edges(
      static_cast<size_t>(num_components));
  version.ForEachEdge([&](UserId u, MerchantId v) {
    comp_edges[static_cast<size_t>(user_comp_[u])].push_back({u, v});
  });

  StreamingReport out;
  out.epoch = version.epoch();
  out.fingerprint = version.ContentFingerprint();
  out.stats.components_total = num_components;

  // Touched components (diagnostics): contain a dirty-frontier node.
  {
    std::unordered_set<int32_t> touched;
    for (UserId u : version.touched_users()) {
      if (user_comp_[u] != -1) touched.insert(user_comp_[u]);
    }
    for (MerchantId v : version.touched_merchants()) {
      if (merchant_comp_[v] != -1) touched.insert(merchant_comp_[v]);
    }
    out.stats.components_touched = static_cast<int64_t>(touched.size());
  }

  // --- 3. Resolve every eligible component: cache replay or recompute.
  std::vector<std::shared_ptr<const ComponentEntry>> entries(
      static_cast<size_t>(num_components));
  for (int32_t c = 0; c < num_components; ++c) {
    const std::vector<Edge>& edges = comp_edges[static_cast<size_t>(c)];
    out.stats.edges_total += static_cast<int64_t>(edges.size());
    if (static_cast<int64_t>(edges.size()) < config_.min_component_edges) {
      continue;  // too small to host a fraud group; votes nothing
    }
    ++out.stats.components_eligible;
    const uint64_t fp = ComponentFingerprint(edges);
    std::shared_ptr<const ComponentEntry> entry = LookupCache(fp);
    if (entry == nullptr) {
      ENSEMFDET_ASSIGN_OR_RETURN(entry, ComputeComponent(edges, fp, pool));
      InsertCache(fp, entry);
      ++out.stats.components_recomputed;
      out.stats.edges_recomputed += static_cast<int64_t>(edges.size());
    } else {
      ++out.stats.components_reused;
    }
    ENSEMFDET_CHECK(static_cast<int>(entry->members.size()) == n);
    entries[static_cast<size_t>(c)] = std::move(entry);
  }

  // --- 4. Aggregate per member index: merge every component's member-i
  // blocks (descending φ, ties stable by component order — the entries
  // vector is in component order), truncate once globally, vote the kept
  // blocks' nodes. Strict member-order accumulation keeps the report
  // bit-identical at any pool width, mirroring EnsemFDet::Run.
  EnsemFDetReport& report = out.report;
  report.num_samples = n;
  report.votes = VoteTable(num_users, num_merchants);
  report.weighted_user_votes.assign(static_cast<size_t>(num_users), 0.0);
  report.weighted_merchant_votes.assign(static_cast<size_t>(num_merchants),
                                        0.0);
  report.members.resize(static_cast<size_t>(n));

  std::vector<double> user_weight(static_cast<size_t>(num_users), 0.0);
  std::vector<double> merchant_weight(static_cast<size_t>(num_merchants),
                                      0.0);
  std::vector<uint32_t> user_seen(static_cast<size_t>(num_users), 0);
  std::vector<uint32_t> merchant_seen(static_cast<size_t>(num_merchants), 0);
  uint32_t epoch = 0;

  std::vector<const DetectedBlock*> merged;
  std::vector<double> merged_scores;
  std::vector<UserId> member_users;
  std::vector<MerchantId> member_merchants;

  for (int i = 0; i < n; ++i) {
    merged.clear();
    EnsemFDetReport::MemberStats agg;
    for (const auto& entry : entries) {
      if (entry == nullptr) continue;
      const EnsembleMemberBlocks& member =
          entry->members[static_cast<size_t>(i)];
      agg.sample_users += member.stats.sample_users;
      agg.sample_merchants += member.stats.sample_merchants;
      agg.sample_edges += member.stats.sample_edges;
      agg.seconds += member.stats.seconds;
      agg.arena_grow_events += member.stats.arena_grow_events;
      for (const DetectedBlock& block : member.blocks) {
        merged.push_back(&block);
      }
    }
    std::stable_sort(merged.begin(), merged.end(),
                     [](const DetectedBlock* a, const DetectedBlock* b) {
                       return a->score > b->score;
                     });
    merged_scores.clear();
    merged_scores.reserve(merged.size());
    for (const DetectedBlock* block : merged) {
      merged_scores.push_back(block->score);
    }
    int keep;
    if (config_.ensemble.fdet.policy == TruncationPolicy::kFixedK) {
      keep = std::min<int>(config_.ensemble.fdet.fixed_k,
                           static_cast<int>(merged.size()));
    } else {
      keep = AutoTruncationIndex(merged_scores);
    }
    agg.num_blocks = keep;
    report.members[static_cast<size_t>(i)] = agg;

    // Per-node weight: max φ over the kept blocks containing the node;
    // first touch also collects it (same epoch-stamp trick as the
    // ensemble hot loop, so the union needs no sort/unique pass).
    ++epoch;
    member_users.clear();
    member_merchants.clear();
    for (int k = 0; k < keep; ++k) {
      const DetectedBlock& block = *merged[static_cast<size_t>(k)];
      for (UserId u : block.users) {
        if (user_seen[u] != epoch) {
          user_seen[u] = epoch;
          user_weight[u] = block.score;
          member_users.push_back(u);
        } else {
          user_weight[u] = std::max(user_weight[u], block.score);
        }
      }
      for (MerchantId v : block.merchants) {
        if (merchant_seen[v] != epoch) {
          merchant_seen[v] = epoch;
          merchant_weight[v] = block.score;
          member_merchants.push_back(v);
        } else {
          merchant_weight[v] = std::max(merchant_weight[v], block.score);
        }
      }
    }
    report.votes.AddVotes(member_users, member_merchants);
    for (UserId u : member_users) {
      report.weighted_user_votes[u] += user_weight[u];
    }
    for (MerchantId v : member_merchants) {
      report.weighted_merchant_votes[v] += merchant_weight[v];
    }
  }
  report.total_seconds = total_timer.ElapsedSeconds();

  // Mirror the report's stats into the registry in one shot so a scrape
  // delta across this call reproduces them exactly (the narration
  // contract above).
  StreamMetrics& metrics = Metrics();
  metrics.reports_total->Increment();
  metrics.components_total->Increment(out.stats.components_total);
  metrics.components_eligible_total->Increment(out.stats.components_eligible);
  metrics.components_reused_total->Increment(out.stats.components_reused);
  metrics.components_recomputed_total->Increment(
      out.stats.components_recomputed);
  metrics.components_touched_total->Increment(out.stats.components_touched);
  metrics.edges_total->Increment(out.stats.edges_total);
  metrics.edges_recomputed_total->Increment(out.stats.edges_recomputed);
  return out;
}

}  // namespace ensemfdet
