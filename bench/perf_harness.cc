#include "perf_harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <numeric>
#include <optional>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "datagen/presets.h"
#include "datagen/transaction_stream.h"
#include "detect/csr_peeler.h"
#include "detect/fdet.h"
#include "detect/greedy_peeler.h"
#include "detect/simd/isa.h"
#include "detect/simd/kernels.h"
#include "ensemble/ensemfdet.h"
#include "graph/csr_graph.h"
#include "graph/fingerprint.h"
#include "graph/graph_io.h"
#include "graph/subgraph.h"
#include "ingest/dynamic_graph_store.h"
#include "ingest/streaming_detector.h"
#include "ingest/wal_codec.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/snapshot_reader.h"
#include "storage/snapshot_writer.h"
#include "storage/wal_reader.h"
#include "storage/wal_writer.h"

namespace ensemfdet {
namespace bench {

namespace {

// Workload constants — knobs bench-report never sets. Each is recorded
// in its document's `config` or `graph` block.

// Peeling bench: FDET block budget of the iterated-peeling rows.
constexpr int kPeelMaxBlocks = 12;

// Stream bench: a fragmented transaction day — sparse uniform background
// over large universes (many small components) plus several dense fraud
// bursts, streamed through a sliding window, with a small ensemble per
// detection.
constexpr int64_t kStreamUsers = 6000;
constexpr int64_t kStreamMerchants = 4000;
constexpr int64_t kStreamEdges = 5000;
constexpr int kStreamFraudGroups = 6;
constexpr int64_t kStreamHorizon = 86400;
constexpr int64_t kStreamBurstDuration = 2400;
constexpr int64_t kStreamWindow = 21600;
constexpr int64_t kStreamDetectionInterval = 600;
constexpr int64_t kStreamBatchEvents = 128;
constexpr int kStreamSamples = 8;
constexpr double kStreamRatio = 0.25;

// WAL bench: a synthetic batch stream, one WAL record per batch — exactly
// what a durable service session appends per IngestBatch ack — with a
// small segment size so rotation cost is in the number.
constexpr int64_t kWalBatches = 96;
constexpr int64_t kWalBatchEvents = 128;
constexpr int64_t kWalUsers = 6000;
constexpr int64_t kWalMerchants = 4000;
constexpr int64_t kWalGroupCommitRecords = 16;
constexpr uint64_t kWalSegmentBytes = 256 * 1024;

// Obs bench: the overhead budget check_bench.py enforces, and the minimum
// repeats — the gated quantity is a small difference between two
// timings, so the min needs extra samples to shake scheduler noise out.
constexpr double kObsBudgetFraction = 0.02;
constexpr int kObsMinRepeats = 12;

Status CheckOptions(const BenchOptions& options) {
  if (options.repeats < 1) {
    return Status::InvalidArgument("repeats must be >= 1");
  }
  return Status::OK();
}

// Repeats of the benches that run half as often as the peeling and
// storage benches.
int HalfRepeats(const BenchOptions& options) {
  return std::max(1, options.repeats / 2);
}

Timing Measure(const std::string& name, int repeats,
               const std::function<void()>& fn) {
  Timing t;
  t.name = name;
  t.repeats = repeats;
  double total = 0.0;
  for (int i = 0; i < repeats; ++i) {
    WallTimer timer;
    fn();
    const double s = timer.ElapsedSeconds();
    t.seconds_min = std::min(t.seconds_min, s);
    total += s;
  }
  t.seconds_mean = repeats > 0 ? total / repeats : 0.0;
  return t;
}

BenchFields GraphFields(const std::string& preset, double scale,
                        uint64_t seed, int64_t users, int64_t merchants,
                        int64_t edges) {
  return {{"preset", preset},       {"scale", scale},
          {"seed", seed},           {"users", users},
          {"merchants", merchants}, {"edges", edges}};
}

BenchFields DatasetGraphFields(const BenchOptions& options,
                               const CsrGraph& graph) {
  return GraphFields("dataset1", options.scale, options.seed,
                     graph.num_users(), graph.num_merchants(),
                     graph.num_edges());
}

// Times every dispatchable kernel at every ISA level this build+CPU can
// run, on a synthetic slot-aligned residual view (the PeelScratch view_*
// shape, ~30% dead slots). Deterministic arithmetic fill — no RNG — so
// two runs on one machine time identical data. One row per kernel and
// level: {kernel, isa, ns_per_element}.
std::vector<BenchFields> MeasureKernelRows(int repeats) {
  constexpr int64_t kN = 1 << 16;
  constexpr int kInnerIters = 16;
  constexpr int32_t kPackedBase = 1000;
  constexpr int32_t kNumMerchants = 64;
  std::vector<double> weight(kN);
  std::vector<int32_t> packed(kN);
  std::vector<uint8_t> alive(kN);
  std::vector<double> out(kN);
  std::vector<double> col_weight(kNumMerchants);
  for (int64_t i = 0; i < kN; ++i) {
    weight[static_cast<size_t>(i)] = 0.5 + static_cast<double>(i % 97) * 0.01;
    packed[static_cast<size_t>(i)] =
        kPackedBase + static_cast<int32_t>(i % kNumMerchants);
    alive[static_cast<size_t>(i)] = (i % 10) < 7 ? 1 : 0;
  }
  for (int32_t j = 0; j < kNumMerchants; ++j) {
    col_weight[static_cast<size_t>(j)] =
        0.25 + static_cast<double>(j) * 0.015;
  }

  // Fold every kernel's result into a sink the compiler can't prove dead.
  double sink = 0.0;
  std::vector<BenchFields> rows;
  for (simd::IsaLevel level :
       {simd::IsaLevel::kScalar, simd::IsaLevel::kAvx2,
        simd::IsaLevel::kAvx512}) {
    if (level > simd::DetectedIsaLevel()) continue;
    const simd::KernelTable& kern = simd::KernelsFor(level);
    if (kern.level != level) continue;  // build ceiling below this level
    const std::string isa = simd::IsaLevelName(level);
    const double denom = static_cast<double>(kInnerIters) * kN;

    Timing t = Measure("kernel_gather_" + isa, repeats, [&] {
      for (int it = 0; it < kInnerIters; ++it) {
        kern.gather_slot_mass(weight.data(), packed.data(), kPackedBase,
                              col_weight.data(), 0.75, kN, out.data());
      }
    });
    sink += out[kN - 1];
    rows.push_back({{"kernel", std::string("gather_slot_mass")},
                    {"isa", isa},
                    {"ns_per_element", t.seconds_min / denom * 1e9}});

    t = Measure("kernel_next_alive_" + isa, repeats, [&] {
      for (int it = 0; it < kInnerIters; ++it) {
        int64_t walked = 0;
        for (int64_t i = kern.next_alive(alive.data(), kN, 0); i < kN;
             i = kern.next_alive(alive.data(), kN, i + 1)) {
          walked += i;
        }
        sink += static_cast<double>(walked);
      }
    });
    rows.push_back({{"kernel", std::string("next_alive")},
                    {"isa", isa},
                    {"ns_per_element", t.seconds_min / denom * 1e9}});
  }
  // Publish the sink so none of the measured loops can be elided.
  static volatile double g_kernel_bench_sink;
  g_kernel_bench_sink = sink;
  (void)g_kernel_bench_sink;
  return rows;
}

bool SamePeel(const PeelResult& a, const PeelResult& b) {
  return a.users == b.users && a.merchants == b.merchants &&
         a.score == b.score;
}

// One whole-graph peel through the residual view — the peel every FDET
// iteration runs — with the block translated back to `graph`'s ids. Arena
// and view setup are part of the measured work, as for a one-shot peel.
PeelResult ViewPeelAllEdges(const CsrGraph& graph,
                            const DensityConfig& density) {
  PeelScratch scratch;
  CsrPeeler peeler(graph, &scratch);
  std::vector<EdgeId> all_edges(static_cast<size_t>(graph.num_edges()));
  std::iota(all_edges.begin(), all_edges.end(), EdgeId{0});
  peeler.SetResidualView(all_edges);
  std::fill_n(scratch.view_alive.begin(), all_edges.size(), uint8_t{1});
  std::fill_n(scratch.view_alive_m.begin(), all_edges.size(), uint8_t{1});
  PeelResult r = peeler.PeelAliveInView(density, /*weight_scale=*/1.0);
  for (UserId& u : r.users) u = scratch.member_users[u];
  for (MerchantId& v : r.merchants) v = scratch.member_merchants[v];
  return r;
}

bool SameFdet(const FdetResult& a, const FdetResult& b) {
  if (a.all_scores != b.all_scores ||
      a.truncation_index != b.truncation_index ||
      a.blocks.size() != b.blocks.size()) {
    return false;
  }
  for (size_t i = 0; i < a.blocks.size(); ++i) {
    if (a.blocks[i].users != b.blocks[i].users ||
        a.blocks[i].merchants != b.blocks[i].merchants ||
        a.blocks[i].score != b.blocks[i].score ||
        a.blocks[i].edges != b.blocks[i].edges) {
      return false;
    }
  }
  return true;
}

// Bit-exact ensemble report comparison, one flag per parity key the
// documents record: votes (and ensemble size), weighted votes, and the
// member structural stats (wall-clock and arena counters excluded).
struct ReportParity {
  bool votes = true;
  bool weighted = true;
  bool members = true;
  bool all() const { return votes && weighted && members; }
};

ReportParity CompareReports(const EnsemFDetReport& a,
                            const EnsemFDetReport& b) {
  ReportParity parity;
  const auto& au = a.votes.all_user_votes();
  const auto& bu = b.votes.all_user_votes();
  const auto& am = a.votes.all_merchant_votes();
  const auto& bm = b.votes.all_merchant_votes();
  parity.votes = a.num_samples == b.num_samples &&
                 std::equal(au.begin(), au.end(), bu.begin(), bu.end()) &&
                 std::equal(am.begin(), am.end(), bm.begin(), bm.end());
  parity.weighted = a.weighted_user_votes == b.weighted_user_votes &&
                    a.weighted_merchant_votes == b.weighted_merchant_votes;
  parity.members = a.members.size() == b.members.size();
  for (size_t i = 0; parity.members && i < a.members.size(); ++i) {
    parity.members =
        a.members[i].sample_users == b.members[i].sample_users &&
        a.members[i].sample_merchants == b.members[i].sample_merchants &&
        a.members[i].sample_edges == b.members[i].sample_edges &&
        a.members[i].num_blocks == b.members[i].num_blocks;
  }
  return parity;
}

}  // namespace

Result<BenchDocument> RunPeelingBench(const BenchOptions& options) {
  ENSEMFDET_RETURN_NOT_OK(CheckOptions(options));
  ENSEMFDET_ASSIGN_OR_RETURN(
      Dataset dataset,
      GenerateJdPreset(JdPreset::kDataset1, options.scale, options.seed));
  const CsrGraph& graph = dataset.graph;

  FdetConfig fdet_config;
  fdet_config.max_blocks = kPeelMaxBlocks;
  const DensityConfig density;

  // Untimed reference runs establish parity before anything is measured.
  // The seed peel runs on the compacted graph (isolated nodes dropped),
  // which is what the view peel's node set is; its ids map back through
  // the subgraph's ascending id maps.
  std::vector<EdgeId> all_edges(static_cast<size_t>(graph.num_edges()));
  std::iota(all_edges.begin(), all_edges.end(), EdgeId{0});
  const SubgraphView compact = SubgraphFromEdges(graph, all_edges);
  PeelResult adjacency_peel = PeelDensestBlock(compact.graph, density);
  for (UserId& u : adjacency_peel.users) u = compact.user_map[u];
  for (MerchantId& v : adjacency_peel.merchants) {
    v = compact.merchant_map[v];
  }
  const PeelResult csr_peel = ViewPeelAllEdges(graph, density);
  ENSEMFDET_ASSIGN_OR_RETURN(const FdetResult adjacency_fdet,
                             RunFdetReference(graph, fdet_config));
  ENSEMFDET_ASSIGN_OR_RETURN(const FdetResult csr_fdet,
                             RunFdet(graph, fdet_config));
  const bool peel_identical = SamePeel(adjacency_peel, csr_peel);
  const bool fdet_identical = SameFdet(adjacency_fdet, csr_fdet);
  if (!peel_identical || !fdet_identical) {
    return Status::Internal(
        "in-place peeler diverged from the seed peeler on the bench "
        "graph — refusing to emit BENCH_peeling.json");
  }

  BenchDocument doc;
  doc.bench = "peeling";
  doc.graph = DatasetGraphFields(options, graph);
  doc.config = {{"repeats", options.repeats}, {"max_blocks", kPeelMaxBlocks}};
  std::vector<Timing>& timings = doc.timings;
  timings.push_back(Measure("adjacency_single_peel", options.repeats, [&] {
    PeelResult r = PeelDensestBlock(compact.graph, density);
    (void)r;
  }));
  timings.push_back(Measure("csr_single_peel", options.repeats, [&] {
    PeelResult r = ViewPeelAllEdges(graph, density);
    (void)r;
  }));
  timings.push_back(Measure("adjacency_fdet", options.repeats, [&] {
    FdetResult r = RunFdetReference(graph, fdet_config).ValueOrDie();
    (void)r;
  }));
  timings.push_back(Measure("csr_fdet", options.repeats, [&] {
    FdetResult r = RunFdet(graph, fdet_config).ValueOrDie();
    (void)r;
  }));

  doc.sections = {
      {"speedup",
       {{"csr_single_peel_vs_adjacency",
         timings[0].seconds_min / timings[1].seconds_min},
        {"csr_fdet_vs_adjacency",
         timings[2].seconds_min / timings[3].seconds_min}}},
      {"parity",
       {{"single_peel_identical", peel_identical},
        {"fdet_identical", fdet_identical}}},
  };
  return doc;
}

Result<BenchDocument> RunStorageBench(const BenchOptions& options) {
  ENSEMFDET_RETURN_NOT_OK(CheckOptions(options));
  ENSEMFDET_ASSIGN_OR_RETURN(
      Dataset dataset,
      GenerateJdPreset(JdPreset::kDataset1, options.scale, options.seed));
  const CsrGraph& graph = dataset.graph;
  const uint64_t source_fingerprint = FingerprintGraph(graph);

  // Scratch files. Both loads are timed against the page cache warm (the
  // files were just written), which is the registry warm-start scenario
  // the snapshot format exists for; the TSV parse gets the same warmth.
  std::error_code ec;
  const std::filesystem::path dir = std::filesystem::temp_directory_path(ec);
  if (ec) return Status::IOError("no temp directory: " + ec.message());
  const std::string tsv_path =
      (dir / "ensemfdet_bench_storage.tsv").string();
  const std::string efg_path =
      (dir / "ensemfdet_bench_storage.efg").string();
  ENSEMFDET_RETURN_NOT_OK(SaveEdgeListTsv(graph, tsv_path));
  ENSEMFDET_RETURN_NOT_OK(storage::WriteCsrGraphSnapshot(graph, efg_path));
  const uint64_t tsv_bytes = std::filesystem::file_size(tsv_path, ec);
  const uint64_t efg_bytes = std::filesystem::file_size(efg_path, ec);

  // Untimed correctness gate: the reader must reproduce the writer's
  // fingerprint — a BENCH_storage.json is also a round-trip witness.
  ENSEMFDET_ASSIGN_OR_RETURN(storage::MappedCsrGraph mapped,
                             storage::MappedCsrGraph::Open(efg_path));
  ENSEMFDET_RETURN_NOT_OK(mapped.VerifyFingerprint());
  const bool fingerprints_match =
      mapped.fingerprint() == source_fingerprint &&
      FingerprintGraph(mapped.graph()) == source_fingerprint;
  if (!fingerprints_match) {
    return Status::Internal(
        "snapshot reader did not reproduce the writer's content "
        "fingerprint — refusing to emit BENCH_storage.json");
  }

  BenchDocument doc;
  doc.bench = "storage";
  doc.graph = DatasetGraphFields(options, graph);
  doc.config = {{"repeats", options.repeats}};
  std::vector<Timing>& timings = doc.timings;
  timings.push_back(Measure("tsv_parse", options.repeats, [&] {
    CsrGraph g = LoadEdgeListTsv(tsv_path).ValueOrDie();
    (void)g;
  }));
  timings.push_back(Measure("mmap_open", options.repeats, [&] {
    storage::MappedCsrGraph g =
        storage::MappedCsrGraph::Open(efg_path).ValueOrDie();
    (void)g;
  }));
  timings.push_back(Measure("mmap_open_verified", options.repeats, [&] {
    storage::MappedCsrGraph g =
        storage::MappedCsrGraph::Open(efg_path).ValueOrDie();
    ENSEMFDET_CHECK(g.VerifyFingerprint().ok());
  }));

  std::filesystem::remove(tsv_path, ec);
  std::filesystem::remove(efg_path, ec);

  doc.sections = {
      {"file", {{"tsv_bytes", tsv_bytes}, {"efg_bytes", efg_bytes}}},
      {"speedup",
       {{"mmap_verified_vs_tsv_parse",
         timings[0].seconds_min / timings[2].seconds_min},
        {"mmap_open_vs_tsv_parse",
         timings[0].seconds_min / timings[1].seconds_min}}},
      {"parity", {{"fingerprints_match", fingerprints_match}}},
  };
  return doc;
}

Result<BenchDocument> RunEnsembleBench(const BenchOptions& options) {
  ENSEMFDET_RETURN_NOT_OK(CheckOptions(options));
  const int repeats = HalfRepeats(options);
  ENSEMFDET_ASSIGN_OR_RETURN(
      Dataset dataset,
      GenerateJdPreset(JdPreset::kDataset1, options.scale, options.seed));
  // The hot path runs over the shared graph — matching how the service
  // serves jobs; only the reference path pays per-member materialization.
  const CsrGraph& graph = dataset.graph;

  EnsemFDetConfig config;
  config.num_samples = options.num_samples;
  config.ratio = options.ratio;
  config.seed = options.seed;

  ThreadPool* pool = &DefaultThreadPool();
  std::optional<ThreadPool> owned;
  if (options.threads > 0) {
    owned.emplace(options.threads);
    pool = &*owned;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  const int hardware_threads = hw == 0 ? 1 : static_cast<int>(hw);
  // The wide scaling arm is the runner's true core count, resolved and
  // recorded in the JSON — schema 2 compared against a fixed 4-wide pool
  // even on smaller machines, so its "parallel speedup" on a 1-CPU
  // runner measured oversubscription, not scaling.
  const int wide_threads = hardware_threads;
  // Member-throughput rows at 1 / 2 / 4 / all-hardware threads (deduped,
  // ascending) — the wide row is what check_bench.py's scaling gate reads
  // when hardware_threads >= 4.
  std::vector<int> scaling_widths = {1, 2, 4, wide_threads};
  std::sort(scaling_widths.begin(), scaling_widths.end());
  scaling_widths.erase(
      std::unique(scaling_widths.begin(), scaling_widths.end()),
      scaling_widths.end());
  EnsemFDet detector(config);

  // Untimed parity gate: the zero-materialization hot path must reproduce
  // the materializing reference bit for bit before anything is measured —
  // a BENCH_ensemble.json is also a correctness witness.
  ENSEMFDET_ASSIGN_OR_RETURN(EnsemFDetReport hot, detector.Run(graph, pool));
  ENSEMFDET_ASSIGN_OR_RETURN(EnsemFDetReport reference,
                             detector.RunReference(graph, pool));
  const ReportParity parity = CompareReports(hot, reference);
  if (!parity.all()) {
    return Status::Internal(
        "zero-materialization ensemble diverged from the materializing "
        "reference on the bench graph — refusing to emit "
        "BENCH_ensemble.json");
  }

  // Vote-identity gates (untimed): the SAME detection must come out of
  // every dispatch level the build+CPU can run, and every pool width the
  // scaling rows will time. Any divergence refuses the document — a
  // BENCH_ensemble.json is also a correctness witness for the ISA matrix.
  std::vector<std::unique_ptr<ThreadPool>> scaling_pools;
  for (int width : scaling_widths) {
    scaling_pools.push_back(width > 1 ? std::make_unique<ThreadPool>(width)
                                      : nullptr);
  }
  bool isa_vote_identity = true;
  for (simd::IsaLevel level :
       {simd::IsaLevel::kScalar, simd::IsaLevel::kAvx2,
        simd::IsaLevel::kAvx512}) {
    if (level > simd::DetectedIsaLevel()) continue;
    simd::ScopedIsaLevel forced(level);
    if (!forced.ok()) continue;
    ENSEMFDET_ASSIGN_OR_RETURN(EnsemFDetReport leveled,
                               detector.Run(graph, pool));
    isa_vote_identity =
        isa_vote_identity && CompareReports(leveled, hot).all();
  }
  if (!isa_vote_identity) {
    return Status::Internal(
        "ensemble votes diverged between SIMD dispatch levels — refusing "
        "to emit BENCH_ensemble.json");
  }
  bool width_vote_identity = true;
  for (size_t w = 0; w < scaling_widths.size(); ++w) {
    ENSEMFDET_ASSIGN_OR_RETURN(
        EnsemFDetReport at_width,
        detector.Run(graph, scaling_pools[w].get()));
    width_vote_identity =
        width_vote_identity && CompareReports(at_width, hot).all();
  }
  if (!width_vote_identity) {
    return Status::Internal(
        "ensemble votes diverged between pool widths — refusing to emit "
        "BENCH_ensemble.json");
  }
  // The identity runs double as the untimed warm-up: every scaling pool's
  // thread-local arenas have now been touched once, so the timed rows
  // measure steady-state reuse, not first-touch growth.

  BenchDocument doc;
  doc.bench = "ensemble";
  doc.schema_version = 3;
  doc.graph = DatasetGraphFields(options, graph);
  doc.config = {{"repeats", repeats},
                {"num_samples", options.num_samples},
                {"ratio", options.ratio},
                {"threads", pool->num_threads()},
                {"hardware_threads", hardware_threads}};
  const Timing hot_timing = Measure("ensemble_run", repeats, [&] {
    EnsemFDetReport r = detector.Run(graph, pool).ValueOrDie();
    (void)r;
  });
  doc.timings.push_back(hot_timing);
  // One timed arm per scaling width (width 1 = the serial loop, exactly
  // like a null pool in production). The wide arm is looked up by width,
  // NOT as the widest timed row: on a machine with fewer than 4 cores the
  // 2- and 4-wide rows measure oversubscription, and the honest wide arm
  // is the hardware-thread row (possibly width 1).
  std::vector<BenchFields> scaling_rows;
  double seconds_1thread = 0.0;
  double seconds_wide = 0.0;
  for (size_t w = 0; w < scaling_widths.size(); ++w) {
    ThreadPool* width_pool = scaling_pools[w].get();
    const Timing t = Measure(
        "ensemble_run_threads_" + std::to_string(scaling_widths[w]),
        repeats, [&] {
          EnsemFDetReport r = detector.Run(graph, width_pool).ValueOrDie();
          (void)r;
        });
    doc.timings.push_back(t);
    scaling_rows.push_back(
        {{"threads", scaling_widths[w]},
         {"members_per_second", options.num_samples / t.seconds_min},
         {"seconds_min", t.seconds_min}});
    if (w == 0) seconds_1thread = t.seconds_min;
    if (scaling_widths[w] == wide_threads) seconds_wide = t.seconds_min;
  }
  const Timing reference_timing =
      Measure("ensemble_run_reference", repeats, [&] {
        EnsemFDetReport r = detector.RunReference(graph, pool).ValueOrDie();
        (void)r;
      });
  doc.timings.push_back(reference_timing);

  // Arena-reuse stats from one more (untimed) fully warm run.
  ENSEMFDET_ASSIGN_OR_RETURN(EnsemFDetReport stats_run,
                             detector.Run(graph, pool));
  int64_t arena_grow_events = 0;
  for (const auto& m : stats_run.members) {
    arena_grow_events += m.arena_grow_events;
  }

  // Per-ISA kernel micro rows: each dispatchable kernel timed at every
  // level this build+CPU can run, on a synthetic slot-aligned view.
  doc.rows = {{"kernels", MeasureKernelRows(std::max(repeats, 3))},
              {"scaling", std::move(scaling_rows)}};
  doc.sections = {
      {"dispatch",
       {{"cpu", std::string(simd::IsaLevelName(simd::CpuIsaLevel()))},
        {"detected", std::string(simd::IsaLevelName(simd::DetectedIsaLevel()))},
        {"active", std::string(simd::IsaLevelName(simd::ActiveIsaLevel()))},
        {"forced_by_env", simd::IsaForcedByEnv()}}},
      {"throughput",
       {{"members_per_second", options.num_samples / hot_timing.seconds_min},
        {"members_per_second_reference",
         options.num_samples / reference_timing.seconds_min}}},
      {"speedup",
       {{"zero_materialization_vs_reference",
         reference_timing.seconds_min / hot_timing.seconds_min},
        {"parallel_1thread_vs_wide", seconds_1thread / seconds_wide},
        {"parallel_wide_threads", wide_threads}}},
      {"arena",
       {{"grow_events", arena_grow_events},
        {"grow_events_per_member",
         options.num_samples > 0
             ? static_cast<double>(arena_grow_events) / options.num_samples
             : 0.0}}},
      {"parity",
       {{"votes_identical", parity.votes},
        {"weighted_votes_identical", parity.weighted},
        {"member_stats_identical", parity.members},
        {"vote_identity_across_isa_levels", isa_vote_identity},
        {"vote_identity_across_pool_widths", width_vote_identity}}},
  };
  return doc;
}

Result<BenchDocument> RunObsBench(const BenchOptions& options) {
  ENSEMFDET_RETURN_NOT_OK(CheckOptions(options));
  ENSEMFDET_ASSIGN_OR_RETURN(
      Dataset dataset,
      GenerateJdPreset(JdPreset::kDataset1, options.scale, options.seed));
  const CsrGraph& graph = dataset.graph;

  EnsemFDetConfig config;
  config.num_samples = options.num_samples;
  config.ratio = options.ratio;
  config.seed = options.seed;
  EnsemFDet detector(config);

  // Everything below toggles the process-wide runtime switch; restore the
  // caller's state on every exit.
  const bool was_enabled = obs::MetricsRuntimeEnabled();
  struct RestoreEnabled {
    bool enabled;
    ~RestoreEnabled() { obs::SetMetricsRuntimeEnabled(enabled); }
  } restore{was_enabled};

  // The on-arm must pay for the FULL always-on pipeline — trace-context
  // propagation, span-id allocation, and the flight recorder's per-span
  // ring write — so the 2% budget covers what production actually runs,
  // not a stripped-down build. Installing is best-effort: a read-only
  // temp dir degrades the measurement to spans-without-rings rather than
  // failing the bench (the JSON records which variant ran).
  std::error_code bench_flight_ec;
  const std::string flight_path =
      (std::filesystem::temp_directory_path(bench_flight_ec) /
       "ensemfdet_bench_obs_flight.bin")
          .string();
  obs::FlightRecorderOptions flight_options;
  flight_options.path = flight_path;
  const bool flight_installed =
      !bench_flight_ec && obs::InstallFlightRecorder(flight_options).ok();

  // Untimed parity gate: recording on vs off must not perturb the report
  // in any bit — instrumentation that changes results is worse than no
  // instrumentation, so a divergence refuses to emit.
  obs::SetMetricsRuntimeEnabled(true);
  ENSEMFDET_ASSIGN_OR_RETURN(EnsemFDetReport report_on,
                             detector.Run(graph, nullptr));
  obs::SetMetricsRuntimeEnabled(false);
  ENSEMFDET_ASSIGN_OR_RETURN(EnsemFDetReport report_off,
                             detector.Run(graph, nullptr));
  const bool reports_identical = CompareReports(report_on, report_off).all();
  if (!reports_identical) {
    return Status::Internal(
        "ensemble report changed between metrics-enabled and "
        "metrics-disabled runs — instrumentation perturbed detection; "
        "refusing to emit BENCH_obs.json");
  }

  // The gated pair: the identical single-threaded ensemble run with the
  // full instrumentation recording vs runtime-disabled (the single branch
  // each record path starts with). Single-threaded keeps the measured
  // difference free of pool-scheduling noise, and the repeats are
  // INTERLEAVED on/off so a noisy stretch of wall-clock (CI runners
  // share cores) inflates both arms alike instead of biasing whichever
  // arm happened to run through it — the gated quantity is a small
  // difference, so per-arm min must come from the same noise population.
  // Within each pair the order ALTERNATES: whichever run goes second in
  // a pair is systematically a little faster (caches, branch predictors
  // and the frequency governor are warmer), and a fixed order would fold
  // that position bias straight into the on-vs-off difference. Alternating
  // puts both arms in each position equally often so the bias cancels out
  // of the per-arm minima — which also requires an EVEN repeat count, so
  // an odd request is rounded up rather than leaving one arm with an
  // extra turn in the fast slot.
  const int min_repeats = std::max(options.repeats, kObsMinRepeats);
  const int repeats = min_repeats + (min_repeats % 2);
  Timing on_timing, off_timing;
  on_timing.name = "ensemble_run_metrics_on";
  off_timing.name = "ensemble_run_metrics_off";
  on_timing.repeats = off_timing.repeats = repeats;
  double on_total = 0.0, off_total = 0.0;
  const auto timed_run = [&](bool metrics_on) {
    obs::SetMetricsRuntimeEnabled(metrics_on);
    WallTimer timer;
    (void)detector.Run(graph, nullptr).ValueOrDie();
    return timer.ElapsedSeconds();
  };
  for (int i = 0; i < repeats; ++i) {
    double on_s, off_s;
    if (i % 2 == 0) {
      on_s = timed_run(true);
      off_s = timed_run(false);
    } else {
      off_s = timed_run(false);
      on_s = timed_run(true);
    }
    on_timing.seconds_min = std::min(on_timing.seconds_min, on_s);
    off_timing.seconds_min = std::min(off_timing.seconds_min, off_s);
    on_total += on_s;
    off_total += off_s;
  }
  obs::SetMetricsRuntimeEnabled(true);
  on_timing.seconds_mean = on_total / repeats;
  off_timing.seconds_mean = off_total / repeats;
  BenchDocument doc;
  doc.bench = "obs";
  doc.graph = DatasetGraphFields(options, graph);
  doc.config = {{"repeats", repeats},
                {"num_samples", options.num_samples},
                {"ratio", options.ratio},
                {"metrics_compiled_in", obs::kMetricsCompiledIn},
                {"flight_recorder_installed", flight_installed}};
  std::vector<Timing>& timings = doc.timings;
  timings.push_back(on_timing);
  timings.push_back(off_timing);

  // Tight-loop per-record costs on the enabled path, against a private
  // registry so the global scrape stays a pure engine view.
  obs::SetMetricsRuntimeEnabled(true);
  obs::MetricsRegistry scratch;
  obs::Counter* counter =
      scratch.GetCounter("ensemfdet_benchobs_scratch_total");
  obs::Histogram* histogram =
      scratch.GetHistogram("ensemfdet_benchobs_scratch_seconds");
  constexpr int64_t kOps = 2'000'000;
  timings.push_back(Measure("counter_increment_2m", 3, [&] {
    for (int64_t i = 0; i < kOps; ++i) counter->Increment();
  }));
  timings.push_back(Measure("histogram_record_2m", 3, [&] {
    for (int64_t i = 0; i < kOps; ++i) histogram->Record(i & 0xFFFFF);
  }));
  // Full span cost: context capture + span-id allocation + histogram
  // record + flight-recorder ring write (recorder installed above), the
  // exact sequence every instrumented stage runs per invocation.
  timings.push_back(Measure("span_record_2m", 3, [&] {
    for (int64_t i = 0; i < kOps; ++i) {
      obs::TraceSpan span(histogram, "benchobs_span");
    }
  }));

  const double seconds_on = timings[0].seconds_min;
  const double seconds_off = timings[1].seconds_min;
  const double overhead_fraction =
      seconds_off > 0 ? (seconds_on - seconds_off) / seconds_off : 0.0;
  const auto ns_per_op = [&](const Timing& t) {
    return t.seconds_min / static_cast<double>(kOps) * 1e9;
  };
  doc.sections = {
      {"overhead",
       {{"fraction", overhead_fraction},
        {"budget_fraction", kObsBudgetFraction},
        {"within_budget", overhead_fraction <= kObsBudgetFraction},
        {"counter_ns_per_increment", ns_per_op(timings[2])},
        {"histogram_ns_per_record", ns_per_op(timings[3])},
        {"span_ns_per_record", ns_per_op(timings[4])}}},
      {"parity", {{"reports_identical", reports_identical}}},
  };
  return doc;
}

namespace {

// The stream-bench workload: a fragmented transaction day. Uniform (not
// Zipf) background keeps the window graph split into many small
// components — the regime dirty scoping exists for; the honest caveat
// that a single giant component degenerates to a full rerun is documented
// in DESIGN.md §"Incremental ingest" and bench/README.md.
struct StreamWorkload {
  DynamicGraphStoreConfig store_config;
  StreamingDetectorConfig detector_config;
  std::vector<IngestBatch> batches;
  int64_t num_events = 0;
};

Result<StreamWorkload> BuildStreamWorkload(uint64_t seed) {
  DataGenConfig config;
  config.num_users = kStreamUsers;
  config.num_merchants = kStreamMerchants;
  config.num_edges = kStreamEdges;
  config.user_zipf_exponent = 0.0;
  config.merchant_zipf_exponent = 0.0;
  for (int g = 0; g < kStreamFraudGroups; ++g) {
    FraudGroupSpec group;
    group.num_users = 18;
    group.num_merchants = 8;
    group.edges_per_user = 5.0;
    group.camouflage_per_user = 0.0;
    config.fraud_groups.push_back(group);
  }
  config.seed = seed;
  ENSEMFDET_ASSIGN_OR_RETURN(Dataset dataset, GenerateDataset(config));

  StreamTimelineConfig timeline;
  timeline.horizon = kStreamHorizon;
  timeline.burst_duration = kStreamBurstDuration;
  timeline.seed = seed + 1;
  ENSEMFDET_ASSIGN_OR_RETURN(std::vector<Transaction> events,
                             BuildTransactionStream(dataset, timeline));

  StreamWorkload workload;
  workload.num_events = static_cast<int64_t>(events.size());
  ENSEMFDET_ASSIGN_OR_RETURN(workload.batches,
                             SliceIntoBatches(events, kStreamBatchEvents));
  workload.store_config.num_users = kStreamUsers;
  workload.store_config.num_merchants = kStreamMerchants;
  workload.store_config.window = kStreamWindow;
  workload.detector_config.ensemble.num_samples = kStreamSamples;
  workload.detector_config.ensemble.ratio = kStreamRatio;
  workload.detector_config.ensemble.seed = seed;
  // The window holds thousands of components; never let LRU churn mask
  // reuse in the measurement.
  workload.detector_config.component_cache_capacity = 1u << 16;
  return workload;
}

struct ReplayOutcome {
  int64_t detections = 0;
  int64_t components_reused = 0;
  int64_t components_recomputed = 0;
  int64_t edges_total = 0;
  int64_t edges_recomputed = 0;
};

// Replays the whole event log through a store, detecting at every
// `detection_interval` of stream time. `incremental` keeps one warm
// detector across boundaries (dirty-scoped); otherwise every boundary
// runs a cold detector — the full-rebuild comparator: the identical
// detection computation with nothing to reuse. `reports` (optional)
// collects every boundary's report for the parity gate.
Result<ReplayOutcome> ReplayStream(const StreamWorkload& workload,
                                   bool incremental,
                                   std::vector<StreamingReport>* reports) {
  ENSEMFDET_ASSIGN_OR_RETURN(
      DynamicGraphStore store,
      DynamicGraphStore::Create(workload.store_config));
  ENSEMFDET_ASSIGN_OR_RETURN(
      StreamingDetector warm,
      StreamingDetector::Create(workload.detector_config));

  ReplayOutcome outcome;
  int64_t last_detection = std::numeric_limits<int64_t>::min();
  for (const IngestBatch& batch : workload.batches) {
    ENSEMFDET_ASSIGN_OR_RETURN(IngestStats stats, store.Apply(batch));
    (void)stats;
    const int64_t now = store.newest_timestamp();
    if (last_detection == std::numeric_limits<int64_t>::min()) {
      last_detection = now;
      continue;
    }
    if (now - last_detection < kStreamDetectionInterval) continue;
    last_detection = now;
    const GraphVersion version = store.Publish();
    if (!incremental) warm.ResetCache();
    ENSEMFDET_ASSIGN_OR_RETURN(StreamingReport report,
                               warm.Detect(version, nullptr));
    ++outcome.detections;
    outcome.components_reused += report.stats.components_reused;
    outcome.components_recomputed += report.stats.components_recomputed;
    outcome.edges_total += report.stats.edges_total;
    outcome.edges_recomputed += report.stats.edges_recomputed;
    if (reports != nullptr) reports->push_back(std::move(report));
  }
  return outcome;
}

}  // namespace

Result<BenchDocument> RunStreamBench(const BenchOptions& options) {
  ENSEMFDET_RETURN_NOT_OK(CheckOptions(options));
  const int repeats = HalfRepeats(options);
  ENSEMFDET_ASSIGN_OR_RETURN(StreamWorkload workload,
                             BuildStreamWorkload(options.seed));

  // Untimed parity gate: at *every* detection boundary the dirty-scoped
  // incremental report must equal the full rerun bit for bit — a
  // BENCH_stream.json is also a correctness witness.
  std::vector<StreamingReport> incremental_reports;
  std::vector<StreamingReport> full_reports;
  ENSEMFDET_ASSIGN_OR_RETURN(
      ReplayOutcome incremental_outcome,
      ReplayStream(workload, /*incremental=*/true, &incremental_reports));
  ENSEMFDET_ASSIGN_OR_RETURN(
      ReplayOutcome full_outcome,
      ReplayStream(workload, /*incremental=*/false, &full_reports));
  ReportParity parity;
  parity.votes = incremental_reports.size() == full_reports.size();
  for (size_t i = 0; parity.all() && i < incremental_reports.size(); ++i) {
    parity = CompareReports(incremental_reports[i].report,
                            full_reports[i].report);
    parity.votes = parity.votes && incremental_reports[i].fingerprint ==
                                       full_reports[i].fingerprint;
  }
  if (!parity.all()) {
    return Status::Internal(
        "dirty-scoped incremental detection diverged from the full-window "
        "rerun on the bench stream — refusing to emit BENCH_stream.json");
  }
  if (incremental_outcome.components_reused == 0) {
    return Status::Internal(
        "stream bench workload produced zero component reuse — the "
        "incremental measurement would be meaningless");
  }
  incremental_reports.clear();
  full_reports.clear();

  BenchDocument doc;
  doc.bench = "stream";
  doc.graph = GraphFields("fragmented_stream", 1.0, options.seed,
                          kStreamUsers, kStreamMerchants, kStreamEdges);
  doc.config = {{"repeats", repeats},
                {"num_samples", kStreamSamples},
                {"ratio", kStreamRatio},
                {"horizon", kStreamHorizon},
                {"burst_duration", kStreamBurstDuration},
                {"window", kStreamWindow},
                {"detection_interval", kStreamDetectionInterval},
                {"batch_events", kStreamBatchEvents},
                {"fraud_groups", kStreamFraudGroups}};
  std::vector<Timing>& timings = doc.timings;
  timings.push_back(Measure("incremental_replay", repeats, [&] {
    ReplayOutcome r =
        ReplayStream(workload, /*incremental=*/true, nullptr).ValueOrDie();
    (void)r;
  }));
  timings.push_back(Measure("full_rebuild_replay", repeats, [&] {
    ReplayOutcome r =
        ReplayStream(workload, /*incremental=*/false, nullptr).ValueOrDie();
    (void)r;
  }));

  const double events = static_cast<double>(workload.num_events);
  const int64_t resolved = incremental_outcome.components_reused +
                           incremental_outcome.components_recomputed;
  doc.sections = {
      {"throughput",
       {{"events_per_second_incremental", events / timings[0].seconds_min},
        {"events_per_second_full_rebuild",
         events / timings[1].seconds_min}}},
      {"speedup",
       {{"incremental_vs_full_rebuild",
         timings[1].seconds_min / timings[0].seconds_min}}},
      {"stream",
       {{"events", workload.num_events},
        {"detections", incremental_outcome.detections},
        {"components_reused", incremental_outcome.components_reused},
        {"components_recomputed", incremental_outcome.components_recomputed},
        {"component_reuse_fraction",
         resolved > 0 ? static_cast<double>(
                            incremental_outcome.components_reused) /
                            static_cast<double>(resolved)
                      : 0.0},
        {"edge_recompute_fraction",
         incremental_outcome.edges_total > 0
             ? static_cast<double>(incremental_outcome.edges_recomputed) /
                   static_cast<double>(incremental_outcome.edges_total)
             : 0.0}}},
      {"parity",
       {{"votes_identical", parity.votes},
        {"weighted_votes_identical", parity.weighted},
        {"member_stats_identical", parity.members},
        {"boundaries_compared", full_outcome.detections}}},
  };
  return doc;
}

Result<BenchDocument> RunWalBench(const BenchOptions& options) {
  ENSEMFDET_RETURN_NOT_OK(CheckOptions(options));
  const int repeats = HalfRepeats(options);

  // Deterministic batch stream: non-decreasing timestamps over the
  // workload's universes. Encoded once up front so every policy pays the
  // same codec cost and the timings isolate framing + fsync.
  uint64_t rng = options.seed * 0x9E3779B97F4A7C15ull + 1;
  auto next = [&rng]() {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  std::vector<IngestBatch> batches(static_cast<size_t>(kWalBatches));
  std::vector<std::vector<std::byte>> payloads;
  payloads.reserve(batches.size());
  std::vector<int64_t> record_timestamps;
  record_timestamps.reserve(batches.size());
  int64_t clock = 0;
  uint64_t payload_bytes = 0;
  for (IngestBatch& batch : batches) {
    batch.transactions.reserve(static_cast<size_t>(kWalBatchEvents));
    for (int64_t i = 0; i < kWalBatchEvents; ++i) {
      clock += static_cast<int64_t>(next() % 3);
      Transaction tx;
      tx.timestamp = clock;
      tx.user = static_cast<int64_t>(
          next() % static_cast<uint64_t>(kWalUsers));
      tx.merchant = static_cast<int64_t>(
          next() % static_cast<uint64_t>(kWalMerchants));
      batch.transactions.push_back(tx);
    }
    payloads.push_back(ingest::EncodeIngestBatch(batch));
    record_timestamps.push_back(ingest::WalRecordTimestamp(batch));
    payload_bytes += payloads.back().size();
  }

  namespace fs = std::filesystem;
  std::error_code ec;
  const std::string scratch = fs::temp_directory_path(ec).string();
  if (scratch.empty()) {
    return Status::IOError("cannot resolve a scratch directory");
  }
  const std::string wal_dir =
      scratch + "/ensemfdet_bench_wal_" + std::to_string(options.seed);

  int64_t segments_created = 0;
  auto write_log = [&](storage::WalFsyncPolicy policy) -> Status {
    std::error_code rm_ec;
    fs::remove_all(wal_dir, rm_ec);
    storage::WalWriterOptions wal_options;
    wal_options.fsync = policy;
    wal_options.group_commit_records = kWalGroupCommitRecords;
    wal_options.segment_bytes = kWalSegmentBytes;
    ENSEMFDET_ASSIGN_OR_RETURN(
        storage::WalWriter writer,
        storage::WalWriter::Open(wal_dir, wal_options));
    for (size_t i = 0; i < payloads.size(); ++i) {
      ENSEMFDET_ASSIGN_OR_RETURN(
          uint64_t seq,
          writer.Append(payloads[i].data(), payloads[i].size(),
                        record_timestamps[i]));
      (void)seq;
    }
    segments_created = static_cast<int64_t>(writer.segment_count());
    return writer.Close();
  };

  // Untimed replay gate: the log written under group commit must replay
  // every record bit-identical to the batch that produced it — a
  // BENCH_wal.json is also a correctness witness for the framing.
  ENSEMFDET_RETURN_NOT_OK(write_log(storage::WalFsyncPolicy::kBatch));
  uint64_t replayed = 0;
  bool identical = true;
  auto verify = [&](const storage::WalRecordView& record) -> Status {
    const size_t index = static_cast<size_t>(replayed);
    ++replayed;
    if (index >= batches.size() || record.seq != index + 1 ||
        record.timestamp != record_timestamps[index]) {
      identical = false;
      return Status::OK();
    }
    ENSEMFDET_ASSIGN_OR_RETURN(IngestBatch decoded,
                               ingest::DecodeIngestBatch(record.payload));
    const std::vector<Transaction>& want = batches[index].transactions;
    if (decoded.transactions.size() != want.size()) {
      identical = false;
      return Status::OK();
    }
    for (size_t i = 0; i < want.size(); ++i) {
      if (decoded.transactions[i].timestamp != want[i].timestamp ||
          decoded.transactions[i].user != want[i].user ||
          decoded.transactions[i].merchant != want[i].merchant) {
        identical = false;
        return Status::OK();
      }
    }
    return Status::OK();
  };
  ENSEMFDET_ASSIGN_OR_RETURN(storage::WalReplayStats replay_stats,
                             storage::ReplayWal(wal_dir, 0, verify));
  identical = identical && !replay_stats.tail_truncated &&
              replayed == batches.size() &&
              replay_stats.last_seq == batches.size();
  if (!identical) {
    std::error_code rm_ec;
    fs::remove_all(wal_dir, rm_ec);
    return Status::Internal(
        "WAL replay did not reproduce the appended batch stream — "
        "refusing to emit BENCH_wal.json");
  }

  Status bench_error = Status::OK();
  auto timed = [&](storage::WalFsyncPolicy policy) {
    Status st = write_log(policy);
    if (!st.ok() && bench_error.ok()) bench_error = st;
  };
  BenchDocument doc;
  doc.bench = "wal";
  const int64_t events = kWalBatches * kWalBatchEvents;
  doc.graph = GraphFields("synthetic_batches", 1.0, options.seed, kWalUsers,
                          kWalMerchants, events);
  doc.config = {{"repeats", repeats},
                {"num_batches", kWalBatches},
                {"batch_events", kWalBatchEvents},
                {"group_commit_records", kWalGroupCommitRecords},
                {"segment_bytes", kWalSegmentBytes}};
  std::vector<Timing>& timings = doc.timings;
  timings.push_back(Measure("append_fsync_none", repeats, [&] {
    timed(storage::WalFsyncPolicy::kNone);
  }));
  timings.push_back(Measure("append_fsync_batch", repeats, [&] {
    timed(storage::WalFsyncPolicy::kBatch);
  }));
  timings.push_back(Measure("append_fsync_always", repeats, [&] {
    timed(storage::WalFsyncPolicy::kAlways);
  }));
  fs::remove_all(wal_dir, ec);
  ENSEMFDET_RETURN_NOT_OK(bench_error);

  const auto acked_per_second = [&](const Timing& t) {
    return static_cast<double>(events) / t.seconds_min;
  };
  doc.sections = {
      {"throughput",
       {{"acked_events_per_second_none", acked_per_second(timings[0])},
        {"acked_events_per_second_batch", acked_per_second(timings[1])},
        {"acked_events_per_second_always", acked_per_second(timings[2])}}},
      {"wal",
       {{"records", kWalBatches},
        {"payload_bytes", payload_bytes},
        {"segments_created", segments_created}}},
      {"parity",
       {{"replay_identical", identical}, {"records_compared", replayed}}},
  };
  return doc;
}

std::string ToJson(const BenchDocument& doc) {
  const auto scalar = [](const BenchValue& value) -> std::string {
    if (const auto* text = std::get_if<std::string>(&value)) {
      return "\"" + *text + "\"";
    }
    if (const auto* flag = std::get_if<bool>(&value)) {
      return *flag ? "true" : "false";
    }
    if (const auto* real = std::get_if<double>(&value)) {
      if (!std::isfinite(*real)) return "null";
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.9g", *real);
      return buf;
    }
    if (const auto* count = std::get_if<int64_t>(&value)) {
      return std::to_string(*count);
    }
    return std::to_string(std::get<uint64_t>(value));
  };
  const auto object = [&](const BenchFields& fields) {
    std::string out = "{";
    for (size_t i = 0; i < fields.size(); ++i) {
      out += (i > 0 ? ", \"" : "\"") + fields[i].first +
             "\": " + scalar(fields[i].second);
    }
    return out + "}";
  };
  const auto array = [&](const std::vector<BenchFields>& rows) {
    std::string out = "[";
    for (size_t i = 0; i < rows.size(); ++i) {
      out += (i > 0 ? ",\n    " : "\n    ") + object(rows[i]);
    }
    return out + "\n  ]";
  };

  std::vector<BenchFields> timing_rows;
  for (const Timing& t : doc.timings) {
    timing_rows.push_back({{"name", t.name},
                           {"seconds_min", t.seconds_min},
                           {"seconds_mean", t.seconds_mean},
                           {"repeats", t.repeats}});
  }
  std::vector<std::pair<std::string, std::string>> members = {
      {"schema_version", std::to_string(doc.schema_version)},
      {"bench", scalar(doc.bench)},
      {"graph", object(doc.graph)},
      {"config", object(doc.config)},
      {"timings", array(timing_rows)}};
  for (const auto& [name, rows] : doc.rows) {
    members.emplace_back(name, array(rows));
  }
  for (const auto& [name, fields] : doc.sections) {
    members.emplace_back(name, object(fields));
  }
  std::string out = "{\n";
  for (size_t i = 0; i < members.size(); ++i) {
    out += "  \"" + members[i].first + "\": " + members[i].second +
           (i + 1 < members.size() ? ",\n" : "\n");
  }
  return out + "}\n";
}

Status WriteTextFile(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open " + path + " for writing");
  out << text;
  out.flush();  // surface deferred write errors (disk full) before checking
  if (!out.good()) return Status::IOError("short write to " + path);
  return Status::OK();
}

}  // namespace bench
}  // namespace ensemfdet
