// perfbench_driver: drives the engine's public API for the end-to-end
// benchmark (README.md in this directory has the workloads and metrics).
//
//   perfbench_driver prep  --workload W --seed S --dir D
//   perfbench_driver run   --workload W --seed S --dir D --seconds X
//                          --trace 0|1
//   perfbench_driver calib
//
// `prep` writes a workload's inputs. It runs in its own process so that
// generating them never shows in the measured process's peak RSS. `run`
// times the workload's set-up and its measured phase and prints one JSON
// object of raw samples as its last stdout line; run.py turns samples into
// metrics. `calib` times the runner-fingerprint loops.
//
// Every timing here is taken around a call into the engine's public API;
// nothing inside the engine is instrumented. With --trace 1 the same calls
// are also recorded as spans (name, op, parent, start, end) in memory and
// written to D/spans.jsonl at the end.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "datagen/presets.h"
#include "datagen/transaction_stream.h"
#include "detect/simd/isa.h"
#include "ensemble/ensemfdet.h"
#include "eval/labels.h"
#include "eval/metrics.h"
#include "eval/report_io.h"
#include "graph/graph_io.h"
#include "ingest/wal_codec.h"
#include "service/detection_service.h"
#include "service/graph_registry.h"
#include "storage/wal_writer.h"

namespace fs = std::filesystem;
using namespace ensemfdet;

namespace {

// ---------------------------------------------------------------------------
// Workload constants. Each is fixed here, not a flag: the benchmark's
// workloads are defined by this file and the seed alone.
// ---------------------------------------------------------------------------

// batch-tsv-491k: dataset1 at half scale, the paper's defaults (N=80,
// S=0.1, RES, T=N/10). Large enough that peeling dominates and one detect
// is seconds, small enough that several fit in one run.
constexpr double kBatchScale = 0.5;
constexpr int kBatchSetups = 3;

// service-19k-mix: dataset1 at scale 0.02 with N=16, so per-request fixed
// costs (Submit, snapshot capture, fan-out of 16 short members, cache
// lookup) are a large share. One request in kHotEvery repeats one of
// kHotKeys keys round-robin; with kHotKeys * (kHotEvery - 1) fresh inserts
// between two uses of a key, fewer than the default cache capacity (128),
// every repeat is a cache hit.
constexpr double kServiceScale = 0.02;
constexpr int kServiceN = 16;
constexpr int kHotKeys = 8;
constexpr int kHotEvery = 4;
constexpr int kServiceSetups = 7;

// stream-wal: dataset1 at scale 0.05 as a one-day transaction stream in
// batches of 64, a 4-hour window and a detection every 5 minutes of stream
// time, WAL with fsync=batch and group commit 16. Prep ingests
// kStreamCheckpointBatches, checkpoints, then appends kStreamSuffixBatches
// that recovery (the set-up) replays. The measured phase sends at a fixed
// rate the session keeps up with on a 4-vCPU runner (a backlog of a few
// batches at most); past the end of the day the stream continues with the
// same day shifted by the horizon.
constexpr double kStreamScale = 0.05;
constexpr int64_t kStreamHorizon = 86400;
constexpr int64_t kStreamBatchEvents = 64;
constexpr int64_t kStreamWindow = 14400;
constexpr int64_t kStreamInterval = 300;
constexpr int64_t kStreamCheckpointBatches = 192;
constexpr int64_t kStreamSuffixBatches = 32;
constexpr double kStreamBatchesPerSecond = 20.0;
constexpr int kStreamSetups = 5;

// F1 floors at T = N/10 against the generator's blacklist, set below the
// F1 measured when this benchmark was introduced (STEADINESS.md).
constexpr double kBatchF1Floor = 0.60;
constexpr double kServiceF1Floor = 0.12;
constexpr double kStreamF1Floor = 0.10;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }

uint64_t SplitMix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

// Ensemble seed `i` of stream `domain` for workload seed `seed`.
uint64_t DeriveSeed(uint64_t seed, uint64_t domain, uint64_t i) {
  return SplitMix(SplitMix(seed ^ (domain << 56)) + i);
}

int Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

// One pool worker per CPU but two, so pool plus driving thread leave one
// CPU free. On a shared 4-vCPU VM a fan-out over every CPU waits for
// whichever vCPU the host deschedules: in alternating service runs,
// throughput at width 3 fell 14% from a 0% to a 5.6% steal run, at
// width 2 it fell 7% at 4% steal.
int PoolWidth() { return std::max(1, Nproc() - 2); }

int64_t PeakRssKb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

// ---------------------------------------------------------------------------
// Output: a flat JSON object built field by field.
// ---------------------------------------------------------------------------

std::string JsonNum(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonStr(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonArray(const std::vector<double>& v) {
  std::string out = "[";
  for (size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ",";
    out += JsonNum(v[i]);
  }
  return out + "]";
}

class JsonObject {
 public:
  void Raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "" : ",") + JsonStr(key) + ":" + json;
  }
  void Num(const std::string& key, double v) { Raw(key, JsonNum(v)); }
  void Str(const std::string& key, const std::string& v) {
    Raw(key, JsonStr(v));
  }
  void Array(const std::string& key, const std::vector<double>& v) {
    Raw(key, JsonArray(v));
  }
  std::string Done() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

// ---------------------------------------------------------------------------
// Spans recorded by the driver around its calls into the engine.
// ---------------------------------------------------------------------------

class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {
    if (on_) spans_.reserve(1 << 16);
  }

  bool on() const { return on_; }

  // Records [start, end) under `parent` (-1 = an operation's root span).
  // Returns the span's id, or -1 when tracing is off.
  int Add(const char* name, int64_t op, int parent, int64_t start,
          int64_t end) {
    if (!on_) return -1;
    spans_.push_back(Span{name, op, parent, start, end});
    return static_cast<int>(spans_.size()) - 1;
  }

  void SetEnd(int id, int64_t end) {
    if (id >= 0) spans_[id].end = end;
  }

  bool Write(const std::string& path) const {
    std::ofstream out(path);
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"id\":" << i << ",\"name\":" << JsonStr(s.name)
          << ",\"op\":" << s.op << ",\"parent\":" << s.parent
          << ",\"start_ns\":" << s.start << ",\"end_ns\":" << s.end << "}\n";
    }
    return static_cast<bool>(out);
  }

 private:
  struct Span {
    const char* name;
    int64_t op;
    int parent;
    int64_t start;
    int64_t end;
  };
  bool on_;
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// Run bookkeeping shared by the workloads.
// ---------------------------------------------------------------------------

struct Run {
  explicit Run(bool trace) : tracer(trace) {}

  Tracer tracer;
  std::vector<double> setup_s;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> failures;
  std::vector<double> ack_ms;
  std::vector<double> result_ms;
  int64_t results = 0;
  double measured_s = 0.0;
  // Per computed job: report total, Σ member seconds, slowest member.
  std::vector<double> run_ms, busy_ms, max_ms;
  // Each job is one fan-out of N members over the pool. A stream report
  // aggregates many per-component ensembles instead, so the scheduling
  // loss arithmetic does not apply to it.
  bool single_fanout = true;
  int64_t arena_grow_events = 0;
  std::map<std::string, std::vector<double>> layer_samples;
  std::map<std::string, double> layer_values;
  JsonObject extra;

  // Counts one operation; `failure` empty = it succeeded.
  void Op(const std::string& failure) {
    ++attempted;
    if (!failure.empty()) Fail(failure);
  }
  void Fail(const std::string& failure) {
    ++failed;
    if (failures.size() < 20) failures.push_back(failure);
  }
  void AddJob(const EnsemFDetReport& report) {
    double busy = 0.0, slowest = 0.0;
    for (const auto& m : report.members) {
      busy += m.seconds;
      slowest = std::max(slowest, m.seconds);
      arena_grow_events += m.arena_grow_events;
    }
    run_ms.push_back(report.total_seconds * 1e3);
    busy_ms.push_back(busy * 1e3);
    max_ms.push_back(slowest * 1e3);
  }
};

// Engine objects of one set-up; destroyed service first, pool last.
struct Engine {
  explicit Engine(int width)
      : pool(std::make_unique<ThreadPool>(width)),
        registry(std::make_unique<GraphRegistry>()),
        service(std::make_unique<DetectionService>(registry.get(),
                                                   pool.get())) {}
  std::unique_ptr<ThreadPool> pool;
  std::unique_ptr<GraphRegistry> registry;
  std::unique_ptr<DetectionService> service;
};

int Threshold(int num_samples) { return std::max(1, num_samples / 10); }

// Reports a prep failure; returns the process exit code.
int PrepFailed(const Status& status) {
  std::fprintf(stderr, "prep failed: %s\n", status.ToString().c_str());
  return 1;
}

bool SameVotes(const EnsemFDetReport& a, const EnsemFDetReport& b) {
  auto au = a.votes.all_user_votes(), bu = b.votes.all_user_votes();
  auto am = a.votes.all_merchant_votes(), bm = b.votes.all_merchant_votes();
  return std::equal(au.begin(), au.end(), bu.begin(), bu.end()) &&
         std::equal(am.begin(), am.end(), bm.begin(), bm.end()) &&
         a.weighted_user_votes == b.weighted_user_votes &&
         a.weighted_merchant_votes == b.weighted_merchant_votes;
}

double F1At(const EnsemFDetReport& report, int threshold,
            const LabelSet& labels) {
  return F1Score(CountConfusion(report.AcceptedUsers(threshold), labels));
}

Status SaveLabelFile(const LabelSet& labels, const std::string& path) {
  std::ofstream out(path);
  out << labels.num_users() << "\n";
  for (UserId u : labels.FraudUsers()) out << u << "\n";
  return out ? Status::OK() : Status::IOError("cannot write " + path);
}

Result<LabelSet> LoadLabelFile(const std::string& path) {
  std::ifstream in(path);
  int64_t num_users = 0;
  if (!(in >> num_users) || num_users < 0) {
    return Status::IOError("bad label file " + path);
  }
  LabelSet labels(num_users);
  int64_t u = 0;
  while (in >> u) {
    if (u < 0 || u >= num_users) {
      return Status::IOError("label id out of range in " + path);
    }
    labels.MarkFraud(static_cast<UserId>(u));
  }
  return labels;
}

// The traced run's inflation probe: the same job at the pool's width and
// inline on the calling thread. Identical seeds give identical members,
// so the per-member time ratio isolates the cost of running concurrently.
// The wide arm runs as a pool task, as a service job does: its worker is
// the fan-out's caller, so at most PoolWidth() members overlap.
void MeasureInflation(const CsrGraph& graph, const EnsemFDetConfig& config,
                      ThreadPool* pool, Run* run) {
  EnsemFDet ensemble(config);
  Result<EnsemFDetReport> wide =
      pool->Submit([&] { return ensemble.Run(graph, pool); }).get();
  Result<EnsemFDetReport> inline_run = ensemble.Run(graph, nullptr);
  if (!wide.ok() || !inline_run.ok()) {
    run->Op("inflation probe failed");
    return;
  }
  run->Op(SameVotes(*wide, *inline_run)
              ? ""
              : "inline and pooled runs of one job gave different votes");
  std::vector<double> ratios;
  for (size_t i = 0; i < wide->members.size(); ++i) {
    const double base = inline_run->members[i].seconds;
    if (base > 0.0) ratios.push_back(wide->members[i].seconds / base);
  }
  run->layer_samples["ensemble.member_inflation"] = ratios;
}

// ---------------------------------------------------------------------------
// batch-tsv-491k
// ---------------------------------------------------------------------------

EnsemFDetConfig BatchConfig(uint64_t seed) {
  EnsemFDetConfig config;  // paper defaults: RES, N=80, S=0.1
  config.seed = seed;
  return config;
}

int PrepBatch(uint64_t seed, const std::string& dir) {
  auto data = GenerateJdPreset(JdPreset::kDataset1, kBatchScale, seed);
  if (!data.ok()) return PrepFailed(data.status());
  Status st = SaveEdgeListTsv(data->graph, dir + "/graph.tsv");
  if (st.ok()) st = SaveLabelFile(data->blacklist, dir + "/labels.txt");
  if (!st.ok()) return PrepFailed(st);
  return 0;
}

// One file-to-report operation. A set-up operation (`measured` false) is
// neither sampled nor traced; a measured one records its calls under the
// span `root`. Returns "" on success.
std::string BatchOp(Engine& engine, const std::string& dir, uint64_t seed,
                    bool measured, int64_t op, int root,
                    const LabelSet& labels, Run* run,
                    std::shared_ptr<const EnsemFDetReport>* report_out) {
  Tracer& tr = run->tracer;
  const int64_t t0 = NowNs();
  Result<BipartiteGraph> graph = LoadEdgeListTsv(dir + "/graph.tsv");
  const int64_t t1 = NowNs();
  if (!graph.ok()) return "load: " + graph.status().ToString();
  Result<GraphSnapshot> snap =
      engine.registry->Publish("graph", *std::move(graph));
  const int64_t t2 = NowNs();
  if (!snap.ok()) return "publish: " + snap.status().ToString();
  JobRequest request;
  request.graph_name = "graph";
  request.ensemble = BatchConfig(seed);
  Result<JobId> id = engine.service->Submit(std::move(request));
  const int64_t t3 = NowNs();
  if (!id.ok()) return "submit: " + id.status().ToString();
  Result<std::shared_ptr<const JobResult>> result = engine.service->Wait(*id);
  const int64_t t4 = NowNs();
  if (!result.ok()) return "wait: " + result.status().ToString();
  Status saved = SaveVotesCsv(*(*result)->report, dir + "/votes.csv");
  const int64_t t5 = NowNs();
  if (!saved.ok()) return "report: " + saved.ToString();
  *report_out = (*result)->report;
  if (!measured) return "";

  tr.Add("graph.tsv_load", op, root, t0, t1);
  tr.Add("service.publish", op, root, t1, t2);
  tr.Add("service.submit", op, root, t2, t3);
  tr.Add("service.wait", op, root, t3, t4);
  tr.Add("eval.report_write", op, root, t4, t5);
  run->ack_ms.push_back(Ms(t3 - t0));
  run->result_ms.push_back(Ms(t5 - t0));
  auto& L = run->layer_samples;
  L["graph.tsv_load_ms"].push_back(Ms(t1 - t0));
  L["service.publish_ms"].push_back(Ms(t2 - t1));
  L["service.submit_ms"].push_back(Ms(t3 - t2));
  L["service.queue_wait_ms"].push_back(Ms(t4 - t3) -
                                       (*result)->seconds * 1e3);
  L["eval.report_write_ms"].push_back(Ms(t5 - t4));
  run->AddJob(**report_out);
  if ((*result)->cache_hit) return "fresh-seed job was served from the cache";
  const double f1 = F1At(**report_out, Threshold(BatchConfig(seed).num_samples),
                         labels);
  L["f1"].push_back(f1);
  if (f1 < kBatchF1Floor) return "F1 " + std::to_string(f1) + " below floor";
  return "";
}

void RunBatch(uint64_t seed, const std::string& dir, double seconds,
              Run* run) {
  Result<LabelSet> labels = LoadLabelFile(dir + "/labels.txt");
  if (!labels.ok()) return run->Op(labels.status().ToString());
  const uint64_t warm_seed = DeriveSeed(seed, 1, 0);

  // Set-up: start the pool and run one warm-up operation, which grows
  // the workers' arenas. Every repeat runs the same job in a fresh engine,
  // so their votes must match bit for bit.
  std::unique_ptr<Engine> engine;
  std::shared_ptr<const EnsemFDetReport> first_warm;
  for (int rep = 0; rep < kBatchSetups; ++rep) {
    engine.reset();
    const int64_t t0 = NowNs();
    engine = std::make_unique<Engine>(PoolWidth());
    std::shared_ptr<const EnsemFDetReport> warm;
    std::string err =
        BatchOp(*engine, dir, warm_seed, false, -1, -1, *labels, run, &warm);
    run->setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    if (err.empty() && first_warm && !SameVotes(*first_warm, *warm)) {
      err = "recomputed warm-up job gave different votes";
    }
    if (!first_warm) first_warm = warm;
    run->Op(err);
  }

  const ResultCacheStats before = engine->service->cache_stats();
  const int64_t start = NowNs();
  // An operation takes seconds, so the next one starts only if one more
  // of the last one's length still fits: the phase ends within the budget
  // instead of overrunning it by up to a whole operation.
  const int64_t limit = static_cast<int64_t>(seconds * 1e9);
  int64_t last_op_ns = 0;
  for (int64_t op = 0; op == 0 || NowNs() - start + last_op_ns <= limit;
       ++op) {
    const int64_t op_start = NowNs();
    const int root = run->tracer.Add("op", op, -1, op_start, op_start);
    std::shared_ptr<const EnsemFDetReport> report;
    run->Op(BatchOp(*engine, dir, DeriveSeed(seed, 2, op), true, op, root,
                    *labels, run, &report));
    if (report) ++run->results;
    run->tracer.SetEnd(root, NowNs());
    last_op_ns = NowNs() - op_start;
  }
  run->measured_s = static_cast<double>(NowNs() - start) / 1e9;
  const ResultCacheStats after = engine->service->cache_stats();
  const int64_t lookups = after.lookups() - before.lookups();
  run->layer_values["service.cache_hit_ratio"] =
      lookups > 0 ? static_cast<double>(after.hits - before.hits) / lookups
                  : 0.0;

  if (run->tracer.on()) {
    Result<GraphSnapshot> snap = engine->registry->Get("graph");
    if (!snap.ok()) return run->Op(snap.status().ToString());
    MeasureInflation(*snap->csr, BatchConfig(warm_seed), engine->pool.get(),
                     run);
  }
}

// ---------------------------------------------------------------------------
// service-19k-mix
// ---------------------------------------------------------------------------

EnsemFDetConfig ServiceConfig(uint64_t seed) {
  EnsemFDetConfig config;
  config.num_samples = kServiceN;
  config.seed = seed;
  return config;
}

int PrepService(uint64_t seed, const std::string& dir) {
  auto data = GenerateJdPreset(JdPreset::kDataset1, kServiceScale, seed);
  if (!data.ok()) return PrepFailed(data.status());
  GraphRegistry registry;
  Status st = registry.Publish("graph", std::move(data->graph)).status();
  if (st.ok()) st = registry.SaveSnapshot("graph", dir + "/graph.efg");
  if (st.ok()) st = SaveLabelFile(data->blacklist, dir + "/labels.txt");
  if (!st.ok()) return PrepFailed(st);
  return 0;
}

void RunService(uint64_t seed, const std::string& dir, double seconds,
                Run* run) {
  Result<LabelSet> labels = LoadLabelFile(dir + "/labels.txt");
  if (!labels.ok()) return run->Op(labels.status().ToString());
  const int threshold = Threshold(kServiceN);
  std::vector<uint64_t> hot(kHotKeys);
  for (int h = 0; h < kHotKeys; ++h) hot[h] = DeriveSeed(seed, 3, h);

  // Set-up: start the pool, load the .efg snapshot, and compute every hot
  // key once (fills the cache, warms the arenas). Repeats recompute the
  // hot keys in fresh engines; their votes must match bit for bit.
  std::unique_ptr<Engine> engine;
  std::vector<std::shared_ptr<const EnsemFDetReport>> hot_reports(kHotKeys);
  std::vector<double> efg_load_ms;
  for (int rep = 0; rep < kServiceSetups; ++rep) {
    engine.reset();
    const int64_t t0 = NowNs();
    engine = std::make_unique<Engine>(PoolWidth());
    const int64_t l0 = NowNs();
    Result<GraphSnapshot> snap =
        engine->registry->LoadSnapshot("graph", dir + "/graph.efg");
    efg_load_ms.push_back(Ms(NowNs() - l0));
    std::string err = snap.ok() ? "" : snap.status().ToString();
    for (int h = 0; h < kHotKeys && err.empty(); ++h) {
      JobRequest request;
      request.graph_name = "graph";
      request.ensemble = ServiceConfig(hot[h]);
      auto result = engine->service->Detect(std::move(request));
      if (!result.ok()) {
        err = result.status().ToString();
      } else if (hot_reports[h] &&
                 !SameVotes(*hot_reports[h], *(*result)->report)) {
        err = "recomputed hot key gave different votes";
      } else {
        hot_reports[h] = (*result)->report;
      }
    }
    run->setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    run->Op(err);
  }
  run->layer_samples["storage.efg_load_ms"] = efg_load_ms;

  auto& L = run->layer_samples;
  Tracer& tr = run->tracer;
  const ResultCacheStats before = engine->service->cache_stats();
  const int64_t start = NowNs();
  int64_t fresh = 0;
  // One request: Submit, Wait and the output checks. Returns "" on success.
  auto serve = [&](int64_t op, int root) -> std::string {
    const bool is_hot = op % kHotEvery == kHotEvery - 1;
    const int hot_index = static_cast<int>((op / kHotEvery) % kHotKeys);
    JobRequest request;
    request.graph_name = "graph";
    request.ensemble = ServiceConfig(is_hot ? hot[hot_index]
                                            : DeriveSeed(seed, 4, fresh++));
    const int64_t t0 = NowNs();
    Result<JobId> id = engine->service->Submit(std::move(request));
    const int64_t t1 = NowNs();
    if (!id.ok()) return "submit: " + id.status().ToString();
    auto result = engine->service->Wait(*id);
    const int64_t t2 = NowNs();
    if (!result.ok()) return "wait: " + result.status().ToString();
    tr.Add("service.submit", op, root, t0, t1);
    tr.Add("service.wait", op, root, t1, t2);
    ++run->results;
    run->ack_ms.push_back(Ms(t1 - t0));
    run->result_ms.push_back(Ms(t2 - t0));
    L["service.submit_ms"].push_back(Ms(t1 - t0));
    L["service.queue_wait_ms"].push_back(Ms(t2 - t1) -
                                         (*result)->seconds * 1e3);
    const EnsemFDetReport& report = *(*result)->report;
    if ((*result)->cache_hit) {
      L["service.hit_result_ms"].push_back(Ms(t2 - t0));
    } else {
      run->AddJob(report);
    }
    if (is_hot) {
      return SameVotes(*hot_reports[hot_index], report)
                 ? ""
                 : "repeated request gave different votes";
    }
    const double f1 = F1At(report, threshold, *labels);
    L["f1"].push_back(f1);
    return f1 >= kServiceF1Floor ? ""
                                 : "F1 " + std::to_string(f1) + " below floor";
  };
  for (int64_t op = 0; NowNs() - start < seconds * 1e9; ++op) {
    const int root = tr.Add("op", op, -1, NowNs(), 0);
    run->Op(serve(op, root));
    tr.SetEnd(root, NowNs());
  }
  run->measured_s = static_cast<double>(NowNs() - start) / 1e9;
  const ResultCacheStats after = engine->service->cache_stats();
  const int64_t lookups = after.lookups() - before.lookups();
  run->layer_values["service.cache_hit_ratio"] =
      lookups > 0 ? static_cast<double>(after.hits - before.hits) / lookups
                  : 0.0;

  if (tr.on()) {
    Result<GraphSnapshot> snap = engine->registry->Get("graph");
    if (!snap.ok()) return run->Op(snap.status().ToString());
    MeasureInflation(*snap->csr, ServiceConfig(hot[0]), engine->pool.get(),
                     run);
  }
}

// ---------------------------------------------------------------------------
// stream-wal
// ---------------------------------------------------------------------------

// The stream as one day of batches, extended past its end by repeating
// the day shifted by the horizon, so a run of any length has input.
class DayStream {
 public:
  static Result<DayStream> Make(uint64_t seed) {
    auto data = GenerateJdPreset(JdPreset::kDataset1, kStreamScale, seed);
    if (!data.ok()) return data.status();
    StreamTimelineConfig timeline;
    timeline.horizon = kStreamHorizon;
    timeline.seed = seed + 1;
    auto events = BuildTransactionStream(*data, timeline);
    if (!events.ok()) return events.status();
    auto batches = SliceIntoBatches(*events, kStreamBatchEvents);
    if (!batches.ok()) return batches.status();
    DayStream day;
    day.num_users_ = data->graph.num_users();
    day.num_merchants_ = data->graph.num_merchants();
    day.labels_ = data->blacklist;
    day.batches_ = *std::move(batches);
    return day;
  }

  // Global batch `g` (0-based; WAL seq g + 1).
  IngestBatch Batch(int64_t g) const {
    const int64_t n = static_cast<int64_t>(batches_.size());
    IngestBatch batch = batches_[g % n];
    for (Transaction& tx : batch.transactions) {
      tx.timestamp += (g / n) * kStreamHorizon;
    }
    return batch;
  }

  WindowedDetectorConfig DetectorConfig() const {
    WindowedDetectorConfig config;
    config.num_users = num_users_;
    config.num_merchants = num_merchants_;
    config.window = kStreamWindow;
    config.detection_interval = kStreamInterval;
    return config;  // ensemble: paper defaults (N=80, S=0.1, RES)
  }

  const LabelSet& labels() const { return labels_; }

 private:
  int64_t num_users_ = 0;
  int64_t num_merchants_ = 0;
  LabelSet labels_;
  std::vector<IngestBatch> batches_;
};

StreamSessionConfig SessionConfig(const DayStream& day,
                                  const std::string& dir, bool recover) {
  StreamSessionConfig config;
  config.detector = day.DetectorConfig();
  config.publish_name = "stream";
  config.wal.dir = dir + "/wal";
  config.wal.fsync = storage::WalFsyncPolicy::kBatch;
  config.wal.group_commit_records = 16;
  config.wal.recover = recover;
  if (recover) config.resume_checkpoint = dir + "/checkpoint.efg";
  return config;
}

// Ingests batches [from, to), retrying while the session's queue is full.
Status IngestRange(DetectionService& service, StreamId id,
                   const DayStream& day, int64_t from, int64_t to) {
  for (int64_t g = from; g < to; ++g) {
    Status st;
    do {
      st = service.IngestBatch(id, day.Batch(g));
      if (st.code() == StatusCode::kResourceExhausted) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    } while (st.code() == StatusCode::kResourceExhausted);
    if (!st.ok()) return st;
  }
  return Status::OK();
}

int PrepStream(uint64_t seed, const std::string& dir) {
  auto day = DayStream::Make(seed);
  if (!day.ok()) return PrepFailed(day.status());
  const std::string pristine = dir + "/pristine";
  fs::remove_all(pristine);
  fs::create_directories(pristine);
  Engine engine(PoolWidth());
  auto id = engine.service->OpenStream(SessionConfig(*day, pristine, false));
  Status st = id.status();
  if (st.ok()) st = IngestRange(*engine.service, *id, *day, 0,
                                kStreamCheckpointBatches);
  if (st.ok()) st = engine.service->SaveStreamCheckpoint(
                   *id, pristine + "/checkpoint.efg");
  if (st.ok()) st = IngestRange(*engine.service, *id, *day,
                                kStreamCheckpointBatches,
                                kStreamCheckpointBatches +
                                    kStreamSuffixBatches);
  if (st.ok()) st = engine.service->CloseStream(*id);
  if (!st.ok()) return PrepFailed(st);
  return 0;
}

// Replays the window detector's clock (first event starts it; a detection
// fires on the first event at least one interval after the previous one)
// so the driver knows which batch closes each detection interval.
class DetectionClock {
 public:
  // True when `tx` fires a detection.
  bool Tick(const Transaction& tx) {
    if (!started_) {
      started_ = true;
      last_ = tx.timestamp;
      return false;
    }
    if (tx.timestamp - last_ < kStreamInterval) return false;
    last_ = tx.timestamp;
    return true;
  }

  // Number of detections `batch` fires.
  int Feed(const IngestBatch& batch) {
    int fired = 0;
    for (const Transaction& tx : batch.transactions) fired += Tick(tx);
    return fired;
  }

 private:
  bool started_ = false;
  int64_t last_ = 0;
};

void RunStream(uint64_t seed, const std::string& dir, double seconds,
               Run* run) {
  auto day = DayStream::Make(seed);
  if (!day.ok()) return run->Op(day.status().ToString());
  run->single_fanout = false;
  const int64_t first = kStreamCheckpointBatches + kStreamSuffixBatches;
  const std::string live = dir + "/live";
  const int threshold = Threshold(day->DetectorConfig().ensemble.num_samples);

  // Set-up: crash recovery. Each repeat restores the state prep left
  // (untimed copy), then times starting the engine and a recovering
  // OpenStream: checkpoint restore plus replay of the WAL suffix.
  std::unique_ptr<Engine> engine;
  StreamId id = 0;
  uint64_t recovered = 0;
  for (int rep = 0; rep < kStreamSetups; ++rep) {
    if (engine) (void)engine->service->CloseStream(id);
    engine.reset();
    fs::remove_all(live);
    fs::copy(dir + "/pristine", live, fs::copy_options::recursive);
    const int64_t t0 = NowNs();
    engine = std::make_unique<Engine>(PoolWidth());
    auto opened = engine->service->OpenStream(SessionConfig(*day, live, true));
    auto state = opened.ok() ? engine->service->PollReport(*opened)
                             : Result<StreamState>(opened.status());
    run->setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    if (!state.ok()) return run->Op("recovery: " + state.status().ToString());
    id = *opened;
    recovered = state->wal_records_recovered;
    run->Op(state->wal_last_seq == static_cast<uint64_t>(first) &&
                    recovered == static_cast<uint64_t>(kStreamSuffixBatches)
                ? ""
                : "recovery resumed at seq " +
                      std::to_string(state->wal_last_seq) + ", expected " +
                      std::to_string(first));
  }
  run->layer_values["storage.wal_records_recovered"] =
      static_cast<double>(recovered);
  DetectionService& service = *engine->service;

  // Replay the clock over what prep and recovery already applied.
  DetectionClock clock;
  for (int64_t g = 0; g < first; ++g) clock.Feed(day->Batch(g));
  auto opened_state = service.PollReport(id);
  if (!opened_state.ok()) return run->Op(opened_state.status().ToString());
  const uint64_t base_reports = opened_state->reports_generated;

  // Open loop: batch j is due at start + j * period whether or not the
  // previous one was acked; between sends the driver polls for reports.
  const int64_t period = static_cast<int64_t>(1e9 / kStreamBatchesPerSecond);
  const int64_t limit = static_cast<int64_t>(seconds * 1e9);
  std::vector<double> sched_ns, sent_ns, ack_ns;
  std::vector<double> close_batch;   // per expected detection: closing j
  std::vector<double> visible_ns;    // per observed detection
  std::vector<std::vector<UserId>> accepted;  // per observed detection
  std::vector<IngestBatch> sent_batches;
  uint64_t seen = base_reports;
  int64_t backlog_max = 0;
  int64_t comp_recomputed = 0, comp_eligible = 0;
  int64_t edges_recomputed = 0, edges_total = 0;
  Tracer& tr = run->tracer;
  const int64_t start = NowNs();

  auto poll = [&]() {
    auto state = service.PollReport(id);
    const int64_t now = NowNs();
    if (!state.ok()) return;
    backlog_max = std::max(backlog_max, state->batches_pending);
    if (state->reports_generated <= seen) return;
    // Only the newest report is visible; one skipped by a single poll is
    // still timed (as visible now) but contributes no stats.
    while (seen < state->reports_generated) {
      ++seen;
      visible_ns.push_back(static_cast<double>(now - start));
    }
    const StreamingDetectionStats& s = state->report_stats;
    comp_recomputed += s.components_recomputed;
    comp_eligible += s.components_eligible;
    edges_recomputed += s.edges_recomputed;
    edges_total += s.edges_total;
    if (state->report) {
      run->AddJob(*state->report);
      accepted.resize(visible_ns.size());
      accepted.back() = state->report->AcceptedUsers(threshold);
    }
  };

  IngestBatch next = day->Batch(first);
  for (int64_t j = 0; j * period < limit;) {
    const int64_t due = start + j * period;
    const int64_t now = NowNs();
    if (now >= due) {
      sent_batches.push_back(next);
      Status st = service.IngestBatch(id, std::move(next));
      const int64_t ack = NowNs();
      const int root = tr.Add("op", j, -1, due, ack);
      tr.Add("gen.late", j, root, due, now);
      tr.Add("service.ingest_batch", j, root, now, ack);
      sched_ns.push_back(static_cast<double>(due - start));
      sent_ns.push_back(static_cast<double>(now - start));
      ack_ns.push_back(static_cast<double>(ack - start));
      run->Op(st.ok() ? "" : "ingest: " + st.ToString());
      for (int f = clock.Feed(sent_batches.back()); f > 0; --f) {
        close_batch.push_back(static_cast<double>(j));
      }
      ++j;
      next = day->Batch(first + j);
      tr.SetEnd(root, NowNs());
      poll();
      continue;
    }
    poll();
    const int64_t wait = due - NowNs();
    if (wait > 300000) {
      std::this_thread::sleep_for(
          std::chrono::nanoseconds(std::min<int64_t>(wait - 200000, 1000000)));
    } else if (wait > 0) {
      std::this_thread::yield();
    }
  }
  // Let the session drain so every detection the sent batches close is
  // timed; a report that never shows is a failed operation.
  const uint64_t expected = base_reports + close_batch.size();
  const int64_t deadline = NowNs() + 60'000'000'000;
  for (;;) {
    poll();
    auto state = service.PollReport(id);
    if (!state.ok() || !state->error.ok()) {
      run->Op("session failed");
      break;
    }
    if (state->batches_pending == 0 && seen >= expected) break;
    if (NowNs() > deadline) {
      run->Op("session did not drain within 60 s");
      break;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  run->measured_s = static_cast<double>(NowNs() - start) / 1e9;
  if (seen != expected) {
    run->Op("saw " + std::to_string(seen - base_reports) +
            " detections, the detection clock expects " +
            std::to_string(close_batch.size()));
  }
  run->results = static_cast<int64_t>(seen - base_reports);

  // Pooled F1 over the observed reports, against the blacklisted users
  // inside each report's window (a window holds only part of the day).
  Confusion pooled;
  {
    std::vector<Transaction> events;
    std::vector<int64_t> fire_event;  // per measured detection
    DetectionClock replay;
    auto walk = [&](const IngestBatch& batch, bool measured) {
      for (const Transaction& tx : batch.transactions) {
        events.push_back(tx);
        if (replay.Tick(tx) && measured) {
          fire_event.push_back(static_cast<int64_t>(events.size()) - 1);
        }
      }
    };
    for (int64_t g = 0; g < first; ++g) walk(day->Batch(g), false);
    for (const IngestBatch& batch : sent_batches) walk(batch, true);
    const LabelSet& labels = day->labels();
    std::vector<char> in_window(labels.num_users()), flagged(in_window.size());
    for (size_t k = 0; k < accepted.size() && k < fire_event.size(); ++k) {
      if (accepted[k].empty()) continue;
      const int64_t from_ts = events[fire_event[k]].timestamp - kStreamWindow;
      std::fill(in_window.begin(), in_window.end(), 0);
      std::fill(flagged.begin(), flagged.end(), 0);
      for (int64_t i = fire_event[k]; i >= 0 && events[i].timestamp >= from_ts;
           --i) {
        in_window[events[i].user] = 1;
      }
      for (UserId u : accepted[k]) flagged[u] = 1;
      for (size_t u = 0; u < in_window.size(); ++u) {
        if (!in_window[u]) continue;
        const bool fraud = labels.IsFraud(static_cast<UserId>(u));
        pooled.true_positives += flagged[u] && fraud;
        pooled.false_positives += flagged[u] && !fraud;
        pooled.false_negatives += !flagged[u] && fraud;
      }
    }
  }
  const double f1 = F1Score(pooled);
  run->layer_samples["f1"].push_back(f1);
  run->Op(f1 >= kStreamF1Floor ? ""
                               : "pooled F1 " + std::to_string(f1) +
                                     " below floor");

  JsonObject open_loop;
  open_loop.Num("period_ns", static_cast<double>(period));
  open_loop.Array("sched_ns", sched_ns);
  open_loop.Array("sent_ns", sent_ns);
  open_loop.Array("ack_ns", ack_ns);
  open_loop.Array("close_batch", close_batch);
  open_loop.Array("visible_ns", visible_ns);
  run->extra.Raw("open_loop", open_loop.Done());
  auto frac = [](int64_t num, int64_t den) {
    return den > 0 ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
  };
  run->layer_values["ingest.component_recompute_frac"] =
      frac(comp_recomputed, comp_eligible);
  run->layer_values["ingest.edge_recompute_frac"] =
      frac(edges_recomputed, edges_total);
  run->layer_values["ingest.backlog_max"] = static_cast<double>(backlog_max);

  if (tr.on()) {
    // The WAL's share of an ack: the same payloads appended under the
    // same policy to a log of the benchmark's own.
    const std::string side = dir + "/wal_side";
    fs::remove_all(side);
    storage::WalWriterOptions options;
    options.fsync = storage::WalFsyncPolicy::kBatch;
    options.group_commit_records = 16;
    auto wal = storage::WalWriter::Open(side, options);
    if (!wal.ok()) return run->Op(wal.status().ToString());
    auto& appends = run->layer_samples["storage.wal_append_ms"];
    for (const IngestBatch& b : sent_batches) {
      const std::vector<std::byte> payload = ingest::EncodeIngestBatch(b);
      const int64_t t0 = NowNs();
      auto seq = wal->Append(payload.data(), payload.size(),
                             ingest::WalRecordTimestamp(b));
      appends.push_back(Ms(NowNs() - t0));
      if (!seq.ok()) return run->Op(seq.status().ToString());
    }
    (void)wal->Close();
    Result<GraphSnapshot> snap = engine->registry->Get("stream");
    if (!snap.ok()) return run->Op(snap.status().ToString());
    EnsemFDetConfig config = day->DetectorConfig().ensemble;
    config.seed = DeriveSeed(seed, 5, 0);
    MeasureInflation(*snap->csr, config, engine->pool.get(), run);
  }
  (void)service.CloseStream(id);
}

// ---------------------------------------------------------------------------
// Runner calibration: a fixed compute loop and a 64 MiB pointer chase.
// ---------------------------------------------------------------------------

int RunCalib() {
  constexpr int64_t kSteps = 100'000'000;
  uint64_t x = 0x12345678;
  int64_t t0 = NowNs();
  for (int64_t i = 0; i < kSteps; ++i) x = x * 6364136223846793005ull + (x >> 29);
  const double cpu_ns = static_cast<double>(NowNs() - t0) / kSteps;

  // One pointer per 64-byte line, linked in a single random cycle
  // (Sattolo), so every hop is a dependent load from an unpredictable line.
  constexpr size_t kLines = (64u << 20) / 64;
  struct alignas(64) Line {
    uint64_t next;
  };
  std::vector<Line> lines(kLines);
  for (size_t i = 0; i < kLines; ++i) lines[i].next = i;
  uint64_t r = 0x9E3779B97F4A7C15ull;
  for (size_t i = kLines - 1; i > 0; --i) {
    r = SplitMix(r);
    std::swap(lines[i].next, lines[r % i].next);
  }
  constexpr int64_t kHops = 2'000'000;
  uint64_t p = 0;
  t0 = NowNs();
  for (int64_t i = 0; i < kHops; ++i) p = lines[p].next;
  const double mem_ns = static_cast<double>(NowNs() - t0) / kHops;

  JsonObject out;
  out.Num("cpu_ns", cpu_ns);
  out.Num("mem_ns", mem_ns);
  out.Num("sink", static_cast<double>((x ^ p) & 1));
  std::printf("%s\n", out.Done().c_str());
  return 0;
}

// ---------------------------------------------------------------------------

struct Args {
  std::string command, workload, dir;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  if (argc < 2) return false;
  args->command = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i], value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--dir") {
      args->dir = value;
    } else if (flag == "--seed") {
      args->seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args->seconds = std::stod(value);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else {
      return false;
    }
  }
  return (argc % 2) == 0;
}

int RunWorkload(const Args& args) {
  Run run(args.trace);
  if (args.workload == "batch-tsv-491k") {
    RunBatch(args.seed, args.dir, args.seconds, &run);
  } else if (args.workload == "service-19k-mix") {
    RunService(args.seed, args.dir, args.seconds, &run);
  } else if (args.workload == "stream-wal") {
    RunStream(args.seed, args.dir, args.seconds, &run);
  } else {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  run.layer_values["ensemble.arena_grow_events"] =
      static_cast<double>(run.arena_grow_events);
  if (run.tracer.on() && !run.tracer.Write(args.dir + "/spans.jsonl")) {
    run.Fail("cannot write spans");
  }

  JsonObject out = run.extra;
  out.Str("workload", args.workload);
  out.Num("width", PoolWidth());
  out.Num("nproc", Nproc());
  out.Str("isa", simd::IsaLevelName(simd::ActiveIsaLevel()));
  out.Array("setup_s", run.setup_s);
  out.Num("attempted", static_cast<double>(run.attempted));
  out.Num("failed", static_cast<double>(run.failed));
  std::string failures = "[";
  for (size_t i = 0; i < run.failures.size(); ++i) {
    failures += (i ? "," : "") + JsonStr(run.failures[i]);
  }
  out.Raw("failures", failures + "]");
  out.Num("measured_s", run.measured_s);
  out.Num("results", static_cast<double>(run.results));
  out.Array("ack_ms", run.ack_ms);
  out.Array("result_ms", run.result_ms);
  out.Num("peak_rss_kb", static_cast<double>(PeakRssKb()));
  JsonObject jobs;
  jobs.Array("run_ms", run.run_ms);
  jobs.Array("busy_ms", run.busy_ms);
  jobs.Array("max_ms", run.max_ms);
  jobs.Num("single_fanout", run.single_fanout ? 1 : 0);
  out.Raw("jobs", jobs.Done());
  JsonObject layers;
  for (const auto& [name, samples] : run.layer_samples) {
    layers.Array(name, samples);
  }
  for (const auto& [name, value] : run.layer_values) layers.Num(name, value);
  out.Raw("layers", layers.Done());
  std::printf("%s\n", out.Done().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_driver prep|run|calib [--workload W] "
                 "[--seed S] [--dir D] [--seconds X] [--trace 0|1]\n");
    return 2;
  }
  if (args.command == "calib") return RunCalib();
  if (args.dir.empty()) return std::fprintf(stderr, "--dir is required\n"), 2;
  fs::create_directories(args.dir);
  if (args.command == "run") return RunWorkload(args);
  if (args.command != "prep") return std::fprintf(stderr, "unknown command\n"), 2;
  if (args.workload == "batch-tsv-491k") return PrepBatch(args.seed, args.dir);
  if (args.workload == "service-19k-mix") return PrepService(args.seed, args.dir);
  if (args.workload == "stream-wal") return PrepStream(args.seed, args.dir);
  std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
  return 2;
}
