// Perf-baseline harness: the measurements behind the repo's BENCH_*.json
// files (schema documented in bench/README.md).
//
// `ensemfdet_cli bench-report` is the only front door: it runs every
// Run*Bench below, and each returns one BenchDocument that ToJson — the
// one BENCH JSON writer — turns into the file's text.
//
// Every measurement reports min/mean wall-clock over its repeats (min is
// the headline: least scheduler noise). Every bench first verifies the
// path it times against a referee (seed peeler, materializing ensemble,
// full-rebuild replay, writer fingerprint, metrics-off run, decoded WAL)
// and fails with Internal on any divergence, so a lying BENCH document
// can't be produced.
#ifndef ENSEMFDET_BENCH_PERF_HARNESS_H_
#define ENSEMFDET_BENCH_PERF_HARNESS_H_

#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "common/status.h"

namespace ensemfdet {
namespace bench {

/// What `bench-report`'s flags set. Every other workload knob is a named
/// constant of the harness, recorded in the document's `config` block.
struct BenchOptions {
  /// Scale and seed of the dataset1-preset graph; the stream and WAL
  /// benches generate their own workloads from the seed.
  double scale = 0.02;
  uint64_t seed = 7;
  /// Timed repetitions of the peeling and storage benches; the ensemble,
  /// stream and WAL benches run max(1, repeats / 2), the obs bench
  /// max(repeats, 12) rounded up to even.
  int repeats = 5;
  /// Ensemble size N and sampling ratio S (ensemble and obs benches).
  int num_samples = 16;
  double ratio = 0.1;
  /// Pool width of the ensemble bench's headline run (0 = hardware).
  int threads = 0;
};

/// One JSON scalar of a BENCH document.
using BenchValue = std::variant<int64_t, uint64_t, double, bool, std::string>;
/// A flat JSON object — a section, or one row of a row array — with its
/// keys in output order.
using BenchFields = std::vector<std::pair<std::string, BenchValue>>;

/// One measurement: a row of the document's `timings` array.
struct Timing {
  std::string name;
  double seconds_min = std::numeric_limits<double>::infinity();
  double seconds_mean = 0.0;
  int repeats = 0;
};

/// The content of one BENCH_<bench>.json file.
struct BenchDocument {
  std::string bench;  ///< "peeling", "ensemble", ...
  int schema_version = 1;
  BenchFields graph;   ///< the workload's shape
  BenchFields config;  ///< the knobs and constants the run used
  std::vector<Timing> timings;
  /// Named row arrays ("kernels", "scaling"), in output order.
  std::vector<std::pair<std::string, std::vector<BenchFields>>> rows;
  /// Named flat sections ("speedup", "throughput", "parity", ...), in
  /// output order.
  std::vector<std::pair<std::string, BenchFields>> sections;

  std::string file_name() const { return "BENCH_" + bench + ".json"; }
};

/// The BENCH JSON writer: `schema_version`, `bench`, `graph`, `config`,
/// `timings`, the row arrays, then the sections — one line per flat
/// object, one line per array row. Non-finite numbers are written as null.
std::string ToJson(const BenchDocument& doc);

/// Peeling bench (BENCH_peeling.json, schema 1): the seed peeler and
/// materializing FDET — the `adjacency_*` rows — vs the in-place view
/// peel and FDET — the `csr_*` rows; single peel + full FDET, all on the
/// same graph. Fails with Internal if the in-place results are not
/// identical to the seed's.
Result<BenchDocument> RunPeelingBench(const BenchOptions& options);

/// Storage bench (BENCH_storage.json, schema 1): the same graph loaded by
/// TSV parse and by mmap zero-copy open (without and with fingerprint
/// verification), plus file sizes and speedups. Before anything is timed
/// it writes the snapshot and verifies that the mapped reader reproduces
/// the writer's content fingerprint, failing with Internal otherwise.
Result<BenchDocument> RunStorageBench(const BenchOptions& options);

/// Ensemble bench (BENCH_ensemble.json, schema 3): the zero-
/// materialization hot path on the configured pool, member-throughput
/// scaling rows at 1/2/4/all-hardware threads (the wide arm clamped to
/// the runner's true core count and its resolved width recorded), the
/// materializing reference path, per-ISA SIMD kernel rows, arena-reuse
/// counts and a dispatch block (CPU / detected / active ISA level). Fails
/// with Internal if the hot path diverges from the reference, or if votes
/// are not identical across every runnable SIMD dispatch level, or across
/// every timed pool width.
Result<BenchDocument> RunEnsembleBench(const BenchOptions& options);

/// Stream bench (BENCH_stream.json, schema 1): the same store+boundary
/// replay timed twice — dirty-scoped incremental detection (warm
/// StreamingDetector) vs a full rebuild (cold detector per boundary) —
/// plus reuse statistics. Before anything is timed it verifies, at every
/// detection boundary, that the incremental report is bit-identical
/// (votes, weighted votes, member structural stats) to the full rerun,
/// failing with Internal on any divergence or on zero component reuse.
Result<BenchDocument> RunStreamBench(const BenchOptions& options);

/// Observability-overhead bench (BENCH_obs.json, schema 1): the same
/// single-threaded ensemble run timed with metrics recording enabled (and
/// a flight recorder installed) vs runtime-disabled, interleaved in
/// alternating order, plus tight-loop per-record costs for
/// Counter::Increment, Histogram::Record and a full TraceSpan. Fails with
/// Internal if the enabled and disabled reports differ in any bit. The
/// overhead is gated at 2% by tools/check_bench.py.
Result<BenchDocument> RunObsBench(const BenchOptions& options);

/// WAL bench (BENCH_wal.json, schema 1): the same synthetic batch stream
/// appended through WalWriter once per fsync policy (none / batch /
/// always), reported as acked events/sec — the price of each durability
/// level at the IngestBatch ack boundary. Before anything is timed it
/// replays the log and verifies every record decodes bit-identical to the
/// batch that produced it, failing with Internal otherwise.
Result<BenchDocument> RunWalBench(const BenchOptions& options);

/// Writes `text` to `path` (overwriting); IOError on failure.
Status WriteTextFile(const std::string& path, const std::string& text);

}  // namespace bench
}  // namespace ensemfdet

#endif  // ENSEMFDET_BENCH_PERF_HARNESS_H_
