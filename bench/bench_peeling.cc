// bench_peeling: the peeling perf baseline. Measures the seed peeler vs
// the in-place peeler (single peel + full iterated FDET) on a
// dataset1-preset graph, verifies the two paths produce identical
// results, and writes BENCH_peeling.json (schema: bench/README.md).
//
// Environment knobs: ENSEMFDET_SCALE (default 0.02), ENSEMFDET_SEED
// (default 7), ENSEMFDET_REPEATS (default 5), ENSEMFDET_BENCH_OUT
// (default ./BENCH_peeling.json, "-" = stdout only).
#include <cstdio>
#include <string>

#include "common/env.h"
#include "perf_harness.h"

int main() {
  using namespace ensemfdet;
  bench::PeelingBenchOptions options;
  options.graph.scale = GetEnvDouble("ENSEMFDET_SCALE", options.graph.scale);
  options.graph.seed = static_cast<uint64_t>(
      GetEnvInt64("ENSEMFDET_SEED", static_cast<int64_t>(options.graph.seed)));
  options.repeats = GetEnvInt("ENSEMFDET_REPEATS", options.repeats);

  auto json = bench::RunPeelingBench(options);
  if (!json.ok()) {
    std::fprintf(stderr, "bench_peeling: %s\n",
                 json.status().ToString().c_str());
    return 1;
  }
  std::fputs(json->c_str(), stdout);

  const std::string out_path =
      GetEnvString("ENSEMFDET_BENCH_OUT", "BENCH_peeling.json");
  if (out_path != "-") {
    Status st = bench::WriteTextFile(out_path, *json);
    if (!st.ok()) {
      std::fprintf(stderr, "bench_peeling: %s\n", st.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "[bench_peeling] wrote %s\n", out_path.c_str());
  }
  return 0;
}
