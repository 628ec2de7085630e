#!/usr/bin/env python3
"""End-to-end benchmark of the EnsemFDet engine (see README.md).

Run from the repository root:

    python3 perfbench/run.py --workload batch-tsv-491k --seed 1 \
        --seconds 25 --trace 0

Builds the driver (first run builds the engine too), writes the workload's
inputs from --seed, times the runner-calibration loops, runs the workload,
and prints a summary table followed by one JSON result line. --trace 0
reports the end-to-end metrics, --trace 1 the per-layer metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402

WORKLOADS = ("batch-tsv-491k", "service-19k-mix", "stream-wal")
BUILD_DIR = os.path.join(".bench_build", "perfbench")
DRIVER = os.path.join(BUILD_DIR, "perfbench_driver")
WORK_DIR = ".bench_work"
DEADLINE_S = 170  # a run, after the build, must end within 180 s


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures once, then lets the build tool rebuild what changed."""
    if not os.path.isfile("CMakeLists.txt") or not os.path.isdir("src"):
        raise RuntimeError("run from the repository root: no engine sources")
    jobs = str(len(os.sched_getaffinity(0)))
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release", *gen],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target",
                    "perfbench_driver", "-j", jobs],
                   check=True, stdout=sys.stderr)


def driver(args, timeout):
    """Runs the driver; returns its last stdout line parsed as JSON."""
    out = subprocess.run([DRIVER, *args], check=True, stdout=subprocess.PIPE,
                         text=True, timeout=max(1, timeout))
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def cpu_times():
    """Aggregate (steal, total) jiffies from /proc/stat, or None."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    # user nice system idle iowait irq softirq steal [guest guest_nice]:
    # guest time is already counted in user/nice.
    return fields[7] if len(fields) > 7 else 0, sum(fields[:8])


def end_to_end(raw):
    """The user-visible metrics: name -> (value, unit, sample count)."""
    if "open_loop" in raw:
        ol = raw["open_loop"]
        ack, _ = stats.open_loop(ol["period_ns"], ol["sched_ns"],
                                 ol["sent_ns"], ol["ack_ns"])
        result = [(v - ol["sched_ns"][int(j)]) / 1e6
                  for j, v in zip(ol["close_batch"], ol["visible_ns"])]
    else:
        ack, result = raw["ack_ms"], raw["result_ms"]
    m = {
        "setup_s": (stats.median(raw["setup_s"]), "s", len(raw["setup_s"])),
        "ack_p50_ms": (stats.median(ack), "ms", len(ack)),
        "result_p50_ms": (stats.median(result), "ms", len(result)),
        "results_per_s": (raw["results"] / raw["measured_s"], "1/s",
                          raw["results"]),
        "peak_rss_mb": (raw["peak_rss_kb"] / 1024.0, "MiB", 1),
    }
    for name, samples in (("ack_tail_ms", ack), ("result_tail_ms", result)):
        t = stats.tail(samples)
        if t is not None:
            m[name] = (t[0], "ms", t[2])
            m[name.replace("_ms", "_pct")] = (t[1], "%", t[2])
    return m


def per_layer(raw, spans, runner):
    """The traced run's layer metrics: name -> (value, unit, sample count)."""
    layers = raw["layers"]

    def sample(name, unit="ms"):
        v = layers.get(name, [])
        if isinstance(v, list):
            return stats.median(v), unit, len(v)
        return v, unit, 1

    jobs = raw["jobs"]
    loss = []
    if jobs["single_fanout"]:
        loss = stats.sched_loss_ms(jobs["run_ms"], jobs["busy_ms"],
                                   jobs["max_ms"], raw["width"])
    lateness = []
    if "open_loop" in raw:
        ol = raw["open_loop"]
        _, lateness = stats.open_loop(ol["period_ns"], ol["sched_ns"],
                                      ol["sent_ns"], ol["ack_ns"])
    m = {
        "graph.tsv_load_ms": sample("graph.tsv_load_ms"),
        "service.publish_ms": sample("service.publish_ms"),
        "storage.efg_load_ms": sample("storage.efg_load_ms"),
        "service.submit_ms": sample("service.submit_ms"),
        "service.queue_wait_ms": sample("service.queue_wait_ms"),
        "service.cache_hit_ratio": sample("service.cache_hit_ratio", "ratio"),
        "service.hit_result_ms": sample("service.hit_result_ms"),
        "ensemble.run_ms": (stats.median(jobs["run_ms"]), "ms",
                            len(jobs["run_ms"])),
        "ensemble.member_busy_ms": (stats.median(jobs["busy_ms"]), "ms",
                                    len(jobs["busy_ms"])),
        "ensemble.member_max_ms": (stats.median(jobs["max_ms"]), "ms",
                                   len(jobs["max_ms"])),
        "ensemble.member_inflation": sample("ensemble.member_inflation",
                                            "ratio"),
        "pool.sched_loss_ms": (stats.median(loss), "ms", len(loss)),
        "ensemble.arena_grow_events": sample("ensemble.arena_grow_events",
                                             "count"),
        "eval.report_write_ms": sample("eval.report_write_ms"),
        "storage.wal_append_ms": sample("storage.wal_append_ms"),
        "storage.wal_records_recovered": sample(
            "storage.wal_records_recovered", "count"),
        "ingest.component_recompute_frac": sample(
            "ingest.component_recompute_frac", "ratio"),
        "ingest.edge_recompute_frac": sample("ingest.edge_recompute_frac",
                                             "ratio"),
        "ingest.backlog_max": sample("ingest.backlog_max", "count"),
        "gen.lateness_p50_ms": (stats.median(lateness), "ms", len(lateness)),
        "gen.lateness_max_ms": (max(lateness, default=0.0), "ms",
                                len(lateness)),
        "trace.unattributed_frac": (stats.unattributed_share(spans), "ratio",
                                    len(spans)),
        "runner.calib_cpu_ns": (runner["calib_cpu_ns"], "ns", 2),
        "runner.calib_mem_ns": (runner["calib_mem_ns"], "ns", 2),
        "runner.steal_frac": (runner["steal_frac"], "ratio", 1),
    }
    return m


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args()

    try:
        build()
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 1
    # The first run in a checkout may build for minutes; the run itself
    # must still end within the deadline.
    t_begin = time.monotonic()

    work = os.path.join(WORK_DIR, f"{a.workload}-{a.seed}-{a.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    common = ["--workload", a.workload, "--seed", str(a.seed), "--dir", work]
    remaining = lambda: DEADLINE_S - (time.monotonic() - t_begin)  # noqa: E731
    try:
        driver(["prep", *common], remaining())
        calib = [driver(["calib"], remaining())]
        cpu0 = cpu_times()
        raw = driver(["run", *common, "--seconds", str(a.seconds),
                      "--trace", str(a.trace)], remaining())
        cpu1 = cpu_times()
        calib.append(driver(["calib"], remaining()))
    except (OSError, subprocess.SubprocessError, ValueError) as e:
        log(f"driver failed: {e}")
        return 1

    steal = 0.0
    if cpu0 and cpu1 and cpu1[1] > cpu0[1]:
        steal = (cpu1[0] - cpu0[0]) / (cpu1[1] - cpu0[1])
    runner = {
        "calib_cpu_ns": sum(c["cpu_ns"] for c in calib) / len(calib),
        "calib_mem_ns": sum(c["mem_ns"] for c in calib) / len(calib),
        "calib_cpu_ns_before_after": [c["cpu_ns"] for c in calib],
        "calib_mem_ns_before_after": [c["mem_ns"] for c in calib],
        "steal_frac": steal,
        "nproc": raw["nproc"],
        "pool_width": raw["width"],
        "isa": raw["isa"],
    }

    spans = []
    if a.trace:
        # Keep the spans; the generated inputs are large and not needed.
        kept = os.path.join(WORK_DIR, "spans", f"{a.workload}-{a.seed}.jsonl")
        os.makedirs(os.path.dirname(kept), exist_ok=True)
        shutil.move(os.path.join(work, "spans.jsonl"), kept)
        with open(kept) as f:
            spans = [json.loads(line) for line in f]
    shutil.rmtree(work, ignore_errors=True)

    e2e = end_to_end(raw)
    layers = per_layer(raw, spans, runner) if a.trace else {}
    print(f"# {a.workload} seed={a.seed} trace={a.trace}")
    for name, (value, unit, n) in {**e2e, **layers}.items():
        print(f"#   {name:<32} {value:>14.4f} {unit:<5} n={n}")
    f1 = raw["layers"].get("f1", [])
    print(f"#   quality: F1 at T=N/10 median {stats.median(f1):.4f}, "
          f"min {min(f1, default=0.0):.4f} over {len(f1)} reports")
    for failure in raw["failures"]:
        print(f"#   FAILED: {failure}")
    print("# runner " + json.dumps(runner))
    detail = {k: {"value": v, "unit": u, "samples": n}
              for k, (v, u, n) in e2e.items()}
    detail["f1_min"] = {"value": min(f1, default=0.0), "unit": "ratio",
                        "samples": len(f1)}
    print("# detail " + json.dumps(detail))

    # The result carries exactly the metrics BENCHMARK.json declares.
    with open("BENCHMARK.json") as f:
        declared = json.load(f)["per_layer" if a.trace else "end_to_end"]
    computed = layers if a.trace else e2e
    reported = {m["name"]: computed[m["name"]] for m in declared}
    print(json.dumps({
        "correct": raw["failed"] == 0,
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u, _) in reported.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
