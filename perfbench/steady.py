#!/usr/bin/env python3
"""Steadiness record: runs each workload once per seed and summarises.

    python3 perfbench/steady.py --seeds 1-10 [--markdown FILE]

Runs every workload in BENCHMARK.json. Each run's table (every end-to-end
metric with its unit and sample count) is echoed, so `--seeds 7` runs
every workload once with seed 7.

For every end-to-end metric it gives the median, the quartiles and the
spread (interquartile distance over the median) of the per-run values,
with each run's runner calibration next to it, and marks each bounded
metric's spread (setup_s too) as "ok" below a third of its bound in
BENCHMARK.json, "WIDE" up to the bound and "OVER BOUND" beyond it.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        check=True, stdout=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    tagged = {line.split()[1]: json.loads(line.split(None, 2)[2])
              for line in lines if line.startswith("# runner ")
              or line.startswith("# detail ")}
    return {"seed": seed, "result": json.loads(lines[-1]),
            "runner": tagged["runner"], "detail": tagged["detail"],
            "table": [line for line in lines if line.startswith("#   ")]}


def summarise(runs, bounds):
    rows = {}
    for name in runs[0]["detail"]:
        values = [r["detail"][name]["value"] for r in runs
                  if name in r["detail"]]
        if len(values) < 2:
            continue
        q1, q2, q3 = statistics.quantiles(values, n=4)
        rows[name] = {"median": statistics.median(values), "q1": q1,
                      "q3": q3, "spread": stats.spread(values),
                      "bound": bounds.get(name), "runs": len(values)}
    return rows


def flag(row):
    """Where a spread sits against its bound; "" for an unbounded metric."""
    if row["bound"] is None:
        return ""
    if row["spread"] < row["bound"] / 3:
        return "ok"
    return "WIDE" if row["spread"] <= row["bound"] else "OVER BOUND"


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--markdown", default=None,
                   help="write the record as Markdown tables")
    a = p.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    records = []
    for workload in [w["name"] for w in bench["workloads"]]:
        runs = []
        for seed in parse_seeds(a.seeds):
            r = run_once(workload, seed, bench["run_seconds"])
            c = r["runner"]
            print("\n".join(r.pop("table")))
            print(f"{workload} seed={seed} correct={r['result']['correct']} "
                  f"failed={r['result']['failed']} "
                  f"cpu_ns={c['calib_cpu_ns']:.3f} "
                  f"mem_ns={c['calib_mem_ns']:.1f} "
                  f"steal={c['steal_frac']:.4f} " +
                  " ".join(f"{k}={v['value']:.4g}"
                           for k, v in r["detail"].items()), flush=True)
            runs.append(r)
        rows = summarise(runs, bounds)
        for name, row in rows.items():
            print(f"  {name:<16} median={row['median']:.4f} "
                  f"q1={row['q1']:.4f} q3={row['q3']:.4f} "
                  f"spread={row['spread']:.3f} {flag(row)}", flush=True)
        records.append({"workload": workload, "seconds": bench["run_seconds"],
                        "summary": rows, "runs": runs})
    if a.markdown:
        with open(a.markdown, "w") as f:
            f.write(markdown(records))
    return 0


def markdown(records):
    """Per workload: each run with its calibration, then the summary."""
    out = []
    for rec in records:
        names = list(rec["summary"])
        out.append(f"### {rec['workload']} ({len(rec['runs'])} runs of "
                   f"{rec['seconds']} s)\n")
        out.append("| seed | calib cpu ns | calib mem ns | steal | " +
                   " | ".join(names) + " |")
        out.append("|---" * (4 + len(names)) + "|")
        for r in rec["runs"]:
            c = r["runner"]
            cells = [f"{r['detail'][n]['value']:.4g}"
                     if n in r["detail"] else "-" for n in names]
            out.append(f"| {r['seed']} | "
                       f"{'/'.join(f'{v:.3f}' for v in c['calib_cpu_ns_before_after'])} | "
                       f"{'/'.join(f'{v:.1f}' for v in c['calib_mem_ns_before_after'])} | "
                       f"{c['steal_frac']:.4f} | " + " | ".join(cells) + " |")
        out.append("")
        out.append("| metric | median | q1 | q3 | spread | bound | "
                   "spread vs bound/3 |")
        out.append("|---|---|---|---|---|---|---|")
        for n, row in rec["summary"].items():
            bound = "-" if row["bound"] is None else f"{row['bound']}"
            out.append(f"| {n} | {row['median']:.4g} | {row['q1']:.4g} | "
                       f"{row['q3']:.4g} | {row['spread']:.3f} | {bound} | "
                       f"{flag(row)} |")
        out.append("")
    return "\n".join(out)


if __name__ == "__main__":
    sys.exit(main())
