#!/usr/bin/env python3
"""Validate metrics scrapes produced by `ensemfdet_cli` (--metrics-out,
metrics-dump).

Usage:
    tools/check_metrics.py SCRAPE              # single-scrape validation
    tools/check_metrics.py SCRAPE_A SCRAPE_B   # + coverage & monotonicity

Scrapes may be either export format; the parser is picked by extension
(.json = the JSON exporter, anything else = Prometheus text).

Single-scrape checks:
  * parseable, non-empty, unique metric names,
  * naming convention (DESIGN.md "Observability"): every series is
    ensemfdet_<layer>_..., counters end in _total, histograms in
    _seconds, gauges in neither suffix, and <layer> is one of the known
    engine layers,
  * every series carries non-empty help text: `# HELP` preceding
    `# TYPE` in the Prometheus exposition, a "help" key in JSON — a
    scrape is only self-describing if a human reading it cold can tell
    what each series measures,
  * Prometheus HELP text is exposition-escaped (no raw newline can
    survive serialization, so we check the escape sequences re-decode),
  * histogram internal consistency: cumulative buckets non-decreasing
    with the final (+Inf) bucket equal to the observation count.

Two-scrape checks (A scraped before B in the same process — the
metrics-dump subcommand emits exactly this pair around its streaming
phase):
  * every series of A is still present in B with the same type,
  * counters and histogram counts/sums are monotone non-decreasing A->B
    (a decrease means a counter was reset or two registries were mixed),
  * B covers the required per-layer series — the scrapes prove every
    engine layer (pool, detect, cache, ingest, service, storage, stream,
    wal) actually recorded, not just that the binary links the obs library.

Exit codes: 0 all checks passed; 1 a check failed; 2 usage errors.
"""

import json
import re
import sys

NAME_RE = re.compile(r"^ensemfdet_[a-z0-9]+(_[a-z0-9]+)+$")
KNOWN_LAYERS = {
    "cache", "detect", "ingest", "pool", "service", "storage", "stream",
    "wal",
    # The obs bench times its tight loops against scratch instruments; they
    # never reach the global registry but keep the convention anyway.
    "benchobs",
}

# The cross-layer coverage contract: series that must exist (with these
# types) in a scrape taken after metrics-dump's full workload. Histogram
# bucket layouts and the remaining ~20 series are validated generically;
# this list pins one load-bearing series per instrument per layer so a
# layer silently losing its instrumentation fails CI.
REQUIRED = {
    "ensemfdet_cache_hits_total": "counter",
    "ensemfdet_cache_misses_total": "counter",
    "ensemfdet_cache_insertions_total": "counter",
    "ensemfdet_detect_runs_total": "counter",
    "ensemfdet_detect_members_total": "counter",
    "ensemfdet_detect_run_seconds": "histogram",
    "ensemfdet_detect_member_sample_seconds": "histogram",
    "ensemfdet_detect_member_peel_seconds": "histogram",
    "ensemfdet_detect_aggregate_seconds": "histogram",
    "ensemfdet_ingest_events_ingested_total": "counter",
    "ensemfdet_ingest_publishes_total": "counter",
    "ensemfdet_ingest_publish_seconds": "histogram",
    "ensemfdet_pool_tasks_total": "counter",
    "ensemfdet_pool_workers": "gauge",
    "ensemfdet_pool_queue_depth": "gauge",
    "ensemfdet_pool_task_run_seconds": "histogram",
    "ensemfdet_pool_task_wait_seconds": "histogram",
    "ensemfdet_service_jobs_submitted_total": "counter",
    "ensemfdet_service_jobs_done_total": "counter",
    "ensemfdet_service_stream_batches_total": "counter",
    "ensemfdet_service_stream_reports_total": "counter",
    "ensemfdet_service_open_streams": "gauge",
    "ensemfdet_service_job_run_seconds": "histogram",
    "ensemfdet_storage_writes_total": "counter",
    "ensemfdet_storage_loads_total": "counter",
    "ensemfdet_storage_verifies_total": "counter",
    "ensemfdet_storage_bytes_written_total": "counter",
    "ensemfdet_storage_load_seconds": "histogram",
    "ensemfdet_stream_reports_total": "counter",
    "ensemfdet_stream_components_total": "counter",
    "ensemfdet_stream_components_reused_total": "counter",
    "ensemfdet_stream_edges_total": "counter",
    "ensemfdet_stream_detect_seconds": "histogram",
    "ensemfdet_wal_appends_total": "counter",
    "ensemfdet_wal_fsyncs_total": "counter",
    "ensemfdet_wal_segments_created_total": "counter",
    "ensemfdet_wal_records_replayed_total": "counter",
    "ensemfdet_wal_append_seconds": "histogram",
    "ensemfdet_wal_replay_seconds": "histogram",
}


class CheckFailure(Exception):
    pass


def check(cond, message):
    if not cond:
        raise CheckFailure(message)


def parse_json(path, text):
    doc = json.loads(text)
    check("metrics" in doc, f"{path}: no 'metrics' array")
    out = {}
    for m in doc["metrics"]:
        entry = {"type": m["type"], "help": m.get("help")}
        if m["type"] == "histogram":
            entry["count"] = m["count"]
            entry["sum"] = m["sum"]
            entry["buckets"] = [b["count"] for b in m["buckets"]]
        else:
            entry["value"] = m["value"]
        out[m["name"]] = entry
    return out


def unescape_help(path, name, raw):
    """Decodes Prometheus exposition escaping (\\ and \\n); a lone
    backslash before anything else means the exporter's escaping is
    broken, so fail rather than guess."""
    decoded = []
    i = 0
    while i < len(raw):
        ch = raw[i]
        if ch == "\\":
            check(i + 1 < len(raw) and raw[i + 1] in ("\\", "n"),
                  f"{path}: HELP for '{name}' has invalid escape at "
                  f"column {i}: {raw!r}")
            decoded.append("\\" if raw[i + 1] == "\\" else "\n")
            i += 2
        else:
            decoded.append(ch)
            i += 1
    return "".join(decoded)


def parse_prometheus(path, text):
    out = {}
    pending_help = {}  # name -> help text seen before its TYPE line
    for line in text.splitlines():
        line = line.rstrip("\n")
        if not line.strip():
            continue
        if line.startswith("# HELP "):
            rest = line[len("# HELP "):]
            name, _, help_text = rest.partition(" ")
            check(name not in pending_help and name not in out,
                  f"{path}: duplicate HELP for {name}")
            pending_help[name] = unescape_help(path, name, help_text)
            continue
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split()
            check(name in pending_help,
                  f"{path}: TYPE for '{name}' without a preceding HELP")
            out[name] = {"type": kind, "help": pending_help.pop(name)}
            if kind == "histogram":
                out[name]["buckets"] = []
            continue
        check(not line.startswith("#"), f"{path}: unexpected comment {line}")
        line = line.strip()
        series, value = line.rsplit(" ", 1)
        value = float(value)
        if series.endswith("}") and "_bucket{" in series:
            base = series.split("_bucket{", 1)[0]
            out[base]["buckets"].append(value)
        elif series.endswith("_sum") and series[:-4] in out:
            out[series[:-4]]["sum"] = value
        elif series.endswith("_count") and series[:-6] in out:
            out[series[:-6]]["count"] = value
        else:
            check(series in out, f"{path}: sample for undeclared {series}")
            out[series]["value"] = value
    check(not pending_help,
          f"{path}: HELP without TYPE for {sorted(pending_help)}")
    return out


def load(path):
    try:
        with open(path) as f:
            text = f.read()
    except OSError as e:
        print(f"check_metrics: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    try:
        if path.endswith(".json"):
            return parse_json(path, text)
        return parse_prometheus(path, text)
    except (json.JSONDecodeError, KeyError, ValueError) as e:
        raise CheckFailure(f"{path}: malformed scrape: {e!r}")


def validate_scrape(path, metrics):
    check(metrics, f"{path}: empty scrape")
    for name, m in metrics.items():
        check(NAME_RE.match(name),
              f"{path}: '{name}' violates ensemfdet_<layer>_<name>")
        layer = name.split("_")[1]
        check(layer in KNOWN_LAYERS,
              f"{path}: '{name}' names unknown layer '{layer}'")
        check(isinstance(m.get("help"), str) and m["help"].strip(),
              f"{path}: '{name}' has no help text")
        kind = m["type"]
        if kind == "counter":
            check(name.endswith("_total"),
                  f"{path}: counter '{name}' must end in _total")
            check(m["value"] >= 0, f"{path}: counter '{name}' negative")
        elif kind == "histogram":
            check(name.endswith("_seconds"),
                  f"{path}: histogram '{name}' must end in _seconds")
            buckets = m["buckets"]
            check(buckets == sorted(buckets),
                  f"{path}: '{name}' cumulative buckets decrease")
            # The JSON exporter trims an all-zero bucket list entirely.
            if buckets or m["count"]:
                check(buckets and buckets[-1] == m["count"],
                      f"{path}: '{name}' +Inf bucket "
                      f"{buckets[-1] if buckets else None} "
                      f"!= count {m['count']}")
        elif kind == "gauge":
            check(not name.endswith(("_total", "_seconds")),
                  f"{path}: gauge '{name}' wears a counter/histogram suffix")
        else:
            raise CheckFailure(f"{path}: '{name}' has unknown type '{kind}'")


def validate_pair(path_a, a, path_b, b):
    for name, ma in a.items():
        check(name in b, f"{name} present in {path_a} but gone in {path_b}")
        mb = b[name]
        check(ma["type"] == mb["type"],
              f"{name} changed type {ma['type']} -> {mb['type']}")
        if ma["type"] == "counter":
            check(mb["value"] >= ma["value"],
                  f"counter {name} went backwards: "
                  f"{ma['value']} -> {mb['value']}")
        elif ma["type"] == "histogram":
            check(mb["count"] >= ma["count"],
                  f"histogram {name} count went backwards: "
                  f"{ma['count']} -> {mb['count']}")
            check(mb["sum"] >= ma["sum"] - 1e-12,
                  f"histogram {name} sum went backwards: "
                  f"{ma['sum']} -> {mb['sum']}")
    for name, kind in sorted(REQUIRED.items()):
        check(name in b, f"{path_b}: required series '{name}' missing")
        check(b[name]["type"] == kind,
              f"{path_b}: '{name}' is a {b[name]['type']}, want {kind}")
    moved = sum(1 for n in a
                if a[n]["type"] == "counter" and b[n]["value"] > a[n]["value"])
    check(moved > 0,
          f"no counter moved between {path_a} and {path_b} — the workload "
          f"between the scrapes recorded nothing")


def main():
    paths = sys.argv[1:]
    if len(paths) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    try:
        scrapes = [(p, load(p)) for p in paths]
        for path, metrics in scrapes:
            validate_scrape(path, metrics)
        if len(scrapes) == 2:
            (pa, a), (pb, b) = scrapes
            validate_pair(pa, a, pb, b)
            print(f"check_metrics: OK {pa} ({len(a)} series) -> "
                  f"{pb} ({len(b)} series), "
                  f"{len(REQUIRED)} required series covered")
        else:
            print(f"check_metrics: OK {paths[0]} "
                  f"({len(scrapes[0][1])} series)")
    except CheckFailure as failure:
        print(f"check_metrics: FAIL: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
