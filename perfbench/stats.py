"""Pure statistics behind the benchmark's metrics (tested by test_stats.py)."""

import statistics

# A tail needs this many samples beyond it (README.md, "Tail").
TAIL_BEYOND = 10


def median(samples):
    """Median of `samples`, or 0.0 when there are none (layer not on path)."""
    return statistics.median(samples) if samples else 0.0


def tail(samples):
    """The highest percentile with at least TAIL_BEYOND samples beyond it.

    Returns (value, percentile, sample_count), or None when there are too
    few samples for a tail above the median: a tail never repeats or
    undercuts the median, so it needs at least 2 * TAIL_BEYOND + 2 samples.
    """
    n = len(samples)
    rank = n - TAIL_BEYOND  # 1-based rank in ascending order
    if rank <= (n + 1) // 2:
        return None
    return sorted(samples)[rank - 1], 100.0 * rank / n, n


def open_loop(period_ns, sched_ns, sent_ns, done_ns):
    """Latency of each open-loop send, timed from when it was due.

    `sched_ns[j]` must be exactly j * period_ns: a driver that falls
    behind keeps its schedule instead of re-basing it, so a stall also
    delays, and is charged to, every later send. Returns
    (latency_ms, lateness_ms) lists; lateness is sent minus due.
    """
    for j, due in enumerate(sched_ns):
        if due != j * period_ns:
            raise ValueError(f"send {j} due at {due}, schedule says "
                             f"{j * period_ns}")
    if not len(sched_ns) == len(sent_ns) == len(done_ns):
        raise ValueError("schedule, send and completion lists differ in length")
    latency = [(d - s) / 1e6 for s, d in zip(sched_ns, done_ns)]
    lateness = [(t - s) / 1e6 for s, t in zip(sched_ns, sent_ns)]
    return latency, lateness


def covered_ns(intervals, lo, hi):
    """Length of [lo, hi) covered by the union of `intervals`."""
    total, reach = 0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def unattributed_share(spans):
    """Share of root-span (operation) wall time no child span covers.

    `spans` are dicts with id, parent (-1 for a root), start_ns and end_ns.
    """
    children = {}
    for s in spans:
        if s["parent"] >= 0:
            children.setdefault(s["parent"], []).append(
                (s["start_ns"], s["end_ns"]))
    wall = uncovered = 0
    for s in spans:
        if s["parent"] >= 0:
            continue
        lo, hi = s["start_ns"], s["end_ns"]
        wall += hi - lo
        uncovered += hi - lo - covered_ns(children.get(s["id"], []), lo, hi)
    return uncovered / wall if wall > 0 else 0.0


def sched_loss_ms(run_ms, busy_ms, max_ms, width):
    """Per job: wall time beyond what `width` busy workers need.

    A job whose members kept `width` workers busy takes busy / width, and
    can never beat its slowest member; the rest is scheduling loss.
    """
    return [r - max(b / width, m) for r, b, m in zip(run_ms, busy_ms, max_ms)]


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0
