#!/usr/bin/env python3
"""Tests of the benchmark's own arithmetic:

    python3 perfbench/test_stats.py
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402


class TailTest(unittest.TestCase):
    def test_no_tail_with_ten_or_fewer_samples(self):
        self.assertIsNone(stats.tail([]))
        self.assertIsNone(stats.tail([5.0]))
        self.assertIsNone(stats.tail([float(i) for i in range(10)]))

    def test_no_tail_at_or_below_the_median(self):
        # With 11..21 samples the value with ten beyond it is at or below
        # the median: no tail rather than the median again.
        for n in (11, 15, 20, 21):
            self.assertIsNone(stats.tail([float(i) for i in range(n)]), n)

    def test_first_tail_lies_above_the_median(self):
        value, pct, n = stats.tail([float(i) for i in range(22, 0, -1)])
        self.assertEqual((value, n), (12.0, 22))
        self.assertAlmostEqual(pct, 100.0 * 12 / 22)

    def test_hundred_samples_give_p90(self):
        value, pct, n = stats.tail([float(i) for i in range(1, 101)])
        self.assertEqual((value, pct, n), (90.0, 90.0, 100))

    def test_thousand_samples_give_p99(self):
        samples = [float(i) for i in range(1000)]
        value, pct, _ = stats.tail(samples[::-1])
        self.assertEqual((value, pct), (989.0, 99.0))
        # Exactly ten samples lie beyond the tail value.
        self.assertEqual(sum(1 for s in samples if s > value), 10)


class OpenLoopTest(unittest.TestCase):
    def test_on_time_driver(self):
        latency, lateness = stats.open_loop(
            100, [0, 100, 200], [0, 100, 200], [10, 120, 205])
        self.assertEqual(latency, [10e-6, 20e-6, 5e-6])
        self.assertEqual(lateness, [0.0, 0.0, 0.0])

    def test_driver_that_falls_behind_is_charged_from_the_due_time(self):
        # The second send stalls for 250 ns; the third is due at 200 but
        # can only go out after the second returns, at 360.
        latency, lateness = stats.open_loop(
            100, [0, 100, 200], [0, 100, 360], [10, 350, 370])
        self.assertEqual(latency, [10e-6, 250e-6, 170e-6])
        self.assertEqual(lateness, [0.0, 0.0, 160e-6])

    def test_rebased_schedule_is_rejected(self):
        # A driver that re-bases after a stall (next send due 100 after the
        # late one, not on the original grid) would hide the stall.
        with self.assertRaises(ValueError):
            stats.open_loop(100, [0, 100, 460], [0, 100, 460],
                            [10, 350, 470])

    def test_lengths_must_match(self):
        with self.assertRaises(ValueError):
            stats.open_loop(100, [0, 100], [0, 100], [10])


def span(sid, parent, start, end):
    return {"id": sid, "parent": parent, "start_ns": start, "end_ns": end}


class SpanTest(unittest.TestCase):
    def test_fully_covered_operation(self):
        spans = [span(0, -1, 0, 100), span(1, 0, 0, 40), span(2, 0, 40, 100)]
        self.assertEqual(stats.unattributed_share(spans), 0.0)

    def test_gap_and_overlap(self):
        # Children cover [0, 30) and [20, 50) (overlapping) and [80, 90);
        # the uncovered part of [0, 100) is [50, 80) and [90, 100).
        spans = [span(0, -1, 0, 100), span(1, 0, 0, 30), span(2, 0, 20, 50),
                 span(3, 0, 80, 90)]
        self.assertAlmostEqual(stats.unattributed_share(spans), 0.4)

    def test_children_clipped_to_their_root_and_shares_pooled(self):
        # Op 0: 100 ns, child sticks out past the root: 50 uncovered.
        # Op 1: 300 ns, no children: 300 uncovered. Pooled: 350 / 400.
        spans = [span(0, -1, 0, 100), span(1, 0, 50, 500),
                 span(2, -1, 1000, 1300)]
        self.assertAlmostEqual(stats.unattributed_share(spans), 350 / 400)

    def test_no_operations(self):
        self.assertEqual(stats.unattributed_share([]), 0.0)

    def test_sched_loss(self):
        # Busy 300 ms over 3 workers needs 100 ms; the slowest member
        # needs 120 ms; a 150 ms run lost 30 ms. A run bounded by its
        # busy time: 200 ms busy / 2 workers = 100, run 110 -> 10 lost.
        self.assertEqual(
            stats.sched_loss_ms([150.0, 110.0], [300.0, 200.0],
                                [120.0, 50.0], 3),
            [30.0, 110.0 - 200.0 / 3])
        self.assertEqual(stats.sched_loss_ms([110.0], [200.0], [50.0], 2),
                         [10.0])


class SpreadTest(unittest.TestCase):
    def test_spread_is_iqr_over_median(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
        q1, q2, q3 = 2.75, 5.5, 8.25
        self.assertAlmostEqual(stats.spread(values), (q3 - q1) / q2)


if __name__ == "__main__":
    unittest.main()
