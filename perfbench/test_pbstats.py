"""Tests for the benchmark's own arithmetic.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import unittest

import pbstats as st


class PercentileRule(unittest.TestCase):
    def test_p99_needs_ten_samples_beyond(self):
        p, v, n, beyond = st.tail_percentile(list(range(1, 1001)), 99.0)
        self.assertEqual((p, v, n, beyond), (99.0, 990, 1000, 10))

    def test_smaller_sample_falls_back_to_lower_percentile(self):
        p, v, n, beyond = st.tail_percentile(list(range(1, 501)), 99.0)
        self.assertAlmostEqual(p, 98.0)
        self.assertEqual((v, n, beyond), (490, 500, 10))

    def test_too_few_samples_for_any_tail(self):
        self.assertEqual(st.tail_percentile([1.0] * 10, 99.0), (None, None, 10, 0))

    def test_nearest_rank_is_not_shifted_by_rounding(self):
        # 0.99 * 1000 is 990.0000000000001 in binary floating point.
        self.assertEqual(st.percentile(list(range(1, 1001)), 99), 990)
        self.assertEqual(st.percentile([5.0, 1.0, 3.0], 50), 3.0)

    def test_failures_count_as_missing_the_limit(self):
        lat = [1.0] * 990 + [float("inf")] * 10
        self.assertEqual(st.tail_percentile(lat, 99.0)[1], 1.0)
        lat = [1.0] * 989 + [float("inf")] * 11
        self.assertEqual(st.tail_percentile(lat, 99.0)[1], float("inf"))


class SelfTime(unittest.TestCase):
    def span(self, i, parent, start, end, name="x"):
        return {"id": i, "parent": parent, "start_ms": start, "end_ms": end, "name": name}

    def test_overlapping_children_count_once(self):
        spans = [self.span(1, 0, 0, 100), self.span(2, 1, 10, 40), self.span(3, 1, 30, 60),
                 self.span(4, 1, 90, 120)]
        selfs = st.self_times(spans)
        # Covered: [10, 60] and [90, 100] (the last child is clipped).
        self.assertAlmostEqual(selfs[1], 40.0)
        self.assertAlmostEqual(selfs[2], 30.0)

    def test_union_length(self):
        self.assertAlmostEqual(st.union_length([(0, 2), (1, 3), (5, 6)]), 4.0)
        self.assertAlmostEqual(st.union_length([(0, 10)], 2, 5), 3.0)
        self.assertAlmostEqual(st.union_length([]), 0.0)

    def test_layers_and_coverage(self):
        spans = [self.span(1, 0, 0, 100, "pb/bench/pass"),
                 self.span(2, 1, 0, 80, "pb/core/t_sweep"),
                 self.span(3, 2, 0, 60, "solve/gauss-seidel"),
                 self.span(4, 2, 60, 70, "solve/level-qbd")]
        by_layer, share, coverage = st.layer_breakdown(spans)
        self.assertAlmostEqual(by_layer["bench"], 20.0)
        self.assertAlmostEqual(by_layer["core"], 10.0)
        self.assertAlmostEqual(by_layer["linalg"], 60.0)
        self.assertAlmostEqual(by_layer["ctmc"], 10.0)
        self.assertAlmostEqual(sum(share.values()), 1.0)
        self.assertAlmostEqual(coverage, 0.8)


class Lateness(unittest.TestCase):
    def test_latency_is_timed_from_due_time(self):
        due, sent, recv = [1.0, 2.0], [1.001, 2.010], [1.002, 2.011]
        self.assertEqual([round(x, 6) for x in st.lateness_ms(due, sent)], [1.0, 10.0])
        self.assertEqual([round(x, 6) for x in st.latency_ms(due, recv, [True, True])],
                         [2.0, 11.0])
        self.assertEqual(st.latency_ms(due, recv, [True, False])[1], float("inf"))

    def test_lateness_is_never_negative(self):
        self.assertEqual(st.lateness_ms([1.0], [0.999]), [0.0])


class Traffic(unittest.TestCase):
    def test_bytes_and_flops_of_one_sweep(self):
        bytes_moved, flops = st.sweep_traffic(2, 4)
        # values + indices 4*16, row pointers 3*8, gathers 4*8, diag+write 2*16.
        self.assertEqual(bytes_moved, 64 + 24 + 32 + 32)
        self.assertEqual(flops, 8)
        self.assertAlmostEqual(flops / bytes_moved, 8 / 152)


if __name__ == "__main__":
    unittest.main()
