"""Tests of the benchmark's own arithmetic.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import tempfile
import unittest

import stats


class SlicePercentile(unittest.TestCase):
    def test_median_and_p95_of_slices(self):
        values = [float(v) for v in range(1, 201)]  # 200 slices, 1..200 us/op
        self.assertEqual(stats.slice_percentile(values, 0.50), 100.0)
        # Rank ceil(0.95 * 200) = 190 leaves exactly ten slices beyond it.
        self.assertEqual(stats.slice_percentile(values, 0.95), 190.0)

    def test_p95_needs_ten_slices_beyond(self):
        values = [float(v) for v in range(199)]  # rank 190 leaves only 9
        with self.assertRaises(stats.TooFewSlices):
            stats.slice_percentile(values, 0.95)

    def test_order_does_not_matter(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0] * 60
        self.assertEqual(stats.slice_percentile(values, 0.5), 3.0)


class SliceMinimum(unittest.TestCase):
    def test_least_time_per_slice(self):
        a = [(0.004, 10), (0.009, 12), (0.002, 0)]
        b = [(0.005, 10), (0.003, 12), (0.001, 0)]
        self.assertEqual(stats.slice_minimum([a, b]), [(0.004, 10), (0.003, 12), (0.001, 0)])

    def test_one_execution_is_unchanged(self):
        a = [(0.004, 10), (0.009, 12)]
        self.assertEqual(stats.slice_minimum([a]), a)

    def test_different_operation_counts_are_rejected(self):
        with self.assertRaises(stats.Nondeterministic):
            stats.slice_minimum([[(0.004, 10), (0.009, 12)], [(0.004, 10), (0.009, 13)]])


class PerOpNormalisation(unittest.TestCase):
    def test_per_slice_cost(self):
        self.assertEqual(stats.per_op_slices([(0.001, 10), (0.002, 10)]), [100.0, 200.0])

    def test_empty_slice_carries_into_next(self):
        # The 3 ms of a slice that finished nothing is charged to the next.
        self.assertEqual(stats.per_op_slices([(0.001, 10), (0.003, 0), (0.001, 4)]),
                         [100.0, 1000.0])

    def test_trailing_empty_slices_charge_the_last(self):
        self.assertEqual(stats.per_op_slices([(0.001, 10), (0.001, 0)]), [200.0])

    def test_zero_ops_anywhere_is_an_error(self):
        with self.assertRaises(stats.ZeroOps):
            stats.per_op_slices([(0.01, 0), (0.02, 0)])
        with self.assertRaises(stats.ZeroOps):
            stats.per_op(1.0, 0)
        self.assertEqual(stats.per_op(10.0, 4), 2.5)

    def test_layer_ratio_with_empty_base_is_zero(self):
        self.assertEqual(stats.ratio(3, 0), 0.0)


class HostScaling(unittest.TestCase):
    def test_nominal_host_is_unscaled(self):
        ref = stats.NOMINAL_REFERENCE_NS
        self.assertEqual(stats.host_scale([ref, ref, ref]), 1.0)

    def test_slow_host_is_scaled_down_by_the_median_pass(self):
        ref = stats.NOMINAL_REFERENCE_NS
        # One stray slow pass does not move the median.
        self.assertEqual(stats.host_scale([2 * ref, 2 * ref, 9 * ref]), 0.5)
        # 30 us measured while the host ran at half speed is 15 us nominal.
        self.assertEqual(30.0 * stats.host_scale([2 * ref]), 15.0)

    def test_each_time_scaled_by_its_own_pass(self):
        ref = stats.NOMINAL_REFERENCE_NS
        self.assertEqual(stats.scaled_pairs([1.0, 3.0], [ref, 1.5 * ref]), [1.0, 2.0])
        with self.assertRaises(ValueError):
            stats.scaled_pairs([1.0, 3.0], [ref])


class FailedFraction(unittest.TestCase):
    def tally(self, **kw):
        t = {"attempted": 100, "timed_out": 0, "refused": 0, "aborted": 0}
        t.update(kw)
        return t

    def test_refusals_and_aborts_are_failures(self):
        self.assertEqual(stats.failed_frac(self.tally()), 0.0)
        self.assertEqual(stats.failed_frac(self.tally(refused=3)), 0.03)
        self.assertEqual(stats.failed_frac(self.tally(aborted=2, timed_out=5, refused=3)), 0.10)
        self.assertEqual(stats.failed_count(self.tally(aborted=2, refused=1)), 3)

    def test_nothing_attempted(self):
        with self.assertRaises(stats.ZeroOps):
            stats.failed_frac(self.tally(attempted=0))


class FingerprintGate(unittest.TestCase):
    MODEL = {"p50_ms": 32.08, "p99_ms": 44.485, "ops_per_sim_s": 4086.48,
             "unavailable_ms": 13.455, "attempted": 93989, "ok": 93989,
             "fingerprint": "689da87cd90e87a7163ef3aa3b6b9f93"}

    def test_identical_runs_pass(self):
        with tempfile.TemporaryDirectory() as d:
            stats.check_model(d, "w-s1", dict(self.MODEL))
            stats.check_model(d, "w-s1", dict(self.MODEL))

    def test_perturbed_run_is_rejected(self):
        for field, value in [("fingerprint", "689da87cd90e87a7163ef3aa3b6b9f94"),
                             ("p99_ms", 44.485000000000006), ("attempted", 93990)]:
            with tempfile.TemporaryDirectory() as d:
                stats.check_model(d, "w-s1", dict(self.MODEL))
                perturbed = dict(self.MODEL, **{field: value})
                with self.assertRaises(stats.Nondeterministic):
                    stats.check_model(d, "w-s1", perturbed)

    def test_other_seed_is_independent(self):
        with tempfile.TemporaryDirectory() as d:
            stats.check_model(d, "w-s1", dict(self.MODEL))
            stats.check_model(d, "w-s2", dict(self.MODEL, fingerprint="0"))


if __name__ == "__main__":
    unittest.main()
