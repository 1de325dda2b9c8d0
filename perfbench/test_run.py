"""Tests for the benchmark's own arithmetic.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import statistics
import unittest

import run


def job(key, committed=100, digest="d", ok=True, resumed=False):
    return {"key": key, "ok": ok, "resumed": resumed, "committed": committed, "cycles": 50,
            "digest": digest}


class Quartiles(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0]
        q1, med, q3 = run.quartiles(values)
        self.assertEqual([q1, med, q3], statistics.quantiles(values, n=4))
        self.assertEqual(med, 5.5)
        self.assertEqual((q1, q3), (2.75, 8.25))

    def test_single_value_is_its_own_quartiles(self):
        self.assertEqual(run.quartiles([4.2]), (4.2, 4.2, 4.2))

    def test_spread_is_iqr_over_median(self):
        self.assertAlmostEqual(run.spread([1.0, 2.0, 3.0, 4.0, 5.0]), (4.5 - 1.5) / 3.0)


class JobSum(unittest.TestCase):
    def test_sums_committed_over_successful_jobs_only(self):
        jobs = [job("a", 2_000_000), job("b", 3_000_000), job("c", 7, ok=False)]
        self.assertEqual(run.committed_sum(jobs), 5_000_000)
        self.assertAlmostEqual(run.minst_per_s(jobs, 2.0), 2.5)


class Digests(unittest.TestCase):
    REF = {"jobs": {"a/x": "11", "a/y": "22"}}

    def test_all_equal_is_no_failure(self):
        self.assertEqual(run.failed_jobs([job("a/x", digest="11"), job("a/y", digest="22")],
                                         self.REF), (2, 0, []))

    def test_mismatch_failure_resume_and_missing_each_count(self):
        cases = [
            [job("a/x", digest="11"), job("a/y", digest="23")],
            [job("a/x", digest="11"), job("a/y", ok=False)],
            [job("a/x", digest="11"), job("a/y", digest="22", resumed=True)],
            [job("a/x", digest="11")],
        ]
        for jobs in cases:
            attempted, failed, reasons = run.failed_jobs(jobs, self.REF)
            self.assertEqual((attempted, failed), (2, 1), reasons)

    def test_unknown_job_counts_as_failed(self):
        jobs = [job("a/x", digest="11"), job("a/y", digest="22"), job("b/x", digest="33")]
        self.assertEqual(run.failed_jobs(jobs, self.REF)[:2], (3, 1))


class SampledError(unittest.TestCase):
    def test_mean_relative_error_in_percent(self):
        full = {"a": 2.0, "b": 1.0}
        self.assertAlmostEqual(run.sample_ipc_err_pct({"a": 2.2, "b": 0.95}, full), 7.5)


class Spans(unittest.TestCase):
    def test_self_time_subtracts_merged_child_intervals(self):
        spans = [
            {"id": 0, "name": "root", "parent": None, "start": 0.0, "end": 10.0},
            # Two threads: overlapping children cover [1, 6] once.
            {"id": 1, "name": "work", "parent": 0, "start": 1.0, "end": 5.0},
            {"id": 2, "name": "work", "parent": 0, "start": 2.0, "end": 6.0},
        ]
        total, own = run.self_times(spans)
        self.assertEqual(total, {"root": 10.0, "work": 8.0})
        self.assertEqual(own, {"root": 5.0, "work": 8.0})

    def test_covered_time_of_disjoint_and_nested_intervals(self):
        self.assertEqual(run.covered_time([(0, 1), (2, 4), (3, 3.5)]), 3)
        self.assertEqual(run.covered_time([]), 0)


class Seeds(unittest.TestCase):
    def test_seeds_select_variants_and_the_default_selects_itself(self):
        self.assertEqual(run.variant(run.DEFAULT_SEED), run.DEFAULT_SEED)
        self.assertEqual([run.variant(s) for s in (1, 8, 9, 0, -1)], [1, 8, 1, 8, 7])

    def test_every_variant_has_a_committed_reference(self):
        for workload in run.WORKLOADS:
            for seed in range(1, run.SEED_VARIANTS + 1):
                ref = run.load_reference(workload, seed)
                self.assertTrue(ref["jobs"], (workload, seed))
        self.assertEqual(len(run.load_reference("sampled-full", 5)["full_ipc"]), 24)


class Contract(unittest.TestCase):
    def test_per_layer_names_match_benchmark_json(self):
        path = os.path.join(os.path.dirname(run.HERE), "BENCHMARK.json")
        with open(path) as f:
            bench = json.load(f)
        self.assertEqual([m["name"] for m in bench["per_layer"]], list(run.PER_LAYER))
        self.assertEqual([m["name"] for m in bench["end_to_end"]], list(run.END_TO_END))
        self.assertEqual([w["name"] for w in bench["workloads"]], list(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
