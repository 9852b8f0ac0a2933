"""Tests of the benchmark's statistics, checks and result schema.

    python3 perfbench/test_benchlib.py
"""

import copy
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import benchlib  # noqa: E402

BENCHMARK = benchlib.load_json(
    os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                 "BENCHMARK.json"))


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))  # 1..100; input order must not matter
        values.reverse()
        self.assertEqual(benchlib.tail_percentile(values * 10, 0.5), 50)

    def test_p99_needs_ten_samples_beyond(self):
        self.assertEqual(benchlib.samples_beyond(1000, 0.99), 10)
        self.assertEqual(benchlib.samples_beyond(999, 0.99), 9)
        self.assertEqual(benchlib.tail_percentile(list(range(1000)), 0.99), 989)
        with self.assertRaises(ValueError):
            benchlib.tail_percentile(list(range(999)), 0.99)

    def test_median_of_few_samples_is_refused(self):
        with self.assertRaises(ValueError):
            benchlib.tail_percentile([1.0] * 19, 0.5)
        self.assertEqual(benchlib.tail_percentile([1.0] * 20, 0.5), 1.0)


class DistanceTest(unittest.TestCase):
    def test_uniform_shares_have_zero_distance(self):
        self.assertEqual(benchlib.tv_distance([5, 5, 5, 5]), 0.0)

    def test_all_on_one_backend(self):
        self.assertAlmostEqual(benchlib.tv_distance([8, 0, 0, 0]), 0.75)

    def test_two_backends(self):
        self.assertAlmostEqual(benchlib.tv_distance([3, 1]), 0.25)

    def test_empty_total_is_refused(self):
        with self.assertRaises(ValueError):
            benchlib.tv_distance([0, 0])


class SpreadAndReferenceTest(unittest.TestCase):
    def test_quartile_spread(self):
        # quantiles(n=4) of 1..9 (exclusive method): 2.5, 5, 7.5.
        self.assertAlmostEqual(benchlib.quartile_spread(range(1, 10)), 1.0)

    def test_nine_in_ten(self):
        values = [float(v) for v in range(1, 12)]  # 1..11
        self.assertAlmostEqual(benchlib.nine_in_ten_rate(values), 2.0)
        self.assertAlmostEqual(benchlib.nine_in_ten_time(values), 10.0)
        self.assertEqual(benchlib.nine_in_ten_rate([7.0]), 7.0)
        self.assertEqual(benchlib.nine_in_ten_time(iter([7.0])), 7.0)

    def test_within_reference(self):
        reference = {"mean": 4.0, "sd": 0.1}
        self.assertTrue(benchlib.within_reference(4.59, reference))
        self.assertFalse(benchlib.within_reference(4.61, reference))
        self.assertFalse(benchlib.within_reference(3.39, reference))

    def test_summarize_reference(self):
        summary = benchlib.summarize_reference([1.0, 2.0, 3.0])
        self.assertEqual(summary, {"mean": 2.0, "sd": 1.0, "n": 3})
        floored = benchlib.summarize_reference([1.0, 2.0, 3.0], min_rel_sd=0.75)
        self.assertEqual(floored["sd"], 1.5)


class SchemaTest(unittest.TestCase):
    def values(self, trace):
        return {name: 1.5 for name in benchlib.metric_specs(BENCHMARK, trace)}

    def test_repository_benchmark_file_is_valid(self):
        benchlib.validate_benchmark(BENCHMARK)

    def test_result_has_every_metric_with_its_unit(self):
        for trace in (False, True):
            result = benchlib.make_result(BENCHMARK, trace, self.values(trace),
                                          attempted=3, failed=0, correct=True)
            benchlib.validate_result(result, BENCHMARK, trace)
            self.assertEqual(result["metrics"]["setup_s" if not trace
                                               else "policy.select_ns"]["unit"],
                             "s" if not trace else "ns")

    def test_missing_or_extra_metric_is_refused(self):
        values = self.values(False)
        del values["jobs_per_s"]
        with self.assertRaises(ValueError):
            benchlib.make_result(BENCHMARK, False, values, 1, 0, True)
        values = self.values(False)
        values["policy.select_ns"] = 1.0
        with self.assertRaises(ValueError):
            benchlib.make_result(BENCHMARK, False, values, 1, 0, True)

    def test_malformed_results_are_refused(self):
        good = benchlib.make_result(BENCHMARK, False, self.values(False), 2, 0,
                                    True)
        broken = []
        for mutate in (
                lambda r: r.update(attempted=0),
                lambda r: r.update(failed=3),
                lambda r: r.update(correct=1),
                lambda r: r.update(attempted=True),
                lambda r: r.update(extra=1),
                lambda r: r["metrics"]["setup_s"].update(unit="ms"),
                lambda r: r["metrics"]["setup_s"].update(value=float("nan")),
                lambda r: r["metrics"].pop("setup_s")):
            result = copy.deepcopy(good)
            mutate(result)
            broken.append(result)
        for result in broken:
            with self.assertRaises(ValueError):
                benchlib.validate_result(result, BENCHMARK, False)

    def test_malformed_benchmark_files_are_refused(self):
        for mutate in (
                lambda b: b["end_to_end"][0].update(bound=0.3),
                lambda b: b.update(workloads=b["workloads"][:1]),
                lambda b: b["workloads"][0].update(name="bad name"),
                lambda b: b["per_layer"].append(dict(b["per_layer"][0])),
                lambda b: b.update(run_seconds=61),
                lambda b: b["end_to_end"].pop(1)):  # setup_s
            benchmark = copy.deepcopy(BENCHMARK)
            mutate(benchmark)
            with self.assertRaises(ValueError):
                benchlib.validate_benchmark(benchmark)


if __name__ == "__main__":
    unittest.main()
