"""Tests of run.py's result-row schema check, contract line and spread.

    cd perfbench && python3 -m unittest -q test_run
"""

import copy
import json
import os
import unittest

import run


def load_bench():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def sample_row(bench, trace=0):
    metrics = {m["name"]: {"value": 1.25, "unit": m["unit"]}
               for m in run.expected_metrics(bench, trace)}
    return {
        "schema": run.ROW_SCHEMA, "workload": "model_bound", "seed": 3,
        "trace": trace, "rounds": 200, "latency_samples": 200,
        "latency_top_percentile": 0.95, "correct": True, "attempted": 12,
        "failed": 0, "error_rate": 0.0, "checks": [], "metrics": metrics,
        "span_self_ms": {}, "spans_file": "", "cpu_steal_share": 0.01,
        "host": {"nproc": 4, "cpu_model": "cpu", "compiler": "GNU 12",
                 "build_type": "Release", "build_flags": "-O3"},
    }


class ValidateRowTest(unittest.TestCase):
    def setUp(self):
        self.bench = load_bench()

    def test_accepts_rows_of_both_modes(self):
        run.validate_row(sample_row(self.bench, 0), self.bench, 0)
        run.validate_row(sample_row(self.bench, 1), self.bench, 1)

    def test_refuses_the_other_modes_metrics(self):
        with self.assertRaises(run.BenchError):
            run.validate_row(sample_row(self.bench, 1), self.bench, 0)

    def test_refuses_missing_or_extra_keys(self):
        row = sample_row(self.bench)
        del row["host"]
        with self.assertRaises(run.BenchError):
            run.validate_row(row, self.bench, 0)
        row = sample_row(self.bench)
        row["extra"] = 1
        with self.assertRaises(run.BenchError):
            run.validate_row(row, self.bench, 0)

    def test_refuses_bad_values(self):
        for bad in (None, float("nan"), "1.0", True):
            row = sample_row(self.bench)
            row["metrics"]["setup_s"]["value"] = bad
            with self.assertRaises(run.BenchError, msg=repr(bad)):
                run.validate_row(row, self.bench, 0)
        row = sample_row(self.bench)
        row["metrics"]["setup_s"]["unit"] = "ms"
        with self.assertRaises(run.BenchError):
            run.validate_row(row, self.bench, 0)
        row = sample_row(self.bench)
        row["attempted"] = 0
        with self.assertRaises(run.BenchError):
            run.validate_row(row, self.bench, 0)

    def test_contract_line_has_exactly_the_contract_keys(self):
        line = run.contract_line(sample_row(self.bench))
        self.assertEqual(set(line), {"correct", "attempted", "failed",
                                     "metrics"})
        self.assertEqual(list(line["metrics"]),
                         [m["name"] for m in self.bench["end_to_end"]])


class BenchmarkFileTest(unittest.TestCase):
    def test_setup_has_the_largest_bound(self):
        bench = load_bench()
        bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
        self.assertEqual(max(bounds.values()), bounds["setup_s"])
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))

    def test_every_workload_has_a_pinned_digest(self):
        bench = load_bench()
        pins = run.load_json("pinned_digests.json")
        self.assertEqual(sorted(pins["prefix_digests"]),
                         sorted(w["name"] for w in bench["workloads"]))


class SpreadTest(unittest.TestCase):
    def test_spread_is_the_quartile_distance_over_the_median(self):
        # statistics.quantiles' default (exclusive) method on 1..9.
        self.assertAlmostEqual(run.spread(list(range(1, 10))), (7.5 - 2.5) / 5)
        self.assertEqual(run.spread([4.0]), 0.0)
        self.assertEqual(run.spread([2.0, 2.0, 2.0]), 0.0)


if __name__ == "__main__":
    unittest.main()
