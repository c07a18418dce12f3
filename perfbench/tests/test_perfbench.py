#!/usr/bin/env python3
"""Tests of the benchmark itself: metric-name validation and the result
checks in run.py, BENCHMARK.json against its required keys and limits, and the
C++ self-test (percentile rule, open-loop accounting, digest check).

    python3 perfbench/tests/test_perfbench.py     # from the repository root
"""

import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
import run  # noqa: E402  (perfbench/run.py)


class MetricNames(unittest.TestCase):
    def test_accepts_letters_digits_underscore_dot_dash(self):
        for name in ["setup_s", "sim.pulls_ms", "crypto.sha256_MBps.64B", "p99_us.high",
                     "9lives", "a-b", "a" * 64]:
            self.assertTrue(run.valid_metric_name(name), name)

    def test_rejects_everything_else(self):
        for name in ["", "_lead", ".lead", "-lead", "has space", "slash/x", "pct%",
                     "unié", "a" * 65, None, 7]:
            self.assertFalse(run.valid_metric_name(name), repr(name))

    def test_units(self):
        for unit in ["s", "ms", "1/s", "%", "MB/s", "count", "B"]:
            self.assertTrue(run.valid_unit(unit), unit)
        for unit in ["", "per second", "s" * 17]:
            self.assertFalse(run.valid_unit(unit), unit)


class CheckMetrics(unittest.TestCase):
    DECLARED = [{"name": "latency_p50_ms", "unit": "ms"}, {"name": "setup_s", "unit": "s"}]

    def test_complete_set_passes(self):
        metrics = {"latency_p50_ms": {"value": 1.25, "unit": "ms"},
                   "setup_s": {"value": 0.5, "unit": "s"}}
        self.assertEqual(run.check_metrics(metrics, self.DECLARED), [])

    def test_missing_extra_unit_and_value_problems(self):
        metrics = {"latency_p50_ms": {"value": float("nan"), "unit": "us"},
                   "bad name": {"value": 1, "unit": "s"}}
        problems = run.check_metrics(metrics, self.DECLARED)
        self.assertTrue(any("missing metric setup_s" in p for p in problems))
        self.assertTrue(any("unit" in p for p in problems))
        self.assertTrue(any("finite" in p for p in problems))
        self.assertTrue(any("undeclared metric bad name" in p for p in problems))
        self.assertTrue(any("invalid metric name" in p for p in problems))

    def test_bool_is_not_a_number(self):
        metrics = {"latency_p50_ms": {"value": True, "unit": "ms"},
                   "setup_s": {"value": 0.5, "unit": "s"}}
        self.assertEqual(len(run.check_metrics(metrics, self.DECLARED)), 1)


class BenchmarkFile(unittest.TestCase):
    def setUp(self):
        self.spec = run.load_spec()

    def test_keys_and_limits(self):
        self.assertEqual(set(self.spec), {"command", "paths", "run_seconds", "workloads",
                                          "end_to_end", "per_layer"})
        self.assertTrue(1 <= self.spec["run_seconds"] <= 60)
        self.assertTrue(2 <= len(self.spec["workloads"]) <= 8)
        self.assertTrue(1 <= len(self.spec["end_to_end"]) <= 16)
        self.assertTrue(1 <= len(self.spec["per_layer"]) <= 128)
        for w in self.spec["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertTrue(len(w["why"]) <= 200 and "\n" not in w["why"])
        names = [m["name"] for m in
                 self.spec["workloads"] + self.spec["end_to_end"] + self.spec["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertTrue(run.valid_metric_name(name), name)
        for m in self.spec["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
        for m in self.spec["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in self.spec["end_to_end"] + self.spec["per_layer"]:
            self.assertTrue(run.valid_unit(m["unit"]), m["unit"])
            self.assertIn(m["better"], ("lower", "higher"))

    def test_setup_metric_has_the_largest_bound(self):
        e2e = {m["name"]: m for m in self.spec["end_to_end"]}
        self.assertEqual((e2e["setup_s"]["unit"], e2e["setup_s"]["better"]), ("s", "lower"))
        self.assertEqual(e2e["setup_s"]["bound"], max(m["bound"] for m in e2e.values()))

    def test_command_stays_inside_paths(self):
        self.assertEqual(self.spec["command"], ["python3", "perfbench/run.py"])
        self.assertEqual(self.spec["paths"], ["perfbench"])


class CppSelfTest(unittest.TestCase):
    def test_selftest_binary_passes(self):
        self.assertTrue(run.build(), "benchmark build failed")
        built = subprocess.run(["cmake", "--build", str(run.BUILD_DIR), "--target",
                                "perfbench_selftest"], capture_output=True, text=True)
        self.assertEqual(built.returncode, 0, built.stdout + built.stderr)
        done = subprocess.run([str(run.BUILD_DIR / "perfbench_selftest")],
                              capture_output=True, text=True)
        self.assertEqual(done.returncode, 0, done.stdout + done.stderr)


if __name__ == "__main__":
    unittest.main()
