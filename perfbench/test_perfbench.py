"""The benchmark's own tests, at smoke scale (about a minute per pass over
the three workloads, plus a first build).

    python3 perfbench/test_perfbench.py

They check that every metric BENCHMARK.json names prints with its unit
and sample count, that a deliberately corrupted output trips the output
checks of each workload, and that --diff passes identical counters and
flags a changed one.
"""

import json
import os
import re
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("wiki-mlrmcl", "lj-symmetrize", "serve-mix")


def bench(*args):
    r = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--scale", "smoke",
         "--seconds", "2", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if r.returncode != 0:
        raise AssertionError(f"run.py {args} exited {r.returncode}:\n"
                             f"{r.stderr}")
    lines = r.stdout.splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


class BenchmarkSpecTest(unittest.TestCase):
    def test_benchmark_json_shape(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        self.assertEqual(set(spec), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(WORKLOADS))
        names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for m in spec["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in spec["end_to_end"]))
        modules = {"graph", "core", "linalg", "cluster", "dynamic", "serve",
                   "trace"}
        for m in spec["per_layer"]:
            self.assertIn(m["name"].split(".")[0], modules, m["name"])
        for name in names:
            self.assertRegex(name, r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


class SmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def check_metrics(self, detail, result, kind):
        specs = self.spec[kind]
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"], detail["failures"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(list(result["metrics"]), [m["name"] for m in specs])
        for m in specs:
            printed = result["metrics"][m["name"]]
            self.assertEqual(printed["unit"], m["unit"])
            self.assertIsInstance(printed["value"], float)
            described = detail[kind][m["name"]]
            self.assertEqual(described["unit"], m["unit"])
            self.assertIsInstance(described["samples"], int)
            if kind == "end_to_end":
                self.assertGreaterEqual(described["samples"], 1, m["name"])
                self.assertGreater(printed["value"], 0, m["name"])

    def test_every_metric_prints_with_unit_and_samples(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload, trace=0):
                detail, result = bench("--workload", workload, "--seed", "3",
                                       "--trace", "0")
                self.check_metrics(detail, result, "end_to_end")
                for key in ("nproc", "cpu_model", "l2", "l3", "build_type",
                            "commit", "source_sha256", "seed"):
                    self.assertIn(key, detail["stamp"])
                self.assertEqual(detail["stamp"]["build_type"], "Release")
                self.assertGreater(
                    detail["working_set_bytes"]["input_csr_bytes"], 0)
            with self.subTest(workload=workload, trace=1):
                detail, result = bench("--workload", workload, "--seed", "3",
                                       "--trace", "1")
                self.check_metrics(detail, result, "per_layer")
                layers = detail["per_layer"]
                if workload == "lj-symmetrize":
                    self.assertEqual(layers["cluster.self_s"]["value"], 0.0)
                    self.assertGreater(layers["linalg.spool_bytes"]["value"],
                                       0)
                if workload == "wiki-mlrmcl":
                    self.assertGreater(layers["cluster.self_s"]["value"],
                                       layers["core.self_s"]["value"] +
                                       layers["linalg.self_s"]["value"])

    def test_corrupted_output_trips_the_checks(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                detail, result = bench("--workload", workload, "--seed", "3",
                                       "--trace", "0", "--corrupt")
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)
                self.assertTrue(detail["failures"])

    def test_counter_diff(self):
        a, _ = bench("--workload", "lj-symmetrize", "--seed", "5",
                     "--trace", "1")
        b, _ = bench("--workload", "lj-symmetrize", "--seed", "5",
                     "--trace", "1")
        path_a = os.path.join(ROOT, a["trace_report"])
        path_b = os.path.join(ROOT, b["trace_report"])
        diff = [sys.executable, os.path.join(HERE, "run.py"), "--diff"]
        same = subprocess.run(diff + [path_a, path_b], capture_output=True,
                              text=True)
        self.assertEqual(same.returncode, 0, same.stdout)
        self.assertEqual(len(re.findall(r"\bsame$", same.stdout, re.M)), 5)
        with open(path_b) as f:
            report = json.load(f)
        report["detail"]["per_layer"]["linalg.flops"]["value"] += 1
        with tempfile.NamedTemporaryFile(
                "w", suffix=".json", dir=os.path.dirname(path_b),
                delete=False) as f:
            json.dump(report, f)
        try:
            changed = subprocess.run(diff + [path_a, f.name],
                                     capture_output=True, text=True)
        finally:
            os.unlink(f.name)
        self.assertEqual(changed.returncode, 1, changed.stdout)
        self.assertIn("CHANGED", changed.stdout)


if __name__ == "__main__":
    unittest.main()
