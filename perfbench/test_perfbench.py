#!/usr/bin/env python3
"""Self-test of the benchmark. Run from the repository root:

    python3 perfbench/test_perfbench.py

Checks that every workload prints every metric BENCHMARK.json names,
with its unit, in both modes; that a planted counter mismatch makes a
run fail; and that the benchmark refuses to run without the sources.
Takes about two minutes (short runs, one build).
"""

import json
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
SECONDS = "0.5"

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload, trace, *extra, cwd=ROOT):
    """Run one benchmark invocation; returns (exit code, result, stdout)."""
    done = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", "1", "--seconds", SECONDS,
         "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    return done.returncode, result, done.stdout


class MetricsPrinted(unittest.TestCase):
    def check(self, trace, key):
        want = {m["name"]: m["unit"] for m in SPEC[key]}
        for w in WORKLOADS:
            with self.subTest(workload=w):
                code, result, out = bench(w, trace)
                self.assertEqual(code, 0, out)
                self.assertEqual(set(result),
                                 {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                got = {n: m["unit"] for n, m in result["metrics"].items()}
                self.assertEqual(got, want)
                for name, m in result["metrics"].items():
                    self.assertIsInstance(m["value"], (int, float), name)
                    if key == "end_to_end":
                        self.assertGreater(m["value"], 0, name)
                    # The human-readable lines carry the same names.
                    self.assertRegex(
                        out, rf"(?m)^{re.escape(name)} +\S+ "
                        rf"{re.escape(m['unit'])}$")

    def test_end_to_end_metrics(self):
        self.check(0, "end_to_end")

    def test_per_layer_metrics(self):
        self.check(1, "per_layer")


class PlantedMismatchFails(unittest.TestCase):
    def test_each_workload_and_mode(self):
        for w in WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=w, trace=trace):
                    code, result, out = bench(w, trace, "--plant-mismatch")
                    self.assertNotEqual(code, 0, out)
                    self.assertFalse(result["correct"])
                    self.assertGreaterEqual(result["failed"], 1)

    def test_golden_seed_passes(self):
        # Without --seed the pinned seed applies, and so do the goldens.
        done = subprocess.run(
            [sys.executable, RUN, "--workload", "paper5",
             "--seconds", SECONDS], cwd=ROOT, capture_output=True,
            text=True, timeout=600)
        self.assertEqual(done.returncode, 0, done.stderr[-2000:])
        self.assertIn("seed 407715730181", done.stdout)


class RefusesWithoutSources(unittest.TestCase):
    def test_bare_directory(self):
        bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        try:
            code, result, _ = bench("paper5", 0, cwd=bare)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(code, 0)
        self.assertIsNone(result)


if __name__ == "__main__":
    unittest.main()
