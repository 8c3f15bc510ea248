#!/usr/bin/env python3
"""Smoke tests of the benchmark itself, at tiny sizes (a few seconds each).

    python3 perfbench/smoke_test.py

They check that every metric BENCHMARK.json names is printed with its
unit in both modes, that the digest is a function of the seed, that an
injected invariant failure is counted in failed_frac, that a digest
mismatch exits nonzero, and that the command refuses to run without the
library's sources.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
    SPEC = json.load(f)
# The gated workloads plus the two that run by hand (see README).
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + ["serve-2e20",
                                                     "regular-2e22"]


def bench(workload, seed=1, trace=0, *extra, cwd=ROOT, run=RUN):
    proc = subprocess.run(
        [sys.executable, run, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny", *extra],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=cwd,
        timeout=600)
    return proc


def result_of(proc):
    return json.loads(proc.stdout.rstrip("\n").split("\n")[-1])


def failed_frac(proc):
    m = re.search(r"^perfbench: failed_frac\s+(\S+) ratio", proc.stdout, re.M)
    return float(m.group(1))


def digest(proc):
    return re.search(r"^perfbench: result_digest (\S+)", proc.stdout,
                     re.M).group(1)


class Metrics(unittest.TestCase):
    def check_metrics(self, trace):
        expected = {m["name"]: m["unit"]
                    for m in SPEC["per_layer" if trace else "end_to_end"]}
        for workload in WORKLOADS:
            with self.subTest(workload=workload, trace=trace):
                proc = bench(workload, 1, trace)
                self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
                result = result_of(proc)
                self.assertEqual(sorted(result),
                                 ["attempted", "correct", "failed", "metrics"])
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                units = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(units, expected)
                for name, metric in result["metrics"].items():
                    self.assertIsInstance(metric["value"], (int, float), name)
                self.assertEqual(failed_frac(proc), 0.0)
                self.assertIn("perfbench: stamp ", proc.stdout)

    def test_end_to_end_metrics(self):
        self.check_metrics(0)

    def test_per_layer_metrics(self):
        self.check_metrics(1)


class Correctness(unittest.TestCase):
    def test_digest_depends_only_on_seed(self):
        a, b, c = (bench("grid-small", s) for s in (5, 5, 6))
        self.assertEqual(digest(a), digest(b))
        self.assertNotEqual(digest(a), digest(c))

    def test_injected_failure_is_counted(self):
        for workload in ("grid-small", "serve-2e20", "implicit-2e22"):
            with self.subTest(workload=workload):
                proc = bench(workload, 1, 0, "--inject-failure")
                self.assertNotEqual(proc.returncode, 0)
                result = result_of(proc)
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)
                self.assertGreater(failed_frac(proc), 0.0)

    def test_digest_mismatch_exits_nonzero(self):
        proc = bench("regular-2e22", 1, 1, "--perturb-traced-seed")
        self.assertNotEqual(proc.returncode, 0)
        self.assertIn("CHECK FAILED: traced run differs", proc.stdout)
        result = result_of(proc)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])

    def test_refuses_without_sources(self):
        bare = os.path.join(ROOT, ".bench_out", "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(os.path.join(ROOT, "perfbench"),
                        os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            proc = bench("grid-small", 1, 0, cwd=bare,
                         run=os.path.join(bare, "perfbench", "run.py"))
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
