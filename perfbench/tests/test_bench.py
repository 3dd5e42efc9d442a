#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/tests/test_bench.py

Run from the repository root; builds the benchmark through perfbench/run.py
on first use (a few minutes), then takes about two minutes.
"""
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "perfbench", "run.py")


def bench(*args, cwd=ROOT, run=RUN):
    p = subprocess.run([sys.executable, run, *args], cwd=cwd, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    return p.returncode, result, p.stderr


def quick(workload, seed, *extra, trace=0):
    """One pass (--seconds 0) of a workload."""
    return bench("--workload", workload, "--seed", str(seed), "--seconds", "0",
                 "--trace", str(trace), *extra)


def input_digest(workload, seed):
    p = subprocess.run([sys.executable, RUN, "--workload", workload, "--seed", str(seed),
                        "--input-digest"], cwd=ROOT, capture_output=True, text=True)
    assert p.returncode == 0, p.stderr
    return p.stdout.strip().splitlines()[-1]


def modelled_digest(stderr):
    m = re.search(r"# digest inputs (\w+) modelled (\w+)", stderr)
    return m.group(1), m.group(2)


class BenchTest(unittest.TestCase):
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))

    def test_inputs_depend_only_on_seed(self):
        for w in self.spec["workloads"]:
            a = input_digest(w["name"], 7)
            self.assertEqual(a, input_digest(w["name"], 7), w["name"])
            self.assertNotEqual(a, input_digest(w["name"], 8), w["name"])

    def test_modelled_digest_repeats_for_a_seed(self):
        code1, r1, err1 = quick("served_small", 7)
        code2, r2, err2 = quick("served_small", 7)
        code3, _, err3 = quick("served_small", 8)
        self.assertEqual((code1, code2, code3), (0, 0, 0), err1 + err2 + err3)
        self.assertEqual(modelled_digest(err1), modelled_digest(err2))
        self.assertNotEqual(modelled_digest(err1)[1], modelled_digest(err3)[1])
        for name in ("gpu_ms_best", "gpu_ms_auto", "serve_p50_ms", "serve_p99_ms",
                     "serve_max_qps"):
            self.assertEqual(r1["metrics"][name], r2["metrics"][name], name)

    def test_metrics_match_benchmark_json(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, r, err = quick("served_small", 3, trace=trace)
            self.assertEqual(code, 0, err)
            self.assertEqual(set(r), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(r["correct"])
            self.assertGreaterEqual(r["attempted"], 1)
            want = {m["name"]: m["unit"] for m in self.spec[key]}
            got = {k: v["unit"] for k, v in r["metrics"].items()}
            self.assertEqual(got, want)
            if trace == 0:
                for name, v in r["metrics"].items():
                    self.assertGreater(v["value"], 0, name)

    def test_corrupted_result_trips_the_check(self):
        code, r, err = quick("served_small", 3, "--inject-mismatch")
        self.assertEqual(code, 1)
        self.assertFalse(r["correct"])
        self.assertGreaterEqual(r["failed"], 1)
        self.assertIn("reference mismatch", err)

    def test_fails_without_the_simulator_sources(self):
        with tempfile.TemporaryDirectory() as d:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), d)
            shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(d, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            code, r, _ = bench("--workload", "served_small", "--seed", "1", "--seconds", "1",
                               "--trace", "0", cwd=d, run=os.path.join(d, "perfbench", "run.py"))
            self.assertNotEqual(code, 0)
            self.assertIsNone(r)


if __name__ == "__main__":
    unittest.main()
