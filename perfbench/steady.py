#!/usr/bin/env python3
"""Steadiness check: repeat workloads and report each metric's spread.

    python3 perfbench/steady.py [--runs 10] [--same-seed N] [--trace 0|1]

Run from the repository root. Every workload in BENCHMARK.json runs --runs
times through perfbench/run.py with the run length from BENCHMARK.json.
By default run i uses seed i (1..runs), as a regression check across seeds
does; with --same-seed every run uses that seed, and then the modelled
metrics and the modelled digest must be identical across runs.

For every metric it prints the median, the first and third quartiles
(statistics.quantiles(values, n=4)) and the spread (q3 - q1) / median. A
spread above the metric's bound in BENCHMARK.json is flagged FAIL; one above
a third of the bound is flagged "wide" (too little margin for a regression
check). Exit status 1 on any FAIL, any failed run, or a modelled value that
changed between same-seed runs.
"""
import argparse
import json
import os
import re
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Metrics on the modelled clock: deterministic for a given seed.
MODELLED = {"gpu_ms_best", "gpu_ms_auto", "serve_p50_ms", "serve_p99_ms", "serve_max_qps"}


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    m = re.search(r"# digest inputs (\w+) modelled (\w+)", p.stderr)
    return p.returncode, result, (m.group(2) if m else None)


def main():
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--same-seed", type=int, default=None)
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = ap.parse_args()

    if args.same_seed is not None:
        seeds = [args.same_seed] * args.runs
    else:
        seeds = list(range(1, args.runs + 1))
    metrics = bench["end_to_end"] if args.trace == 0 else bench["per_layer"]
    bad = False
    for workload in (w["name"] for w in bench["workloads"]):
        values = {m["name"]: [] for m in metrics}
        digests = set()
        for seed in seeds:
            code, result, digest = run_once(workload, seed, bench["run_seconds"], args.trace)
            if code != 0 or result is None or not result["correct"]:
                print(f"{workload} seed {seed}: run failed (exit {code})")
                bad = True
                continue
            digests.add(digest)
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: ok, {result['attempted']} attempted", flush=True)
        if any(len(v) < 2 for v in values.values()):
            continue
        print(f"\n{workload}: {len(seeds)} runs, seeds {seeds[0]}..{seeds[-1]}")
        print(f"  {'metric':40s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>7s} {'bound':>6s}")
        for m in metrics:
            v = values[m["name"]]
            q1, _, q3 = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            spread = (q3 - q1) / med if med else 0.0
            bound = m.get("bound")
            flag = ""
            if bound is not None:
                if spread > bound:
                    flag, bad = "FAIL", True
                elif spread > bound / 3:
                    flag = "wide"
            if args.same_seed is not None and m["name"] in MODELLED and len(set(v)) > 1:
                flag, bad = "CHANGED", True
            print(f"  {m['name']:40s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:7.3f} "
                  f"{'' if bound is None else f'{bound:6.2f}'} {flag}")
        if args.same_seed is not None and len(digests) > 1:
            print(f"  modelled digest CHANGED between same-seed runs: {sorted(digests)}")
            bad = True
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
