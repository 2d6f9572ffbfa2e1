#!/usr/bin/env python3
"""Steadiness check: runs every workload over ten seeds and prints, per
end-to-end metric, the median and the quartile spread (Q3 - Q1) / median, with
Python's statistics.quantiles(values, n=4), against a third of its bound.

    python3 perfbench/steady.py [--first-seed 1]

Each run gets its own seed and the window of BENCHMARK.json's run_seconds,
which run.py defaults to. Raw results are appended as JSON lines to
.bench_build/steady.jsonl. When that log already holds a set for the
workload, each median is also compared with the previous set's: two sets of
runs of the same code must agree within the metric's bound.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
LOG = os.path.join(ROOT, ".bench_build", "steady.jsonl")
RUNS = 10


def previous_set(workload):
    """Metric values of the last RUNS logged runs of `workload`, or None."""
    if not os.path.isfile(LOG):
        return None
    with open(LOG) as log:
        rows = [r for r in map(json.loads, log) if r["workload"] == workload]
    if len(rows) < RUNS:
        return None
    values = {}
    for r in rows[-RUNS:]:
        for name, m in r["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    return values


def report(workload, values, previous, metrics):
    for name, v in values.items():
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med
        bound = metrics[name]["bound"]
        line = (f"  {workload:22s} {name:14s} median {med:12.5g}  spread {spread:7.2%}"
                f" bound {bound:.2f} {'OK' if spread < bound / 3 else 'WIDE'}")
        if previous:
            before = statistics.median(previous[name])
            worse = med / before - 1 if metrics[name]["better"] == "lower" else before / med - 1
            line += (f"; vs previous set {med / before - 1:+.1%}"
                     f" {'OK' if worse <= bound else 'WORSE'}")
        print(line)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        manifest = json.load(f)
    metrics = {m["name"]: m for m in manifest["end_to_end"]}
    parser = argparse.ArgumentParser()
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    for workload in [w["name"] for w in manifest["workloads"]]:
        previous = previous_set(workload)
        values = {}
        for seed in range(args.first_seed, args.first_seed + RUNS):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--trace", "0"]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if done.returncode != 0:
                sys.stderr.write(done.stdout + done.stderr)
                sys.exit(f"{workload} seed {seed}: exit code {done.returncode}")
            result = json.loads(done.stdout.splitlines()[-1])
            with open(LOG, "a") as log:
                log.write(json.dumps({"workload": workload, "seed": seed, **result}) + "\n")
            if not result["correct"] or result["failed"]:
                sys.exit(f"{workload} seed {seed}: outputs not correct")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            probes = re.findall(r"host probe ([0-9.]+) ms", done.stdout)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{n}={m['value']:.4g}" for n, m in result["metrics"].items())
                + (f"; host probe {probes[0]} ms" if probes else ""), flush=True)
        report(workload, values, previous, metrics)


if __name__ == "__main__":
    main()
