#!/usr/bin/env python3
"""End-to-end benchmark of the TT-SNN library: train -> checkpoint -> serve.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Builds the library and the benchmark from source into .bench_build/ (CMake,
Release), runs one workload, and prints the benchmark's log followed by one
JSON line: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end_to_end list of BENCHMARK.json; with --trace 1 they are
its per_layer list, where a layer the workload never calls reads 0.

Exits non-zero, printing no JSON line, when the checkout has no library
sources, the build fails, or the run fails or exceeds its time limit.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(BUILD, "out")
BINARY = os.path.join(BUILD, "ttsnn_perfbench")
WORKLOADS = ("train_htt_event", "serve_int8_batch")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def die(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        die(f"no library sources (CMakeLists.txt and src/) under {ROOT}")
    configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")) and shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [configure, ["cmake", "--build", BUILD, "--target", "ttsnn_perfbench", "-j", jobs]]
    for cmd in steps:
        try:
            done = subprocess.run(
                cmd, cwd=ROOT, capture_output=True, text=True, timeout=BUILD_TIMEOUT_S
            )
        except subprocess.TimeoutExpired:
            die(f"build step timed out: {' '.join(cmd)}")
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-20000:] + done.stderr[-20000:])
            die(f"build step failed: {' '.join(cmd)}")


def run_binary(argv):
    """Runs the benchmark binary; returns its stdout lines, or exits."""
    try:
        done = subprocess.run(
            [BINARY] + argv, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        die(f"run exceeded {RUN_TIMEOUT_S} s", 4)
    sys.stderr.write(done.stderr)
    lines = done.stdout.splitlines()
    if done.returncode != 0:
        sys.stderr.write("\n".join(lines) + "\n")
        die(f"run failed with exit code {done.returncode}", 3)
    return lines


def load_manifest():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        die(f"no {path}")
    with open(path) as f:
        return json.load(f)


def finish(lines, manifest, trace):
    """Checks the binary's result against BENCHMARK.json and prints it last."""
    result = json.loads(lines[-1])
    expected = {m["name"]: m["unit"] for m in manifest["per_layer" if trace else "end_to_end"]}
    measured = result["metrics"]
    for name, m in measured.items():
        if name not in expected:
            die(f"metric {name} is not in BENCHMARK.json", 5)
        if m["unit"] != expected[name]:
            die(f"metric {name} has unit {m['unit']}, BENCHMARK.json says {expected[name]}", 5)
    missing = [name for name in expected if name not in measured]
    if not trace and missing:
        die(f"end-to-end metrics not measured: {', '.join(missing)}", 5)
    if missing:
        lines.insert(-1, "not called by this workload (reported as 0): " + ", ".join(missing))
    result["metrics"] = {
        name: measured.get(name, {"value": 0, "unit": unit}) for name, unit in expected.items()
    }
    print("\n".join(lines[:-1]))
    print(json.dumps(result))


def main():
    manifest = load_manifest()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    # The bounds in BENCHMARK.json were calibrated on windows of run_seconds.
    parser.add_argument("--seconds", type=int, default=manifest["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")

    build()
    if args.self_test:
        print("\n".join(run_binary(["--self-test"])))
        return
    lines = run_binary(
        [
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
            "--out-dir", OUT,
        ]
    )
    finish(lines, manifest, args.trace == 1)


if __name__ == "__main__":
    main()
