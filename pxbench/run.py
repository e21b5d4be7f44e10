#!/usr/bin/env python3
"""Entry point of the repository benchmark: builds the driver, runs one workload, checks
the result, and prints it as the last line of stdout.

    python3 pxbench/run.py --workload lm --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The driver (pxbench.cc) and the Parallax library are
compiled from source into .bench_build/pxbench on first use; later runs only re-check the
build. Build logs and diagnostics go to stderr. With --trace 1 the span trace is written
to .bench_build/traces/<workload>-seed<seed>.json (Chrome trace-event format).

Exits non-zero, printing no result, when the build fails, the driver fails, or its
result does not have the shape BENCHMARK.json declares.
"""
import argparse
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "pxbench"
BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"pxbench: {message}", file=sys.stderr)
    sys.exit(1)


def configure_and_build():
    if not (BUILD / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs], check=True,
                   stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)


def build():
    if not (ROOT / "src").is_dir():
        fail(f"no Parallax sources at {ROOT / 'src'}")
    try:
        configure_and_build()
    except subprocess.CalledProcessError:
        # A build tree left by another checkout or generator: start it over once.
        shutil.rmtree(BUILD, ignore_errors=True)
        configure_and_build()
    return BUILD / "pxbench"


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result keys {sorted(result)}")
    if not isinstance(result["correct"], bool):
        fail("'correct' is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            fail(f"'{key}' is not a whole number")
    if result["attempted"] < 1:
        fail("nothing attempted")
    expected = expected_metrics(trace)
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        fail(f"metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(expected)}")
    for name, metric in metrics.items():
        if metric.get("unit") != expected[name]:
            fail(f"metric {name} has unit {metric.get('unit')}, expected {expected[name]}")
        value = metric.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail(f"metric {name} has no finite value")
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        binary = build()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as error:
        fail(f"build failed: {error}")

    command = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = ROOT / ".bench_build" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        trace_file = traces / f"{args.workload}-seed{args.seed}.json"
        command += ["--trace-out", str(trace_file)]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"driver did not finish within {RUN_TIMEOUT_S} s")
    if run.returncode != 0:
        fail(f"driver exited with code {run.returncode}")
    lines = run.stdout.strip().splitlines()
    if not lines:
        fail("driver printed no result")
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    result = check_result(lines[-1], args.trace)
    if args.trace:
        print(f"pxbench: trace written to {trace_file}", file=sys.stderr)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
