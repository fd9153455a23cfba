#!/usr/bin/env python3
"""Builds and runs the Arthas benchmark for one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload {serve_read,write_churn,fault_matrix} \
        --seed N --seconds S --trace {0,1}

The first run configures and builds perfbench/ (which compiles the library
from src/) under .bench_build/; later runs only rebuild what changed. The
benchmark binary runs the workload, checks its outputs and reports its
metrics. This script keeps exactly the metrics BENCHMARK.json declares for
the mode (end-to-end with --trace 0, per-layer with --trace 1), checks
their units, and prints one JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

A per-layer metric the workload does not exercise (the reactor on a serving
workload, the network on an in-process one) is reported as 0. Anything the
binary measured beyond the declared metrics goes to stderr. Traced runs
also write their spans to .bench_build/spans/.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
SPAN_DIR = os.path.join(ROOT, ".bench_build", "spans")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ("serve_read", "write_churn", "fault_matrix")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "Makefile")):
        steps.append(["cmake", "-S", SOURCE_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                  "--target", "perfbench"])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as err:
            fail("build step failed: %s" % err)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(step))


def declared_metrics(trace):
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as err:
        fail("cannot read BENCHMARK.json: %s" % err)
    return spec["per_layer" if trace else "end_to_end"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    declared = declared_metrics(args.trace)
    build()

    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        os.makedirs(SPAN_DIR, exist_ok=True)
        command += ["--span-file", os.path.join(
            SPAN_DIR, "%s-seed%d.tsv" % (args.workload, args.seed))]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE,
                              stderr=sys.stderr, timeout=RUN_TIMEOUT_S,
                              check=False, text=True)
    except subprocess.TimeoutExpired:
        fail("workload %s did not finish in %d s" % (args.workload,
                                                    RUN_TIMEOUT_S))
    if done.returncode != 0:
        fail("benchmark binary exited with %d" % done.returncode)
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail("benchmark binary printed no result")
    result = json.loads(lines[-1])

    measured = result["metrics"]
    metrics = {}
    for metric in declared:
        name, unit = metric["name"], metric["unit"]
        got = measured.pop(name, None)
        if got is None:
            if not args.trace:
                fail("end-to-end metric %s was not measured" % name)
            got = {"value": 0.0, "unit": unit}
        if got["unit"] != unit:
            fail("metric %s has unit %s, BENCHMARK.json says %s"
                 % (name, got["unit"], unit))
        metrics[name] = got
    for name, got in sorted(measured.items()):
        print("perfbench: also measured %s = %r %s"
              % (name, got["value"], got["unit"]), file=sys.stderr)

    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
