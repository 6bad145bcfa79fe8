#!/usr/bin/env python3
"""Build and run the self-checkpoint benchmark.

    python3 perfbench/run.py --workload hpl_ckpt --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

Run from the repository root. The first call configures and builds
perfbench/ (which compiles ../src) into .bench_build/perfbench; later calls
only re-check the build. Build output goes to stderr, so stdout carries
exactly the benchmark's one-line JSON result. Traced runs write their spans
to .bench_out/. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("hpl_ckpt", "sparse_async", "kill_restore")
RUN_TIMEOUT_S = 170


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the benchmark; False when that fails."""
    if not os.path.isfile(os.path.join(ROOT, "src", "ckpt", "session.hpp")):
        log("library sources not found under src/; nothing to build")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for step in steps:
        try:
            code = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode
        except OSError as err:
            log("cannot run %s: %s" % (step[0], err))
            return False
        if code != 0:
            log("build step failed: " + " ".join(step))
            return False
    return True


def run_once(workload, seed, seconds, trace):
    """Run the binary; returns (exit code, result line or None)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out-dir", OUT_DIR]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        log("run exceeded %d s and was stopped" % RUN_TIMEOUT_S)
        return 1, None
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    return proc.returncode, (lines[-1] if lines else None)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]},
            [w["name"] for w in spec["workloads"]])


def check_result(line, expected, label):
    """Problems with one result line against the expected {name: unit}."""
    problems = []
    try:
        result = json.loads(line)
    except (TypeError, ValueError) as err:
        return ["%s: result is not JSON (%s)" % (label, err)]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("%s: keys are %s" % (label, sorted(result)))
        return problems
    if result["correct"] is not True:
        problems.append("%s: correct is %r" % (label, result["correct"]))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("%s: attempted is %r" % (label, result["attempted"]))
    if result["failed"] != 0:
        problems.append("%s: failed is %r" % (label, result["failed"]))
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        problems.append("%s: metric names differ: missing %s, extra %s" % (
            label, sorted(set(expected) - set(metrics)), sorted(set(metrics) - set(expected))))
    for name, unit in expected.items():
        entry = metrics.get(name)
        if entry is None:
            continue
        if entry.get("unit") != unit:
            problems.append("%s: %s has unit %r, not %r" % (label, name, entry.get("unit"), unit))
        value = entry.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append("%s: %s has value %r" % (label, name, value))
    return problems


def selftest():
    """Tiny run of every workload in both modes, checked against BENCHMARK.json."""
    end_to_end, per_layer, workloads = load_spec()
    problems = []
    if sorted(workloads) != sorted(WORKLOADS):
        problems.append("BENCHMARK.json workloads %s != %s" % (workloads, list(WORKLOADS)))
    for workload in WORKLOADS:
        for trace, expected in ((0, end_to_end), (1, per_layer)):
            label = "%s --trace %d" % (workload, trace)
            code, line = run_once(workload, 1, 1, trace)
            if code != 0:
                problems.append("%s: exit code %d" % (label, code))
            found = check_result(line, expected, label)
            if trace == 0 and not found:
                zero = [n for n, m in json.loads(line)["metrics"].items() if m["value"] == 0]
                found = ["%s: end-to-end metric %s is 0" % (label, n) for n in zero]
            problems.extend(found)
            log("selftest %s: %s" % (label, "ok" if not found else "FAILED"))
    for problem in problems:
        log("selftest: " + problem)
    return 0 if not problems else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="run every workload briefly and check the output format")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    if not build():
        return 2
    if args.selftest:
        return selftest()
    code, line = run_once(args.workload, args.seed, args.seconds, args.trace)
    if line is None:
        log("the benchmark printed no result")
        return code or 1
    print(line, flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
