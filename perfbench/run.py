#!/usr/bin/env python3
"""Build and run the benchmark from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

The first form runs one workload and ends its standard output with one
JSON object (correct, attempted, failed, metrics): the end-to-end
metrics untraced, the per-layer metrics traced.  The metric names and
units are those declared in BENCHMARK.json, and the result is checked
against them before it is printed.  The second form runs every workload
untraced, each in its own process, and prints one table.

The benchmark builds the repository's libraries from source with dune;
build output goes to standard error.  Traces are written under
.bench_out/ at the root of the checkout.
"""

import argparse
import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def load_spec():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)


def build():
    command = ["dune", "build", "--root", ROOT, "--cache=disabled", "--display=quiet",
               "./perfbench/perfbench.exe"]
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if done.returncode != 0:
        fail("build failed (dune exit %d)" % done.returncode)


def run_exe(workload, seed, seconds, trace):
    command = [EXE, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace), "--out-dir", os.path.join(ROOT, ".bench_out")]
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("%s: %s" % (workload, e))
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0 or not lines:
        fail("%s exited %d" % (workload, done.returncode))
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("%s: last line is not a JSON result" % workload)
    return lines[:-1], result


def check(result, declared, positive):
    """The result carries exactly the declared metrics, with their units
    (and, for the end-to-end metrics, values above 0)."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result keys %s" % sorted(result))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail("attempted must be a whole number >= 1")
    if not isinstance(result["failed"], int):
        fail("failed must be a whole number")
    metrics = result["metrics"]
    if set(metrics) != set(declared):
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s"
             % (sorted(set(declared) - set(metrics)), sorted(set(metrics) - set(declared))))
    for name, unit in declared.items():
        m = metrics[name]
        if m.get("unit") != unit:
            fail("%s: unit %r, declared %r" % (name, m.get("unit"), unit))
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail("%s: value %r is not a finite number" % (name, value))
        if positive and value <= 0:
            fail("%s: value %r is not above 0" % (name, value))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if args.workload != "all" and args.workload not in names:
        fail("unknown workload %r (one of %s, or all)" % (args.workload, ", ".join(names)))
    build()

    if args.workload != "all":
        lines, result = run_exe(args.workload, args.seed, seconds, args.trace)
        if args.trace:
            check(result, per_layer, positive=False)
        else:
            check(result, end_to_end, positive=True)
        for line in lines:
            print(line)
        print(json.dumps(result))
        return

    # One table: every end-to-end metric of every workload, by name and
    # unit, with operations attempted and failed.
    results = {}
    for name in names:
        lines, result = run_exe(name, args.seed, seconds, 0)
        check(result, end_to_end, positive=True)
        for line in lines:
            print(line)
        results[name] = result
    width = max(len(n) for n in names)
    print("%-14s %s" % ("metric", "  ".join("%*s" % (max(width, 16), n) for n in names)))
    for metric, unit in end_to_end.items():
        row = "  ".join("%*.6g" % (max(width, 16), results[n]["metrics"][metric]["value"])
                        for n in names)
        print("%-14s %s  %s" % (metric, row, unit))
    for key in ("attempted", "failed"):
        print("%-14s %s" % (key, "  ".join("%*d" % (max(width, 16), results[n][key])
                                           for n in names)))
    if not all(r["correct"] for r in results.values()):
        sys.exit(1)


if __name__ == "__main__":
    main()
